//! An interactive shell for the transaction logic.
//!
//! ```text
//! cargo run -p txlog-examples --bin repl
//! ```
//!
//! Commands:
//!
//! ```text
//! rel NAME(attr, attr, …)      declare a relation
//! run  <transaction>           execute an f-term at the current state
//! eval <f-term>                evaluate a query at the current state
//! ask  <f-formula>             evaluate a truth-valued fluent (w :: p)
//! check <s-formula>            model-check over the recorded history
//! show                         print the current state
//! history                      print the evolution so far
//! undo                         drop the last transaction
//! :save <path>                 write schema + state as a checksummed snapshot
//! :open <path>                 load a snapshot (replaces schema, resets history)
//! :connect <addr>              attach to a txlog-serve instance; run/eval/ask/
//!                              show go over the wire, as do transaction blocks
//!                              (:begin [read-committed|snapshot|serializable],
//!                              :commit, :abort)
//! :disconnect                  return to local mode
//! :subscribe <name> <pattern>  (connected) register an event subscription
//! :unsubscribe <name>          (connected) drop one
//! :notifications [ms]          (connected) drain server-pushed matches
//! help | quit
//! ```

use std::io::{BufRead, Write as _};
use txlog::prelude::*;

struct Repl {
    schema: Schema,
    states: Vec<DbState>,
    labels: Vec<String>,
    /// When set, state-changing and query commands are forwarded to a
    /// server instead of the local engine.
    remote: Option<Client>,
}

impl Repl {
    fn new() -> Repl {
        let schema = Schema::new();
        let states = vec![schema.initial_state()];
        Repl {
            schema,
            states,
            labels: Vec::new(),
            remote: None,
        }
    }

    fn ctx(&self) -> ParseCtx {
        ParseCtx::new(self.schema.decls().iter().map(|d| d.name))
    }

    fn current(&self) -> &DbState {
        self.states.last().expect("at least the initial state")
    }

    fn model(&self) -> TxResult<Model> {
        let mut b = ModelBuilder::new(self.schema.clone());
        let mut prev = b.add_state(self.states[0].clone());
        for (i, s) in self.states.iter().enumerate().skip(1) {
            let cur = b.add_state(s.clone());
            if prev != cur {
                b.graph_mut()
                    .add_arc(prev, TxLabel::new(&self.labels[i - 1]), cur)?;
            }
            prev = cur;
        }
        b.graph_mut().transitive_close();
        Ok(b.finish())
    }

    /// Forward a command to the connected server. Returns `None` for
    /// commands that stay local even while connected.
    fn dispatch_remote(&mut self, cmd: &str, rest: &str) -> Option<TxResult<String>> {
        let wire = |e: ClientError| TxError::eval(format!("{e}"));
        let client = self.remote.as_mut()?;
        let out = match cmd {
            "run" => client.execute("repl", rest).map_err(wire).map(|c| {
                // inside a transaction block the server stages instead
                // of committing, and the client reports version 0
                if c.version == 0 {
                    "staged in the open transaction block".to_string()
                } else {
                    format!(
                        "ok — committed as version {} ({} retries{})",
                        c.version,
                        c.retries,
                        if c.forwarded { ", forwarded" } else { "" }
                    )
                }
            }),
            "eval" => client.query(rest).map_err(wire),
            "ask" => client.ask(rest).map_err(wire).map(|v| format!("{v}")),
            "show" => client.show_state().map_err(wire),
            "explain" => client.explain(rest, false).map_err(wire),
            "begin" | ":begin" => {
                let level = match rest {
                    "" => Ok(None),
                    name => IsolationLevel::parse(name).map(Some).ok_or_else(|| {
                        TxError::eval(format!(
                            "unknown isolation level {name:?} — try read-committed, \
                             snapshot, or serializable"
                        ))
                    }),
                };
                match level {
                    Ok(level) => client.begin_at(level).map_err(wire).map(|()| match level {
                        Some(l) => format!("begun ({l})"),
                        None => "begun".to_string(),
                    }),
                    Err(e) => Err(e),
                }
            }
            "commit" | ":commit" => client
                .commit(rest)
                .map_err(wire)
                .map(|c| format!("committed as version {}", c.version)),
            "abort" | ":abort" => client
                .abort()
                .map_err(wire)
                .map(|n| format!("aborted; {n} staged statements discarded")),
            ":metrics" => client.metrics_json().map_err(wire),
            ":subscribe" => match rest.split_once(char::is_whitespace) {
                Some((name, pattern)) => client
                    .subscribe(name, pattern.trim())
                    .map_err(wire)
                    .map(|()| format!("subscribed {name}; drain with :notifications")),
                None => Err(TxError::eval("usage: :subscribe <name> <pattern>")),
            },
            ":unsubscribe" => {
                if rest.is_empty() {
                    Err(TxError::eval("usage: :unsubscribe <name>"))
                } else {
                    client
                        .unsubscribe(rest)
                        .map_err(wire)
                        .map(|()| format!("unsubscribed {rest}"))
                }
            }
            ":notifications" => {
                let wait = match rest {
                    "" => Ok(std::time::Duration::from_millis(200)),
                    ms => ms
                        .parse::<u64>()
                        .map(std::time::Duration::from_millis)
                        .map_err(|_| TxError::eval("usage: :notifications [wait-ms]")),
                };
                wait.and_then(|wait| {
                    let mut out = String::new();
                    loop {
                        match client.next_notification(wait).map_err(wire)? {
                            Some(NotificationEvent::Match(n)) => {
                                let binding = n
                                    .binding
                                    .iter()
                                    .map(|(v, a)| format!("{v} = {a}"))
                                    .collect::<Vec<_>>()
                                    .join(", ");
                                out.push_str(&format!(
                                    "{} @ v{}: {{{binding}}}\n",
                                    n.name, n.version
                                ));
                            }
                            Some(NotificationEvent::Overflow { name, capacity }) => {
                                out.push_str(&format!(
                                    "{name}: OVERFLOW — dropped at queue capacity \
                                     {capacity}; re-subscribe to resume\n"
                                ));
                            }
                            None => break,
                        }
                    }
                    if out.is_empty() {
                        out.push_str("no notifications pending");
                    }
                    Ok(out.trim_end().to_string())
                })
            }
            ":quit-server" => {
                let r = client
                    .shutdown_server()
                    .map_err(wire)
                    .map(|()| "server is draining".to_string());
                self.remote = None;
                r
            }
            ":disconnect" => {
                self.remote = None;
                Ok("back to local mode".to_string())
            }
            // history/undo/check/rel/:save/:open manipulate the local
            // evolution history, which a remote server does not expose.
            "history" | "undo" | "check" | "rel" | "save" | ":save" | "open" | ":open" => {
                Ok(format!("{cmd} is local-only; :disconnect first"))
            }
            _ => return None,
        };
        Some(out)
    }

    fn dispatch(&mut self, line: &str) -> TxResult<String> {
        let line = line.trim();
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        if cmd == ":connect" {
            if rest.is_empty() {
                return Err(TxError::eval("usage: :connect <addr>"));
            }
            let client = Client::connect(rest, "repl")
                .map_err(|e| TxError::eval(format!("cannot connect to {rest}: {e}")))?;
            let info = client.server_info().clone();
            self.remote = Some(client);
            return Ok(format!(
                "connected to {} ({rest}): head version {}, relations [{}]",
                info.server,
                info.head_version,
                info.relations.join(", ")
            ));
        }
        if let Some(out) = self.dispatch_remote(cmd, rest) {
            return out;
        }
        match cmd {
            ":disconnect" => Ok("not connected".to_string()),
            "rel" => {
                let (name, attrs) = rest
                    .split_once('(')
                    .ok_or_else(|| TxError::parse(1, 1, "expected NAME(attr, …)"))?;
                let attrs: Vec<&str> = attrs
                    .trim_end_matches(')')
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .collect();
                self.schema.add_relation(name.trim(), &attrs)?;
                // rebuild every state with the new relation present
                let decl = self.schema.expect(name.trim())?;
                for s in &mut self.states {
                    *s = s.clone().with_relation(decl.id, decl.arity())?;
                }
                Ok(format!("declared {}", decl))
            }
            "run" => {
                let tx = parse_fterm(rest, &self.ctx(), &[])?;
                let engine = Engine::builder(&self.schema).build().unwrap();
                let next = engine.execute(self.current(), &tx, &Env::new())?;
                self.states.push(next);
                self.labels.push(rest.to_string());
                Ok(format!("ok — state {} reached", self.states.len() - 1))
            }
            "eval" => {
                let q = parse_fterm(rest, &self.ctx(), &[])?;
                let engine = Engine::builder(&self.schema).build().unwrap();
                let v = engine.eval_obj(self.current(), &q, &Env::new())?;
                Ok(format!("{v}"))
            }
            "ask" => {
                let p = parse_fformula(rest, &self.ctx(), &[])?;
                let engine = Engine::builder(&self.schema).build().unwrap();
                let v = engine.eval_truth(self.current(), &p, &Env::new())?;
                Ok(format!("{v}"))
            }
            "check" => {
                let f = parse_sformula(rest, &self.ctx())?;
                let model = self.model()?;
                match model.check_with_witness(&f)? {
                    Ok(()) => Ok("valid in the recorded history".to_string()),
                    Err(w) => Ok(format!("FALSIFIED — witness: {w}")),
                }
            }
            "show" => Ok(format!("{}", self.current())),
            "history" => {
                let mut out = String::new();
                out.push_str(&format!("{} states\n", self.states.len()));
                for (i, l) in self.labels.iter().enumerate() {
                    out.push_str(&format!("  s{i} --[{l}]--> s{}\n", i + 1));
                }
                Ok(out)
            }
            "undo" => {
                if self.states.len() > 1 {
                    self.states.pop();
                    self.labels.pop();
                    Ok("rolled back one transaction".to_string())
                } else {
                    Ok("nothing to undo".to_string())
                }
            }
            "save" | ":save" => {
                if rest.is_empty() {
                    return Err(TxError::eval("usage: :save <path>"));
                }
                let bytes = txlog::relational::codec::encode_snapshot(&self.schema, self.current());
                std::fs::write(rest, &bytes)
                    .map_err(|e| TxError::eval(format!("cannot write {rest}: {e}")))?;
                Ok(format!(
                    "saved state {} ({} bytes) to {rest}",
                    self.states.len() - 1,
                    bytes.len()
                ))
            }
            "open" | ":open" => {
                if rest.is_empty() {
                    return Err(TxError::eval("usage: :open <path>"));
                }
                let bytes = std::fs::read(rest)
                    .map_err(|e| TxError::eval(format!("cannot read {rest}: {e}")))?;
                let (schema, state) = txlog::relational::codec::decode_snapshot(&bytes)
                    .map_err(|e| TxError::eval(format!("not a txlog snapshot: {e}")))?;
                self.schema = schema;
                self.states = vec![state];
                self.labels.clear();
                Ok(format!(
                    "opened {rest}: {} relations, {} tuples (history reset)",
                    self.schema.decls().len(),
                    self.current().total_tuples()
                ))
            }
            "help" => Ok(HELP.to_string()),
            "" => Ok(String::new()),
            other => Ok(format!("unknown command {other:?} — try 'help'")),
        }
    }
}

const HELP: &str = "\
commands:
  rel NAME(attr, …)    declare a relation
  run  <transaction>   execute, e.g. run insert(tuple('ann', 500), EMP)
  eval <query>         e.g. eval sum({ salary(e) | e: 2tup . e in EMP })
  ask  <formula>       e.g. ask exists e: 2tup . e in EMP & salary(e) > 400
  check <s-formula>    e.g. check forall s: state, e': 2tup . e' in s:EMP -> salary(e') <= 1000
  :save <path>         write schema + current state as a checksummed snapshot
  :open <path>         load a snapshot (replaces the schema, resets history)
  :connect <addr>      attach to a txlog-serve instance (run/eval/ask/show go
                       over the wire; begin/commit/abort stage transactions)
  :begin [level]       (connected) open a transaction block, optionally at an
                       isolation level: read-committed | snapshot | serializable
  :disconnect          return to local mode
  :metrics             (connected) the server's metrics snapshot as JSON
  :subscribe <name> <pattern>
                       (connected) push event matches, e.g.
                       :subscribe fires delete(EMP, N, _, _, _, _)
  :unsubscribe <name>  (connected) drop a subscription
  :notifications [ms]  (connected) drain pushed matches, waiting up to ms
  :quit-server         (connected) ask the server to drain and shut down
  show | history | undo | quit";

fn main() {
    println!("txlog repl — a transaction logic for database specification");
    println!("type 'help' for commands, 'quit' to exit\n");
    let mut repl = Repl::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("txlog> ");
        stdout.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match repl.dispatch(line) {
            Ok(msg) if msg.is_empty() => {}
            Ok(msg) => println!("{msg}"),
            Err(e) => println!("error: {e}"),
        }
    }
}
