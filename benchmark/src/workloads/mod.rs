//! The seven workloads and the two ways each issues an operation.
//!
//! Untraced, an operation is the opaque public entry point with an
//! `Instant` on either side. Traced, the *same seeded op stream* runs
//! against an identically built database, but each operation goes
//! through the decomposed public calls the entry point makes, with a
//! span around every one; no engine file is edited. End-to-end numbers
//! always come from the untraced form.

use std::hint::black_box;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use txlog::engine::db::Prepared;
use txlog::events::Automaton;
use txlog::prelude::{
    parse_fformula, parse_fterm, Commit, CommitError, Database, DatabaseBuilder, DbState, Delta,
    Durability, Engine, Env, FFormula, FTerm, FileStore, Footprint, Metrics, ParseCtx, Server,
    ServerConfig, Session, Symbol, TxResult,
};
use txlog::relational::codec;
use txlog::server::frame::{decode_frame, encode_frame};
use txlog::server::{Request, Response, DEFAULT_MAX_FRAME_LEN};

use crate::observe::{ObservedStore, StoreStats};
use crate::round::{Ctx, Round};
use crate::spans;

mod constrained_commit;
mod emp;
mod event_fanout;
mod kv;
mod large_state_write;
mod mixed_rw;
mod recovery;
mod served_oltp;
mod snapshot_read;

/// Run one round of the named workload in this process.
pub fn run(name: &str, ctx: &Ctx) -> Round {
    match name {
        "served_oltp" => served_oltp::run(ctx),
        "constrained_commit" => constrained_commit::run(ctx),
        "large_state_write" => large_state_write::run(ctx),
        "snapshot_read" => snapshot_read::run(ctx),
        "mixed_rw" => mixed_rw::run(ctx),
        "event_fanout" => event_fanout::run(ctx),
        "recovery" => recovery::run(ctx),
        other => panic!("unknown workload {other}"),
    }
}

/// The op stream of a workload as text, one op per line — what "same
/// seed, byte-identical op stream" is checked on.
#[cfg(test)]
pub fn op_stream(name: &str, seed: u64, shrink: usize) -> String {
    match name {
        "served_oltp" => served_oltp::op_stream(seed, shrink),
        "constrained_commit" => constrained_commit::op_stream(seed, shrink),
        "large_state_write" => large_state_write::op_stream(seed, shrink),
        "snapshot_read" => snapshot_read::op_stream(seed, shrink),
        "mixed_rw" => mixed_rw::op_stream(seed, shrink),
        "event_fanout" => event_fanout::op_stream(seed, shrink),
        "recovery" => recovery::op_stream(seed, shrink),
        other => panic!("unknown workload {other}"),
    }
}

/// The first 5 % of each op stream runs untimed, so lazy secondary
/// indexes are built and connections are warm before anything counts.
pub fn warmup_of(ops: usize) -> usize {
    ops.div_ceil(20)
}

/// How often a client resubmits a commit the engine gave up on
/// (`RetriesExhausted`), as an application would.
pub const MAX_RESUBMITS: u32 = 5;

/// Conflicted attempts the decomposed commit makes before giving up —
/// the engine's default `RetryPolicy::max_retries`.
const MAX_RETRIES: u32 = 8;

pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Symbols interned so far: interning a never-seen name returns the
/// next index of the process-global, append-only interner.
fn symbol_mark(tag: &str) -> u32 {
    Symbol::new(&format!("txlog-benchmark-probe-{tag}")).index()
}

/// Warm-up is over: close `setup_s`, then start the span filter, the
/// symbol count and the measured-phase clock.
pub fn begin_measured(ctx: &Ctx, round: &mut Round) -> Measured {
    round.setup_s = ctx.started.elapsed().as_secs_f64();
    spans::measure_from_now();
    Measured {
        symbols: symbol_mark("start"),
        since: Instant::now(),
    }
}

pub struct Measured {
    symbols: u32,
    pub since: Instant,
}

impl Measured {
    /// Wall time of the measured phase so far, s.
    pub fn wall(&self) -> f64 {
        self.since.elapsed().as_secs_f64()
    }

    /// The measured phase is over: close the symbol count over `ops`
    /// operations.
    pub fn finish(self, round: &mut Round, ops: usize) {
        round.add("symbols", f64::from(symbol_mark("end") - self.symbols - 1));
        round.add("symbol_ops", ops as f64);
    }
}

/// The traced run's extra measurements *beside* each commit: the
/// committed delta re-applied onto a retained pin of its base state
/// (the copy a pinned snapshot forces), its codec encoding, and shadow
/// automata advanced over it. None of this is part of the operation.
#[derive(Default)]
pub struct Shadow {
    pub automata: Vec<Automaton>,
    /// Publish the `engine.submit` span as adopter, so constraint
    /// checks on validation worker threads attach to it. Only for a
    /// workload with a single committing thread.
    pub adopt: bool,
    commits: usize,
}

/// One commit in this many keeps a pin of its base state for the
/// re-apply. Not every commit: while the pin lives, the old state
/// cannot be freed inside the commit, where `Session::commit` frees it,
/// and a pinned commit comes out that much cheaper than a real one
/// (a third cheaper at 20 000 rows).
const PIN_EVERY: usize = 16;

impl Shadow {
    fn pins_next(&mut self) -> bool {
        self.commits += 1;
        self.commits % PIN_EVERY == 1
    }

    fn replay(&mut self, round: &mut Round, op: u32, base: Option<Arc<DbState>>, delta: &Delta) {
        if let Some(base) = base {
            let _span = spans::beside("relational.delta_apply", op);
            black_box(delta.apply(&base)).ok();
        }
        let bytes = {
            let _span = spans::beside("relational.delta_encode", op);
            codec::encode_delta(delta).len()
        };
        round.add("t.delta_bytes", bytes as f64);
        if !self.automata.is_empty() {
            let _span = spans::beside("events.advance", op);
            let matches: usize = self
                .automata
                .iter_mut()
                .map(|a| a.advance(delta).matches.len())
                .sum();
            round.add("t.matches", matches as f64);
        }
    }
}

/// A commit the decomposed steps installed, with what [`Shadow`]
/// replays beside it.
struct Installed {
    commit: Commit,
    /// The state the commit executed against, if it was asked to pin it.
    base: Option<Arc<DbState>>,
    prepared: Prepared,
}

/// The calls `Session::commit` makes, one span each, under whatever
/// span is open: footprint, execute at the pinned snapshot, submit
/// (validate, enqueue, install, dispatch), wait for the log. A
/// conflicted attempt re-pins and goes round again, as the engine's own
/// retry loop does.
fn commit_steps(
    session: &mut Session<'_>,
    label: &str,
    tx: &FTerm,
    shadow: &mut Shadow,
) -> Result<Installed, CommitError> {
    let env = Env::new();
    let (adopt, pin) = (shadow.adopt, shadow.pins_next());
    let mut retries = 0;
    loop {
        let base = pin.then(|| session.snapshot());
        {
            let _span = spans::span("engine.footprint");
            black_box(Footprint::of_program(black_box(tx)));
        }
        let prepared = {
            let _span = spans::span("engine.execute");
            session.prepare(tx, &env)?
        };
        let submitted = {
            let _span = spans::span("engine.submit");
            let _adoption = adopt.then(spans::adopt);
            session.submit_prepared(label, &prepared)
        };
        match submitted {
            Ok((commit, ticket)) => {
                let _span = spans::span("engine.log_wait");
                ticket.wait()?;
                return Ok(Installed {
                    commit: Commit { retries, ..commit },
                    base,
                    prepared,
                });
            }
            Err(CommitError::Conflict { .. }) if retries < MAX_RETRIES => {
                retries += 1;
                session.refresh();
            }
            Err(CommitError::Conflict { .. }) => {
                return Err(CommitError::RetriesExhausted {
                    attempts: retries + 1,
                })
            }
            Err(e) => return Err(e),
        }
    }
}

/// One commit through `session`; returns the outcome and its latency.
/// `shadow: None` is the untraced form.
pub fn commit(
    round: &mut Round,
    session: &mut Session<'_>,
    label: &str,
    tx: &FTerm,
    op: u32,
    shadow: Option<&mut Shadow>,
) -> (Result<Commit, CommitError>, u64) {
    let t = Instant::now();
    let Some(shadow) = shadow else {
        let result = session.commit(label, tx, &Env::new());
        return (result, ns_since(t));
    };
    let installed = {
        let _root = spans::op("op.commit", op);
        commit_steps(session, label, tx, shadow)
    };
    let ns = ns_since(t);
    let result = installed.map(|done| {
        shadow.replay(round, op, done.base, &done.prepared.execution().delta);
        done.commit
    });
    (result, ns)
}

/// What a connection owns on the server: its session and parse
/// context. The traced served workloads hold one per client thread and
/// walk a request through the calls `txlog-server` makes for it,
/// in-process — no socket, which is what `server.transport_us` is then
/// the remainder of.
pub struct Conn<'db> {
    db: &'db Database,
    session: Session<'db>,
    ctx: ParseCtx,
}

impl<'db> Conn<'db> {
    pub fn open(db: &'db Database) -> Conn<'db> {
        Conn {
            db,
            session: db.session(),
            ctx: ParseCtx::new(db.schema().decls().iter().map(|d| d.name)),
        }
    }

    /// Frame and unframe a message the way client and server do.
    fn over_the_wire<M>(
        round: &mut Round,
        encode: impl FnOnce() -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Result<M, String>,
    ) -> Result<M, String> {
        let frame = {
            let _span = spans::span("server.encode");
            encode_frame(&encode(), DEFAULT_MAX_FRAME_LEN).map_err(|e| e.to_string())?
        };
        round.add("t.wire_bytes", frame.len() as f64);
        let _span = spans::span("server.decode");
        match decode_frame(&frame, DEFAULT_MAX_FRAME_LEN) {
            Ok(Some((payload, _))) => decode(payload),
            Ok(None) => Err("a whole frame decoded as incomplete".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn request(round: &mut Round, req: &Request) -> Result<Request, String> {
        Conn::over_the_wire(
            round,
            || req.encode(),
            |payload| Request::decode(payload).map_err(|e| e.to_string()),
        )
    }

    fn response(round: &mut Round, resp: &Response) -> Result<Response, String> {
        Conn::over_the_wire(
            round,
            || resp.encode(),
            |payload| Response::decode(payload).map_err(|e| e.to_string()),
        )
    }

    /// `Client::execute`, decomposed.
    pub fn execute(
        &mut self,
        round: &mut Round,
        label: &str,
        program: &str,
        op: u32,
        shadow: &mut Shadow,
    ) -> (Result<Commit, String>, u64) {
        let t = Instant::now();
        let installed = {
            let _root = spans::op("op.commit", op);
            self.execute_steps(round, label, program, shadow)
        };
        let ns = ns_since(t);
        let result = installed.map(|done| {
            shadow.replay(round, op, done.base, &done.prepared.execution().delta);
            done.commit
        });
        (result, ns)
    }

    fn execute_steps(
        &mut self,
        round: &mut Round,
        label: &str,
        program: &str,
        shadow: &mut Shadow,
    ) -> Result<Installed, String> {
        let sent = Request::Execute {
            label: label.to_string(),
            program: program.to_string(),
        };
        let Request::Execute { label, program } = Conn::request(round, &sent)? else {
            return Err("an Execute decoded as another request".to_string());
        };
        round.add("t.parse_bytes", program.len() as f64);
        let tx = {
            let _span = spans::span("logic.parse");
            parse_fterm(&program, &self.ctx, &[]).map_err(|e| e.to_string())?
        };
        {
            let _span = spans::span("engine.snapshot");
            self.session.refresh();
        }
        let done =
            commit_steps(&mut self.session, &label, &tx, shadow).map_err(|e| e.to_string())?;
        let reply = Response::Executed {
            version: done.commit.version,
            retries: done.commit.retries,
            forwarded: done.commit.forwarded,
        };
        match Conn::response(round, &reply)? {
            Response::Executed { .. } => Ok(done),
            other => Err(format!("an Executed decoded as {other:?}")),
        }
    }

    /// `Client::ask`, decomposed.
    pub fn ask(
        &mut self,
        round: &mut Round,
        formula: &str,
        op: u32,
    ) -> (Result<bool, String>, u64) {
        let t = Instant::now();
        let _root = spans::op("op.read", op);
        let result = self.ask_steps(round, formula);
        (result, ns_since(t))
    }

    fn ask_steps(&mut self, round: &mut Round, formula: &str) -> Result<bool, String> {
        let sent = Request::Ask {
            formula: formula.to_string(),
        };
        let Request::Ask { formula } = Conn::request(round, &sent)? else {
            return Err("an Ask decoded as another request".to_string());
        };
        round.add("t.parse_bytes", formula.len() as f64);
        let p = {
            let _span = spans::span("logic.parse");
            parse_fformula(&formula, &self.ctx, &[]).map_err(|e| e.to_string())?
        };
        {
            let _span = spans::span("engine.snapshot");
            self.session.refresh();
        }
        let value = {
            let _span = spans::span("engine.eval");
            let engine = self.db.engine().map_err(|e| e.to_string())?;
            engine
                .eval_truth(self.session.state(), &p, &Env::new())
                .map_err(|e| e.to_string())?
        };
        match Conn::response(round, &Response::Truth { value })? {
            Response::Truth { value } => Ok(value),
            other => Err(format!("a Truth decoded as {other:?}")),
        }
    }
}

/// A database built the way `txlog-serve --wal` builds one: metrics
/// enabled, group-commit WAL (`sync_every: 8`, `checkpoint_every:
/// 1024`) over a `FileStore` in the round's scratch directory — here
/// behind an [`ObservedStore`], which counts (and, traced, times) what
/// reaches the log.
pub struct Shipped {
    pub db: Arc<Database>,
    pub log: Arc<StoreStats>,
}

pub const SHIPPED_WAL: Durability = Durability::Wal {
    sync_every: 8,
    checkpoint_every: 1024,
};

pub fn open_shipped(ctx: &Ctx, builder: DatabaseBuilder) -> Shipped {
    let file = FileStore::open(ctx.dir.join("wal.log")).expect("log file opens");
    let (store, log) = ObservedStore::new(file, ctx.traced).expect("log file stats");
    let (db, _) = builder
        .metrics(Metrics::enabled())
        .durability(SHIPPED_WAL)
        .open_store(Box::new(store))
        .expect("database opens");
    Shipped {
        db: Arc::new(db),
        log,
    }
}

/// Two workers: one per load connection, never scaled with `nproc`.
pub fn serve(db: &Arc<Database>) -> Server {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    Server::bind_with(Arc::clone(db), "127.0.0.1:0", config).expect("server binds")
}

/// Record what the log store saw (after the database has drained).
pub fn count_log(round: &mut Round, log: &StoreStats, acked: u64, traced: bool) {
    round.add("wal_bytes", log.bytes.load(Relaxed) as f64);
    round.add("acked", acked as f64);
    if traced {
        round.add(
            "t.wal.commit_records",
            log.commit_records.load(Relaxed) as f64,
        );
        round.add("t.wal.syncs", log.syncs.load(Relaxed) as f64);
        round.add(
            "t.wal.checkpoint_bytes",
            log.checkpoint_bytes.load(Relaxed) as f64,
        );
    }
}

/// One read: a fresh snapshot of the head, then `eval_truth` on it.
pub fn read(
    db: &Database,
    engine: &Engine<'_>,
    formula: &FFormula,
    op: u32,
    traced: bool,
) -> (TxResult<bool>, u64) {
    let env = Env::new();
    let t = Instant::now();
    let result = if traced {
        let _root = spans::op("op.read", op);
        let snapshot = {
            let _span = spans::span("engine.snapshot");
            db.snapshot()
        };
        let result = {
            let _span = spans::span("engine.eval");
            engine.eval_truth(&snapshot, formula, &env)
        };
        // frees the state if a writer has moved the head on meanwhile
        let _span = spans::span("relational.state_drop");
        drop(snapshot);
        result
    } else {
        let snapshot = db.snapshot();
        engine.eval_truth(&snapshot, formula, &env)
    };
    (result, ns_since(t))
}

/// `Ok(latency)` when a read answered `want`, the reason otherwise.
pub fn judge_read(result: TxResult<bool>, want: bool, ns: u64, what: &str) -> Result<u64, String> {
    match result {
        Ok(got) if got == want => Ok(ns),
        Ok(got) => Err(format!("{what}: answered {got}, expected {want}")),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::WORKLOADS;

    #[test]
    fn the_same_seed_gives_the_same_op_stream_and_another_seed_another() {
        for w in WORKLOADS {
            let a = super::op_stream(w.name, 42, 50);
            assert!(
                a.lines().count() >= 20,
                "{}: {} ops",
                w.name,
                a.lines().count()
            );
            assert_eq!(a, super::op_stream(w.name, 42, 50), "{}", w.name);
            assert_ne!(a, super::op_stream(w.name, 7, 50), "{}", w.name);
        }
    }
}
