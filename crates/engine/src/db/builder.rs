//! The one place a [`Database`] is assembled.

use super::head::Head;
use super::{CommitConstraint, Database, IsolationLevel, RetryPolicy};
#[cfg(doc)]
use super::{CommitError, CommitTicket, Session, SessionOptions};
use crate::events::{EventHub, Materialized};
use crate::exec::{Engine, EvalOptions};
use crate::group::GroupCommitter;
use crate::wal::{self, Durability, FileStore, LogStore, RecoveryReport, Wal, WalError};
use std::path::Path;
use std::sync::{Arc, Mutex};
use txlog_base::obs::{Counter, Metrics};
use txlog_base::{TxError, TxResult};
#[cfg(doc)]
use txlog_events::Pattern;
use txlog_events::PatternDef;
use txlog_relational::{DbState, Delta, Schema};

/// Default bound on the group-commit submission queue
/// ([`DatabaseBuilder::log_queue_cap`]). Deep enough that overload only
/// fires when the log writer is genuinely stalled, shallow enough that
/// memory stays bounded when it is.
const DEFAULT_LOG_QUEUE_CAP: usize = 1024;

/// Configures a [`Database`]: initial state, evaluation options,
/// metrics, retry and isolation defaults, commit constraints, event
/// patterns, and [`Durability`]. Every database is assembled here;
/// [`Database::new`] and [`Database::with_initial`] are shorthands for
/// a builder with defaults.
///
/// ```no_run
/// # use txlog_engine::db::Database;
/// # use txlog_engine::wal::Durability;
/// # use txlog_relational::Schema;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::new().relation("EMP", &["name", "salary"])?;
/// let (db, report) = Database::builder(schema)
///     .durability(Durability::Wal { sync_every: 1, checkpoint_every: 256 })
///     .open_path("emp.wal")?;
/// assert_eq!(db.head_version(), report.version);
/// # Ok(())
/// # }
/// ```
pub struct DatabaseBuilder {
    schema: Schema,
    initial: Option<DbState>,
    opts: EvalOptions,
    metrics: Option<Metrics>,
    retry: RetryPolicy,
    default_isolation: IsolationLevel,
    durability: Durability,
    constraints: Vec<Box<dyn CommitConstraint>>,
    materialized: Vec<Materialized>,
    queue_cap: usize,
    manual_writer: bool,
}

/// Extend `state` with (empty) instances of any schema relations it
/// lacks — an explicit [`DatabaseBuilder::initial`] state predates the
/// system relations that [`DatabaseBuilder::event_pattern`] declares.
fn ensure_schema_relations(schema: &Schema, mut state: DbState) -> TxResult<DbState> {
    for d in schema.decls() {
        if state.relation(d.id).is_none() {
            state = state.with_relation(d.id, d.arity())?;
        }
    }
    Ok(state)
}

impl DatabaseBuilder {
    pub(super) fn new(schema: Schema) -> DatabaseBuilder {
        DatabaseBuilder {
            schema,
            initial: None,
            opts: EvalOptions::default(),
            metrics: None,
            retry: RetryPolicy::default(),
            default_isolation: IsolationLevel::default(),
            durability: Durability::Off,
            constraints: Vec::new(),
            materialized: Vec::new(),
            queue_cap: DEFAULT_LOG_QUEUE_CAP,
            manual_writer: false,
        }
    }

    /// Start from an explicit state instead of the schema's initial
    /// (empty) one. Ignored when `open_*` recovers state from a
    /// non-empty log.
    pub fn initial(mut self, state: DbState) -> DatabaseBuilder {
        self.initial = Some(state);
        self
    }

    /// Evaluation options for sessions.
    pub fn options(mut self, opts: EvalOptions) -> DatabaseBuilder {
        self.opts = opts;
        self
    }

    /// Observability sink (default: the process-global recorder).
    pub fn metrics(mut self, metrics: Metrics) -> DatabaseBuilder {
        self.metrics = Some(metrics);
        self
    }

    /// Default commit retry policy for sessions that do not set their
    /// own ([`SessionOptions::retry`]).
    pub fn default_retry(mut self, retry: RetryPolicy) -> DatabaseBuilder {
        self.retry = retry;
        self
    }

    /// Isolation level [`Database::session`] opens at (default:
    /// [`IsolationLevel::Snapshot`]). Sessions opened through
    /// [`Database::session_with`] choose their own level explicitly.
    pub fn default_isolation(mut self, level: IsolationLevel) -> DatabaseBuilder {
        self.default_isolation = level;
        self
    }

    /// Durability policy. [`Durability::Wal`] takes effect through
    /// [`open_path`](DatabaseBuilder::open_path) /
    /// [`open_store`](DatabaseBuilder::open_store);
    /// [`build`](DatabaseBuilder::build) is the in-memory path and
    /// requires [`Durability::Off`].
    pub fn durability(mut self, durability: Durability) -> DatabaseBuilder {
        self.durability = durability;
        self
    }

    /// Register a commit-time constraint. Checked against the head at
    /// construction — including a *recovered* head, which is how
    /// recovery verifies the log replay still satisfies every
    /// constraint.
    pub fn constraint(mut self, c: Box<dyn CommitConstraint>) -> DatabaseBuilder {
        self.constraints.push(c);
        self
    }

    /// Register a materialized event pattern
    /// ([`PatternDef::materialized`]): every commit whose delta
    /// completes matches also inserts their rows into the target
    /// relation, validated and logged with it. The relation is declared
    /// here — as a *system* relation, before any log is opened, which is
    /// what lets WAL recovery compare schemas. Patterns must not watch
    /// system relations (a materialization feeding an automaton would
    /// loop), and materialization columns must be variables every match
    /// certainly binds ([`Pattern::certain_vars`]).
    pub fn event_pattern(mut self, def: PatternDef) -> TxResult<DatabaseBuilder> {
        if self.materialized.iter().any(|m| m.name() == def.name) {
            return Err(TxError::schema(format!(
                "event pattern {} is already registered",
                def.name
            )));
        }
        let m = &def.materialize;
        let attrs: Vec<&str> = m.columns.iter().map(String::as_str).collect();
        self.schema.add_system_relation(&m.relation, &attrs)?;
        self.materialized
            .push(Materialized::compile(&def, &self.schema)?);
        Ok(self)
    }

    /// Bound on the group-commit submission queue: commits beyond it
    /// fail with [`CommitError::Overload`] instead of growing memory
    /// while the log writer is stalled. Values of 0 are treated as 1.
    pub fn log_queue_cap(mut self, cap: usize) -> DatabaseBuilder {
        self.queue_cap = cap.max(1);
        self
    }

    /// Do not spawn the dedicated log-writer thread: the caller drives
    /// the committer explicitly through
    /// [`Database::pump_log_writer`] (or, in the deterministic
    /// simulator, one micro-step at a time). A [`CommitTicket`] only
    /// resolves after the writer is pumped, so blocking commit calls
    /// ([`Session::commit`] and friends) would deadlock — use
    /// [`Session::submit_prepared`] in this mode.
    pub fn manual_log_writer(mut self) -> DatabaseBuilder {
        self.manual_writer = true;
        self
    }

    /// The state a database with no log to recover starts from.
    fn initial_state(&mut self) -> TxResult<DbState> {
        match self.initial.take() {
            Some(s) => ensure_schema_relations(&self.schema, s),
            None => Ok(self.schema.initial_state()),
        }
    }

    /// Build an in-memory database ([`Durability::Off`] only — opening a
    /// log needs a store, so WAL durability goes through the `open_*`
    /// methods).
    pub fn build(mut self) -> TxResult<Database> {
        if self.durability != Durability::Off {
            return Err(TxError::schema(
                "DatabaseBuilder::build is the in-memory path; use open_path or \
                 open_store to attach a write-ahead log",
            ));
        }
        let state = self.initial_state()?;
        self.assemble(state, 0, None, Vec::new())
            .map_err(|e| match e {
                WalError::Engine(e) => e,
                // with no log attached only engine validation can fail
                other => TxError::eval(other.to_string()),
            })
    }

    /// Open against the log file at `path` (created if absent):
    /// [`open_store`](DatabaseBuilder::open_store) over a [`FileStore`].
    pub fn open_path(self, path: impl AsRef<Path>) -> Result<(Database, RecoveryReport), WalError> {
        let store = FileStore::open(path)?;
        self.open_store(Box::new(store))
    }

    /// Open against an explicit [`LogStore`]. A non-empty store is
    /// recovered (torn tail truncated, latest checkpoint loaded, delta
    /// suffix replayed, constraints re-verified against the recovered
    /// head); an empty one is initialized with a version-0 checkpoint.
    /// With [`Durability::Off`] the store is only read — state is
    /// recovered but later commits are not logged.
    pub fn open_store(
        mut self,
        mut store: Box<dyn LogStore>,
    ) -> Result<(Database, RecoveryReport), WalError> {
        let metrics = self.metrics.get_or_insert_with(Metrics::current).clone();
        let recovered = {
            let _span = metrics.span("recover");
            wal::recover_log(&mut *store, &self.schema, &metrics)?
        };
        let (state, version, report, replayed) = match recovered {
            Some(r) => (r.state, r.version, r.report, r.replayed),
            None => {
                let report = RecoveryReport {
                    fresh: true,
                    ..RecoveryReport::default()
                };
                (self.initial_state()?, 0, report, Vec::new())
            }
        };
        let log = match self.durability {
            Durability::Off => None,
            Durability::Wal {
                sync_every,
                checkpoint_every,
            } => {
                let mut w = Wal::new(store, metrics);
                if report.fresh {
                    // pin the schema (and the chosen initial state) as
                    // the log's opening checkpoint
                    w.log_checkpoint(0, &self.schema, &state)?;
                    w.sync()?;
                }
                Some((w, sync_every, checkpoint_every))
            }
        };
        Ok((self.assemble(state, version, log, replayed)?, report))
    }

    /// The one assembly step [`build`](DatabaseBuilder::build) and
    /// [`open_store`](DatabaseBuilder::open_store) both end in: a head
    /// at `(state, version)`, the group-commit stage over `log` when
    /// there is one, then the constraints, each checked against the
    /// head. The materialized patterns replay the recovered commit
    /// suffix silently — its rows are already in the log — and the
    /// suffix seeds the history late subscriptions prime over. A
    /// partial match whose earlier half lies before the last checkpoint
    /// is not rebuilt: the checkpoint holds states, not the deltas the
    /// automaton would need.
    fn assemble(
        self,
        state: DbState,
        version: u64,
        log: Option<(Wal, u64, u64)>,
        replayed: Vec<(u64, Delta)>,
    ) -> Result<Database, WalError> {
        let metrics = self.metrics.unwrap_or_else(Metrics::current);
        // surfaces schema problems at construction, not first commit
        let builder = Engine::builder(&self.schema).metrics(metrics.clone());
        let tables = builder.build()?.tables;
        let mut materialized = self.materialized;
        for m in &mut materialized {
            for (_, delta) in &replayed {
                m.replay(delta);
            }
        }
        metrics.add(Counter::EvtPatterns, materialized.len() as u64);
        let since_checkpoint = replayed.len() as u64;
        let mut db = Database {
            schema: self.schema,
            tables,
            opts: self.opts,
            metrics,
            retry: self.retry,
            default_isolation: self.default_isolation,
            constraints: Vec::new(),
            max_window: 1,
            hook: None,
            committer: None,
            writer_thread: None,
            events: EventHub::new(!materialized.is_empty(), replayed),
            head: Mutex::new(Head::new(version, Arc::new(state), materialized)),
        };
        if let Some((wal, sync_every, checkpoint_every)) = log {
            let committer = Arc::new(GroupCommitter::new(
                wal,
                db.schema.clone(),
                sync_every,
                checkpoint_every,
                self.queue_cap,
                // resume the checkpoint cadence where the log left off,
                // and let the next cadence checkpoint snapshot the
                // recovered head
                since_checkpoint,
                Some((version, db.snapshot())),
                db.metrics.clone(),
            ));
            if !self.manual_writer {
                let c = Arc::clone(&committer);
                let thread = std::thread::Builder::new()
                    .name("txlog-wal-writer".to_string())
                    .spawn(move || c.run())
                    .map_err(|e| WalError::Io {
                        op: "spawn",
                        detail: format!("could not spawn the log-writer thread: {e}"),
                    })?;
                db.writer_thread = Some(thread);
            }
            db.committer = Some(committer);
        }
        for c in self.constraints {
            // add_constraint checks the constraint against the (possibly
            // recovered) head and rejects a violated base
            db.add_constraint(c)?;
        }
        Ok(db)
    }
}
