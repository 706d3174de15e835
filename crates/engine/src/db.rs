//! Snapshot-isolated database sessions with optimistic parallel commits.
//!
//! The paper's states are immutable values related by transaction arcs,
//! which is exactly the shape multi-version concurrency wants: a
//! [`Database`] keeps a single committed *head* [`DbState`] behind a
//! mutex, readers share `Arc` snapshots of it without any coordination,
//! and writers go through an optimistic commit pipeline:
//!
//! 1. A [`Session`] executes a transaction against its snapshot with
//!    [`Engine::execute_traced`], producing an
//!    [`Execution`](crate::exec::Execution) — the candidate successor
//!    state plus the [`Delta`] of the run.
//! 2. [`Session::commit`] takes the head lock. If the head is still the
//!    session's snapshot, the candidate is validated and installed.
//! 3. If the head moved, the commit is *forwarded* when the
//!    transaction's static [`Footprint`] (every relation it can read or
//!    write) is disjoint from the composition of the concurrently
//!    committed deltas: the recorded delta — with freshly allocated
//!    tuple identities renumbered from the head's allocator via
//!    [`Delta::rebase_fresh`] — is applied directly to the head, no
//!    re-execution needed. Disjointness of the full footprint means the
//!    transaction would have read the same values and written the same
//!    changes at the moved head, so the forward is serializable.
//! 4. Otherwise the commit *conflicts*: the fused [`Session::commit`]
//!    re-executes against a fresh snapshot after a bounded exponential
//!    backoff, up to [`RetryPolicy::max_retries`] times, then surfaces
//!    [`CommitError::RetriesExhausted`]; a prepared or block commit
//!    makes one attempt and surfaces [`CommitError::Conflict`].
//!
//! However the candidate was chosen, one routine, `Database::stage`,
//! makes it the current state; nothing else calls `Head::install`. A
//! materialized event pattern's new rows join the candidate there,
//! before validation, so they commit with the change that caused them
//! (see [`crate::events`]).
//!
//! Constraint validation runs before installation, under the head lock
//! (commits serialize; readers never block). Each registered
//! [`CommitConstraint`] is first screened by its read set: a constraint
//! whose reads are disjoint from the commit's delta kept its verdict by
//! induction (the head always satisfies every registered constraint), so
//! only the affected ones are re-checked — inline on the committing
//! thread, in registration order. A violation aborts the commit with
//! [`CommitError::ConstraintViolation`] and leaves the head untouched.
//!
//! Durable databases commit through the *group-commit* stage (the
//! crate-private `group` module): the head lock section only validates, encodes the
//! commit record, enqueues it into a bounded submission queue, and
//! installs; a dedicated log-writer thread batches queued records, issues
//! one fsync per batch, and acknowledges every commit in the batch
//! together. [`Session::commit`] blocks on that acknowledgment (so no
//! fsync runs under the head lock, and concurrent sessions share
//! flushes); [`Session::submit_prepared`] returns the [`CommitTicket`]
//! unawaited for callers that pipeline their own commits.
//!
//! The whole pipeline reports into [`txlog_base::obs`]: commit
//! attempts/conflicts/retries counters, applied-vs-forwarded outcomes,
//! validation runs and read-set skips, a `commit.validate` span, and a
//! `commit.log_wait` span covering the wait for group ack.

mod builder;
mod error;
mod footprint;
mod head;
mod options;
mod session;
#[cfg(test)]
mod tests;

pub use builder::DatabaseBuilder;
pub use error::{CommitError, CommitTicket};
pub use footprint::Footprint;
pub use options::{IsolationLevel, RetryPolicy, SessionOptions};
pub use session::{Commit, Prepared, Session};

use crate::events::{self, EventCallback, EventHub, SubId};
use crate::exec::{Engine, EvalOptions, SchemaTables};
use crate::group::{GroupCommitter, WriterOp};
use crate::sim::{ProtocolBug, StepHook, StepPoint};
use crate::wal::Wal;
use head::Head;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use txlog_base::obs::{Counter, Metrics};
use txlog_base::{TxError, TxResult};
use txlog_events::Pattern;
use txlog_relational::{DbState, Delta, Schema};

/// An integrity constraint checkable at commit time.
///
/// The engine crate cannot name the constraints crate (the dependency
/// points the other way), so the commit pipeline validates through this
/// trait; `txlog_constraints::Checker` is the standard implementation,
/// an s-formula with its checkability window and read set.
pub trait CommitConstraint: Send + Sync {
    /// Diagnostic name, used in [`CommitError::ConstraintViolation`].
    fn name(&self) -> &str;

    /// Number of consecutive states (`>= 1`) a check needs to see: 1 for
    /// static constraints, 2 for single-transition constraints, etc.
    fn window_states(&self) -> usize;

    /// Whether a commit with this delta can change the constraint's
    /// verdict. Sound to over-approximate; returning `false` skips the
    /// check (the head satisfies every registered constraint by
    /// induction, so an unaffected verdict carries over).
    fn affected_by(&self, schema: &Schema, delta: &Delta) -> bool;

    /// Decide the constraint over a window of consecutive states,
    /// oldest first, where `labels[i]` names the transaction that
    /// produced `states[i + 1]`. The window holds at most
    /// [`window_states`](CommitConstraint::window_states) states (fewer
    /// near the start of history).
    fn check(&self, schema: &Schema, states: &[DbState], labels: &[&str]) -> TxResult<bool>;
}

/// Which of the two kinds of commit [`Database::stage`] is installing:
/// the kind decides the outcome counter.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CommitKind {
    /// A session's candidate, executed against the head it installs on.
    Direct,
    /// A session's delta rebased onto a head that moved disjointly.
    Forwarded,
}

/// A shared database: one committed head, any number of snapshot
/// readers, optimistic writers. Share it by reference across
/// `std::thread::scope` (or wrap it in an `Arc`); it is deliberately
/// not `Clone` — clones would be independent databases.
pub struct Database {
    schema: Schema,
    /// The engine tables of `schema`, built (and the schema thereby
    /// validated) once at assembly; [`Database::engine`] hands out
    /// views of them.
    tables: Arc<SchemaTables>,
    opts: EvalOptions,
    metrics: Metrics,
    /// Default retry policy for sessions that do not set their own
    /// ([`SessionOptions::retry`]).
    retry: RetryPolicy,
    /// Isolation level [`Database::session`] opens at
    /// ([`DatabaseBuilder::default_isolation`]).
    default_isolation: IsolationLevel,
    constraints: Vec<Box<dyn CommitConstraint>>,
    /// Largest constraint window, governing how many trailing states the
    /// head retains.
    max_window: usize,
    /// Simulation seam: when installed (model-checking builds only) the
    /// commit pipeline announces every decision point to it. `None` in
    /// normal operation, so the whole seam costs one branch per point.
    hook: Option<Arc<dyn StepHook>>,
    /// The group-commit stage, when durability is on. Submissions happen
    /// under the head lock (so the queue order is exactly commit order);
    /// draining, batching, and fsync happen off it.
    committer: Option<Arc<GroupCommitter>>,
    /// The dedicated log-writer thread, absent in
    /// [`DatabaseBuilder::manual_log_writer`] mode (the deterministic
    /// simulator pumps the committer itself).
    writer_thread: Option<JoinHandle<()>>,
    /// The notification stage: committed deltas are enqueued under the
    /// head lock and dispatched through the live subscriptions after it
    /// is released (see [`crate::events`]).
    events: EventHub,
    /// Reached only through [`Database::head`]. Holds the materialized
    /// patterns' automata too.
    head: Mutex<Head>,
}

impl Drop for Database {
    fn drop(&mut self) {
        if let Some(c) = &self.committer {
            c.shutdown();
            match self.writer_thread.take() {
                // the writer drains everything before honoring shutdown,
                // so joining it flushes all pending commits
                Some(t) => drop(t.join()),
                None => {
                    // manual mode: drain what we can, then make sure no
                    // ticket waits forever
                    c.pump_all();
                    c.fail_pending("database closed");
                }
            }
        }
    }
}

impl Database {
    /// A database over `schema`, starting from its initial (empty)
    /// state: [`Database::builder`] with every default.
    pub fn new(schema: Schema) -> TxResult<Database> {
        Database::builder(schema).build()
    }

    /// A database starting from an explicit state:
    /// [`Database::builder`] with [`DatabaseBuilder::initial`].
    pub fn with_initial(schema: Schema, initial: DbState) -> TxResult<Database> {
        Database::builder(schema).initial(initial).build()
    }

    /// Start configuring a database over `schema` — evaluation options,
    /// metrics, retry and isolation defaults, constraints, event
    /// patterns, durability.
    pub fn builder(schema: Schema) -> DatabaseBuilder {
        DatabaseBuilder::new(schema)
    }

    /// Lock the head — the one way to reach it. A poisoned lock is
    /// recovered, not propagated: the head is mutated only by
    /// `Head::install`, which runs after validation and cannot unwind,
    /// so a panic under the lock left the head consistent.
    fn head(&self) -> MutexGuard<'_, Head> {
        self.head.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Install a [`StepHook`]: every nondeterministic decision point in
    /// the commit/WAL pipeline is announced to it, which is how the
    /// deterministic simulator ([`crate::sim`]) schedules interleavings
    /// and injects faults. Also threads the hook into the write-ahead
    /// log, when one is attached. Without a hook the seam is a single
    /// `Option` branch per point (held no slower than a no-op hook by
    /// `model_check.rs`'s `disarmed_seam_commits_no_slower_than_a_noop_hook`).
    pub fn set_step_hook(&mut self, hook: Arc<dyn StepHook>) {
        if let Some(c) = &self.committer {
            c.set_hook(Arc::clone(&hook));
        }
        self.hook = Some(hook);
    }

    /// Announce a decision point to the installed hook, if any.
    #[inline]
    fn step(&self, point: StepPoint) {
        if let Some(h) = &self.hook {
            h.on_step(point);
        }
    }

    /// Whether the installed hook injects `bug` (model-checker
    /// self-tests only; always false without a hook).
    #[inline]
    fn bug(&self, bug: ProtocolBug) -> bool {
        match &self.hook {
            Some(h) => h.injected_bug() == Some(bug),
            None => false,
        }
    }

    /// Drain the group-commit queue to the log: run the log writer's
    /// micro-steps until it goes idle (every queued commit appended,
    /// fsynced, and acknowledged). A no-op without durability or with an
    /// already-idle writer. Only needed in
    /// [`DatabaseBuilder::manual_log_writer`] mode — with the dedicated
    /// writer thread the draining happens continuously.
    pub fn pump_log_writer(&self) {
        if let Some(c) = &self.committer {
            c.pump_all();
        }
    }

    /// Register a live event subscription: `pattern` is compiled into
    /// an incremental automaton advanced on every subsequent commit,
    /// and `callback` is invoked once per new match, in commit order,
    /// on the committing thread. The automaton is primed over the
    /// hub's retained history *silently*: matches completing at or
    /// after the subscription are delivered, matches wholly in the
    /// past are not. A callback that panics is unsubscribed. Patterns
    /// that should materialize into relations are registered at build
    /// time instead ([`DatabaseBuilder::event_pattern`]).
    pub fn subscribe_pattern(
        &self,
        name: &str,
        pattern: &Pattern,
        callback: EventCallback,
    ) -> TxResult<SubId> {
        // The hub records history only while it has registrations; the
        // head's recent delta log fills the gap for a first subscriber.
        // Names are unique across the registry, materialized patterns
        // (fixed at build time) included.
        let primer: Vec<(u64, Delta)> = {
            let head = self.head();
            if head.materialized.iter().any(|m| m.name() == name) {
                return Err(TxError::schema(format!(
                    "event pattern {name} is already registered"
                )));
            }
            head.log.iter().cloned().collect()
        };
        self.events.subscribe(
            name,
            pattern,
            &self.schema,
            callback,
            &self.metrics,
            &primer,
        )
    }

    /// Drop a live subscription. Returns false for an unknown (or
    /// already-removed) id.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        self.events.unsubscribe(id)
    }

    /// The atomic section of every commit: make the candidate
    /// `(state, delta)` the current state, or fail leaving the head as
    /// it was. In order: refuse a delta that writes a system relation
    /// (only the engine writes those); step the materialized patterns on
    /// the delta and fold their new rows into the candidate; validate;
    /// encode the log record and submit it to the group committer, the
    /// last point of failure; install and absorb the patterns' steps; count;
    /// enqueue for notification — under the head lock, so queue order
    /// is commit order. Caller holds the lock and dispatches events
    /// after releasing it. The append and fsync run on the log-writer
    /// thread; the [`CommitTicket`] resolves when they have.
    fn stage(
        &self,
        head: &mut Head,
        label: &str,
        state: DbState,
        delta: Delta,
        kind: CommitKind,
    ) -> Result<(u64, Arc<DbState>, CommitTicket), CommitError> {
        let system = |id| self.schema.by_id(id).filter(|d| d.system);
        if let Some(d) = delta.touched().find_map(system) {
            let msg = format!("{} is a system relation: only the engine writes it", d.name);
            return Err(CommitError::Execution(TxError::eval(msg)));
        }
        let (state, delta, pending) = events::materialize(&head.materialized, state, delta)?;
        self.validate(head, &state, &delta, label)?;
        let version = head.version + 1;
        let state = Arc::new(state);
        let submitted = self.committer.as_ref().map(|c| {
            let payload = Wal::encode_commit(version, label, &delta, &state);
            c.submit(version, payload, Arc::clone(&state))
        });
        let slot = submitted.transpose().map_err(error::submit_error)?;
        let evt = self.events.is_active().then(|| delta.clone());
        self.step(StepPoint::Install);
        head.install(label, Arc::clone(&state), delta, self.max_window);
        events::absorb(&mut head.materialized, pending, &self.metrics);
        self.metrics.bump(match kind {
            CommitKind::Direct => Counter::CommitsApplied,
            CommitKind::Forwarded => Counter::CommitsForwarded,
        });
        if let Some(d) = evt {
            self.events.enqueue(version, d);
        }
        let ticket = CommitTicket {
            slot,
            metrics: self.metrics.clone(),
        };
        Ok((version, state, ticket))
    }

    /// The group-commit stage, for the deterministic simulator (which
    /// schedules the log writer as an actor via
    /// [`GroupCommitter::next_op`] / [`GroupCommitter::micro_step`]).
    pub(crate) fn group_committer(&self) -> Option<&Arc<GroupCommitter>> {
        self.committer.as_ref()
    }

    /// The log writer's next store operation, if it has work
    /// (simulation seam).
    pub(crate) fn writer_next_op(&self) -> Option<WriterOp> {
        self.committer.as_ref().and_then(|c| c.next_op())
    }

    /// Perform one log-writer micro-step (simulation seam). Returns
    /// false when the writer was idle.
    pub(crate) fn writer_micro_step(&self) -> bool {
        self.committer.as_ref().is_some_and(|c| c.micro_step())
    }

    /// Register a commit-time constraint. The current head must satisfy
    /// it — that is the induction base that lets later commits skip
    /// validation of read-set-disjoint constraints — so the constraint
    /// is checked against the retained history first and rejected if it
    /// does not hold.
    pub fn add_constraint(&mut self, c: Box<dyn CommitConstraint>) -> TxResult<()> {
        let k = c.window_states().max(1);
        let holds = {
            let head = self.head();
            self.check(&*c, &head.window(k, None))?
        };
        if !holds {
            return Err(TxError::eval(format!(
                "constraint {} does not hold at the current head; a database \
                 only accepts constraints its committed state satisfies",
                c.name()
            )));
        }
        self.max_window = self.max_window.max(k);
        self.constraints.push(c);
        Ok(())
    }

    /// The schema this database evolves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The observability sink the pipeline reports into.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// An engine configured like this database's sessions — the reader
    /// side: evaluate queries against any [`Database::snapshot`] without
    /// touching the head lock again.
    pub fn engine(&self) -> TxResult<Engine<'_>> {
        let (tables, metrics) = (Arc::clone(&self.tables), self.metrics.clone());
        Ok(Engine::view(&self.schema, tables, self.opts, metrics))
    }

    /// An `Arc` share of the committed head state. Readers hold it as
    /// long as they like; commits never mutate shared states.
    pub fn snapshot(&self) -> Arc<DbState> {
        Arc::clone(&self.head().state)
    }

    /// The committed head version (0 = initial state).
    pub fn head_version(&self) -> u64 {
        self.head().version
    }

    /// The isolation level [`Database::session`] opens at.
    pub fn default_isolation(&self) -> IsolationLevel {
        self.default_isolation
    }

    /// Open a session at the database's default isolation level
    /// ([`DatabaseBuilder::default_isolation`]; snapshot unless
    /// configured otherwise), pinned to the current head.
    pub fn session(&self) -> Session<'_> {
        self.session_with(SessionOptions::new().isolation(self.default_isolation))
    }

    /// Open a session with explicit [`SessionOptions`], pinned to the
    /// current head.
    ///
    /// A [`ReadCommitted`](IsolationLevel::ReadCommitted) request is
    /// *escalated* to [`Snapshot`](IsolationLevel::Snapshot) when the
    /// database carries any registered constraint with a checkability
    /// window of two or more states: transition constraints are judged
    /// against a stable pre-state, and statement-boundary re-pinning is
    /// exactly what makes the pre-state unstable. The escalation is
    /// observable as the `sessions_escalated` counter.
    pub fn session_with(&self, opts: SessionOptions) -> Session<'_> {
        let mut opts = opts;
        if opts.isolation == IsolationLevel::ReadCommitted && self.max_window >= 2 {
            opts.isolation = IsolationLevel::Snapshot;
            self.metrics.bump(Counter::SessionsEscalated);
        }
        self.metrics.bump(match opts.isolation {
            IsolationLevel::ReadCommitted => Counter::SessionsReadCommitted,
            IsolationLevel::Snapshot => Counter::SessionsSnapshot,
            IsolationLevel::Serializable => Counter::SessionsSerializable,
        });
        Session::open(self, opts)
    }

    /// Decide one constraint over a window. Checks are caller code
    /// running under the head lock, so a panic in one is caught and
    /// reported as an error naming the constraint.
    fn check(
        &self,
        c: &dyn CommitConstraint,
        (states, labels): &(Vec<DbState>, Vec<&str>),
    ) -> TxResult<bool> {
        let checked = catch_unwind(AssertUnwindSafe(|| c.check(&self.schema, states, labels)));
        checked.unwrap_or_else(|_| {
            let name = c.name();
            Err(TxError::eval(format!(
                "constraint {name} panicked during validation"
            )))
        })
    }

    /// Validate a candidate commit against the registered constraints:
    /// every affected one is checked on this thread, in registration
    /// order — all of them even past a failure, so each constraint sees
    /// every commit that reaches it. Caller holds the head lock.
    fn validate(
        &self,
        head: &Head,
        candidate: &DbState,
        delta: &Delta,
        label: &str,
    ) -> Result<(), CommitError> {
        let affected: Vec<&dyn CommitConstraint> = self
            .constraints
            .iter()
            .map(|c| &**c)
            .filter(|c| {
                let hit = c.affected_by(&self.schema, delta);
                if !hit {
                    self.metrics.bump(Counter::CommitValidationSkips);
                }
                hit
            })
            .collect();
        if affected.is_empty() {
            return Ok(());
        }
        self.step(StepPoint::Validate);
        let _span = self.metrics.span("commit.validate");
        self.metrics
            .add(Counter::CommitValidations, affected.len() as u64);
        // Each constraint's window: trailing committed states plus the
        // candidate, with the commit label closing it.
        let verdicts: Vec<TxResult<bool>> = affected
            .iter()
            .map(|c| {
                let prior = c.window_states().max(1) - 1;
                self.check(*c, &head.window(prior, Some((candidate, label))))
            })
            .collect();
        // report the first failure in registration order
        for (c, verdict) in affected.iter().zip(verdicts) {
            match verdict {
                Ok(true) => {}
                Ok(false) => {
                    return Err(CommitError::ConstraintViolation {
                        constraint: c.name().to_string(),
                    })
                }
                Err(e) => return Err(CommitError::Execution(e)),
            }
        }
        Ok(())
    }
}
