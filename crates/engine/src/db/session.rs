//! Sessions, transaction blocks, and the optimistic commit attempt.

use super::{
    CommitError, CommitKind, CommitTicket, Database, Footprint, IsolationLevel, SessionOptions,
};
#[cfg(doc)]
use super::{DatabaseBuilder, RetryPolicy};
use crate::env::Env;
use crate::exec::{Engine, Execution};
use crate::sim::{ProtocolBug, StepPoint};
use crate::value::Value;
use std::sync::Arc;
use txlog_base::obs::Counter;
use txlog_base::{TxError, TxResult};
use txlog_logic::{FFormula, FTerm};
use txlog_relational::{DbState, Delta};

/// Receipt for a successfully installed commit.
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    /// The head version this commit produced (versions start at 0 for
    /// the initial state and increase by 1 per commit).
    pub version: u64,
    /// Conflicted attempts before success; only [`Session::commit`] retries.
    pub retries: u32,
    /// True when the commit installed by forwarding its delta onto a
    /// moved head instead of re-executing.
    pub forwarded: bool,
}

/// An execution paired with the transaction's static footprint:
/// everything a single commit attempt needs, produced by
/// [`Session::prepare`] (or accumulated by [`Session::stage`]).
///
/// [`Session::commit`] fuses execute-and-attempt into one call (with
/// internal retries); this decomposed form exists so the deterministic
/// simulator ([`crate::sim`]) can schedule the execute step and the
/// attempt step independently — which is exactly the freedom real
/// threads have, since execution runs outside the head lock against an
/// immutable snapshot.
pub struct Prepared {
    execution: Execution,
    footprint: Footprint,
}

impl Prepared {
    /// The candidate successor state and delta.
    pub fn execution(&self) -> &Execution {
        &self.execution
    }
}

/// The statements staged since [`Session::begin`], folded into one.
struct Block {
    staged: Prepared,
    /// How many statements are staged.
    len: u32,
}

/// Why a single commit attempt did not install — either a retryable
/// conflict (with the fresh head to re-pin to) or a fatal error.
enum AttemptError {
    Conflicted {
        head_version: u64,
        fresh: Arc<DbState>,
    },
    Fatal(CommitError),
}

const NO_BLOCK: &str = "no transaction block is open";

/// A snapshot-pinned view of a [`Database`]: read freely, then commit
/// optimistically. Cheap to open; hold one per writer.
///
/// The session's [`IsolationLevel`] (fixed at open by
/// [`Database::session_with`]) governs what "pinned" means: snapshot
/// and serializable sessions keep one snapshot until a commit or
/// [`refresh`](Session::refresh) moves it; read-committed sessions
/// re-pin to the head at every statement boundary. Serializable
/// sessions additionally accumulate the static read footprint of every
/// statement and certify it at commit time.
///
/// A *transaction block* is one transaction over several calls: it pins
/// once at [`begin`](Session::begin), executes each staged statement once
/// on that pin plus the statements before it, reads the staged state, and
/// commits in one attempt, never re-executed; a refused block is closed.
pub struct Session<'db> {
    db: &'db Database,
    base_version: u64,
    base: Arc<DbState>,
    /// The head version the accumulated read set is valid from: reads
    /// taken since this version are certified against everything
    /// committed after it (Serializable only).
    reads_since: u64,
    /// Union of the read footprints of every statement this session ran
    /// since `reads_since` (Serializable only; stays empty elsewhere).
    read_fp: Footprint,
    opts: SessionOptions,
    /// The open transaction block, built on `base`: moving the pin closes it.
    block: Option<Block>,
}

impl<'db> Session<'db> {
    /// Pin a new session to the current head
    /// ([`Database::session_with`] has already settled `opts`).
    pub(super) fn open(db: &'db Database, opts: SessionOptions) -> Session<'db> {
        db.step(StepPoint::Pin);
        let head = db.head();
        Session {
            db,
            base_version: head.version,
            base: Arc::clone(&head.state),
            reads_since: head.version,
            read_fp: Footprint::empty(),
            opts,
            block: None,
        }
    }

    /// The state this session reads: the pinned snapshot, with an open
    /// block's staged statements applied.
    pub fn state(&self) -> &DbState {
        self.block
            .as_ref()
            .map_or(&self.base, |b| &b.staged.execution.state)
    }

    /// An `Arc` share of the pinned snapshot (outlives the session).
    pub fn snapshot(&self) -> Arc<DbState> {
        Arc::clone(&self.base)
    }

    /// The head version the snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.base_version
    }

    /// The isolation level this session runs under (after any
    /// constraint-window escalation — see [`Database::session_with`]).
    pub fn isolation(&self) -> IsolationLevel {
        self.opts.isolation
    }

    /// Re-pin the session to the current committed head, closing any
    /// block. Also discards the accumulated read set of a serializable
    /// session — the reads are re-taken against the fresh snapshot.
    pub fn refresh(&mut self) {
        self.db.step(StepPoint::Pin);
        let head = self.db.head();
        let (version, state) = (head.version, Arc::clone(&head.state));
        drop(head);
        self.pin(version, state);
        self.reads_since = version;
        self.read_fp = Footprint::empty();
    }

    /// Move the snapshot, closing any block built on the old one.
    fn pin(&mut self, version: u64, state: Arc<DbState>) {
        self.base_version = version;
        self.base = state;
        self.block = None;
    }

    /// A statement boundary: read-committed sessions re-pin to the
    /// current head here (outside a block); everyone else keeps theirs.
    fn pin_statement(&mut self) {
        if self.opts.isolation == IsolationLevel::ReadCommitted && self.block.is_none() {
            self.refresh();
        }
    }

    /// Record a statement's read footprint for commit-time
    /// certification; only serializable sessions certify, or build `reads`.
    fn record_reads(&mut self, reads: impl FnOnce() -> Footprint) {
        if self.opts.isolation == IsolationLevel::Serializable {
            self.read_fp.merge(&reads());
        }
    }

    /// The commit label with the session's configured prefix applied.
    fn full_label<'a>(&self, label: &'a str) -> std::borrow::Cow<'a, str> {
        match &self.opts.label_prefix {
            Some(p) => std::borrow::Cow::Owned(format!("{p}{label}")),
            None => std::borrow::Cow::Borrowed(label),
        }
    }

    /// Evaluate a truth-valued formula against [`Session::state`] — a
    /// statement boundary, with the formula's footprint recorded as
    /// reads under [`IsolationLevel::Serializable`].
    pub fn ask(&mut self, p: &FFormula, env: &Env) -> TxResult<bool> {
        self.pin_statement();
        self.record_reads(|| Footprint::of_formula(p));
        self.db.engine()?.eval_truth(self.state(), p, env)
    }

    /// Evaluate an object-valued term against [`Session::state`] — a
    /// statement boundary, like [`Session::ask`].
    pub fn query(&mut self, q: &FTerm, env: &Env) -> TxResult<Value> {
        self.pin_statement();
        self.record_reads(|| Footprint::of_program(q).as_reads());
        self.db.engine()?.eval_obj(self.state(), q, env)
    }

    /// Execute against the pinned snapshot and package the result with
    /// the transaction's footprint, ready for
    /// [`Session::commit_prepared`]. A statement boundary, like
    /// [`Session::ask`].
    pub fn prepare(&mut self, tx: &FTerm, env: &Env) -> TxResult<Prepared> {
        self.pin_statement();
        self.run(&self.db.engine()?, tx, env, true)
    }

    /// The execute half of a commit attempt, shared by
    /// [`Session::prepare`] and the fused retry loop: analyze the
    /// program, announce the step, run it against the pinned snapshot
    /// (outside the head lock).
    ///
    /// `observable` is the one deliberate difference. `prepare` hands
    /// the [`Execution`] to its caller, who has then observed state
    /// derived from everything the program touched, so a serializable
    /// session records the whole footprint as reads. The fused `commit`
    /// shows it to nobody and records nothing, which keeps a stale
    /// overlapping fused commit a retryable [`CommitError::Conflict`]
    /// rather than a fatal [`CommitError::SerializationFailure`].
    fn run(
        &mut self,
        engine: &Engine<'_>,
        tx: &FTerm,
        env: &Env,
        observable: bool,
    ) -> TxResult<Prepared> {
        let footprint = Footprint::of_program(tx);
        if observable {
            self.record_reads(|| footprint.as_reads());
        }
        self.db.step(StepPoint::Execute);
        let execution = engine.execute_traced(&self.base, tx, env)?;
        Ok(Prepared {
            execution,
            footprint,
        })
    }

    /// Open a transaction block on a fresh pin (closing any open one).
    pub fn begin(&mut self) {
        self.refresh();
        let execution = Execution {
            state: (*self.base).clone(),
            delta: Delta::empty(),
        };
        let staged = Prepared {
            execution,
            footprint: Footprint::empty(),
        };
        self.block = Some(Block { staged, len: 0 });
    }

    /// The open block's accumulated execution and footprint — what
    /// [`Session::submit_block`] would submit. `None` outside a block.
    pub fn staged(&self) -> Option<&Prepared> {
        self.block.as_ref().map(|b| &b.staged)
    }

    /// Execute a statement once against [`Session::state`] and fold it
    /// into the open block, its footprint recorded as reads like
    /// [`Session::prepare`]'s. Returns the block's statement count.
    pub fn stage(&mut self, tx: &FTerm, env: &Env) -> TxResult<u32> {
        if self.block.is_none() {
            return Err(TxError::eval(NO_BLOCK));
        }
        let engine = self.db.engine()?;
        let footprint = Footprint::of_program(tx);
        self.record_reads(|| footprint.as_reads());
        self.db.step(StepPoint::Execute);
        let block = self.block.as_mut().expect("a block is open");
        let staged = &mut block.staged;
        let next = engine.execute_traced(&staged.execution.state, tx, env)?;
        staged.execution.delta = staged.execution.delta.compose(&next.delta);
        staged.execution.state = next.state;
        staged.footprint.merge(&footprint);
        block.len += 1;
        Ok(block.len)
    }

    /// Discard the open block; returns its statement count, if any.
    pub fn abort(&mut self) -> Option<u32> {
        self.block.take().map(|b| b.len)
    }

    /// Submit the open block through [`Session::submit_prepared`]: one
    /// attempt, no re-execution. The block closes whatever the outcome.
    pub fn submit_block(&mut self, label: &str) -> Result<(Commit, CommitTicket), CommitError> {
        let Some(block) = self.block.take() else {
            return Err(CommitError::Execution(TxError::eval(NO_BLOCK)));
        };
        self.submit_prepared(label, &block.staged)
    }

    /// One commit attempt of a prepared execution: no internal retry and
    /// no re-execution. A moved head with an overlapping footprint
    /// surfaces as [`CommitError::Conflict`] and leaves the session on
    /// its snapshot — the caller decides whether to [`refresh`], re-
    /// [`prepare`] and attempt again, which is how the simulator turns
    /// the retry loop into individually scheduled steps.
    ///
    /// The prepared execution must have been produced against this
    /// session's current snapshot; attempting a stale one conflicts (or
    /// forwards, when provably disjoint) exactly as a stale `commit`
    /// would.
    ///
    /// [`refresh`]: Session::refresh
    /// [`prepare`]: Session::prepare
    pub fn commit_prepared(
        &mut self,
        label: &str,
        prepared: &Prepared,
    ) -> Result<Commit, CommitError> {
        let (commit, ticket) = self.submit_prepared(label, prepared)?;
        ticket.wait()?;
        Ok(commit)
    }

    /// Like [`Session::commit_prepared`] but *without* waiting for the
    /// group fsync: on success the commit is installed (the session is
    /// re-pinned to it) and the returned [`CommitTicket`] resolves once
    /// the log writer acknowledges its batch. Submitting several commits
    /// before waiting on their tickets is how a single session fills a
    /// batch; with [`DatabaseBuilder::manual_log_writer`] this is the
    /// only commit call that cannot deadlock.
    pub fn submit_prepared(
        &mut self,
        label: &str,
        prepared: &Prepared,
    ) -> Result<(Commit, CommitTicket), CommitError> {
        self.db.metrics.bump(Counter::CommitAttempts);
        let label = self.full_label(label).into_owned();
        match self.attempt(&label, prepared.execution.clone(), &prepared.footprint, 0) {
            Ok(r) => Ok(r),
            Err(AttemptError::Fatal(e)) => Err(e),
            Err(AttemptError::Conflicted { head_version, .. }) => {
                Err(CommitError::Conflict { head_version })
            }
        }
    }

    /// Execute and commit, retrying conflicted attempts per the
    /// database's [`RetryPolicy`]. On success the session is re-pinned
    /// to the new head.
    ///
    /// A *program-only* transaction: on conflict it re-executes at the
    /// head. A preceding [`Session::ask`] is outside it, except under
    /// serializable, where every statement since the pin is certified.
    /// A caller whose writes depend on its reads opens a block instead.
    pub fn commit(&mut self, label: &str, tx: &FTerm, env: &Env) -> Result<Commit, CommitError> {
        let db = self.db;
        let engine = db.engine()?;
        let label = self.full_label(label).into_owned();
        // a commit is itself a statement boundary for read-committed
        self.pin_statement();
        let policy = self.opts.retry.unwrap_or(db.retry);
        let mut retries = 0u32;
        loop {
            db.metrics.bump(Counter::CommitAttempts);
            let run = self.run(&engine, tx, env, false)?;
            match self.attempt(&label, run.execution, &run.footprint, retries) {
                Ok((commit, ticket)) => {
                    // block for the group ack outside the head lock; a
                    // durability failure here is fatal (the commit is
                    // installed but unacknowledged, the log poisoned)
                    ticket.wait()?;
                    return Ok(commit);
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Conflicted {
                    head_version,
                    fresh,
                }) => {
                    if retries >= policy.max_retries {
                        return Err(CommitError::RetriesExhausted {
                            attempts: retries + 1,
                        });
                    }
                    let delay = policy.delay(retries);
                    retries += 1;
                    db.metrics.bump(Counter::CommitRetries);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    self.pin(head_version, fresh);
                }
            }
        }
    }

    /// One commit attempt of an executed candidate — `commit`'s retry
    /// loop and `submit_prepared` both end here: lock the head, certify a
    /// serializable session's reads, choose the candidate (head
    /// unmoved: the execution as it is; moved but provably disjoint: its
    /// delta rebased onto the head; otherwise conflict), hand it to
    /// [`Database::stage`], unlock, dispatch events, re-pin.
    fn attempt(
        &mut self,
        label: &str,
        exec: Execution,
        footprint: &Footprint,
        retries: u32,
    ) -> Result<(Commit, CommitTicket), AttemptError> {
        let db = self.db;
        db.step(StepPoint::LockAcquire);
        let mut head = db.head();
        // SSI-style certification: a serializable session's accumulated
        // statement reads must not intersect anything committed since
        // they were taken. `reads_since` can trail `base_version` (a
        // conflict re-pin moves the snapshot but cannot re-take reads
        // the caller already observed), so this triggers even when the
        // head looks unmoved from the snapshot's point of view. A
        // too-short delta log cannot prove the reads unharmed, so it
        // fails the certification too.
        if self.opts.isolation == IsolationLevel::Serializable
            && self.read_fp.has_reads()
            && head.version > self.reads_since
        {
            let clean = match head.delta_since(self.reads_since) {
                Some(concurrent) => !self.read_fp.reads_overlap_delta(&db.schema, &concurrent),
                None => false,
            };
            if !clean {
                let head_version = head.version;
                drop(head);
                db.metrics.bump(Counter::CommitSerializationFailures);
                return Err(AttemptError::Fatal(CommitError::SerializationFailure {
                    head_version,
                }));
            }
        }
        let candidate = if head.version == self.base_version {
            Some((exec.state, exec.delta, CommitKind::Direct))
        } else {
            // head moved: forward if provably disjoint from what landed.
            // Read-committed only demands first-committer-wins on
            // write-write overlap; snapshot and serializable require the
            // whole program footprint (reads included) to be untouched.
            head.delta_since(self.base_version)
                .filter(|concurrent| {
                    let overlaps = match self.opts.isolation {
                        IsolationLevel::ReadCommitted => {
                            footprint.writes_overlap_delta(&db.schema, concurrent)
                        }
                        _ => footprint.overlaps_delta(&db.schema, concurrent),
                    };
                    !overlaps || db.bug(ProtocolBug::ValidateAgainstSnapshot)
                })
                .and_then(|_| {
                    // the *rebased* delta and state are what the head
                    // becomes, so they are what gets validated and logged
                    let rebased = exec
                        .delta
                        .rebase_fresh(self.base.next_tuple_id(), head.state.next_tuple_id());
                    let next = rebased.apply(&head.state).ok()?;
                    Some((next, rebased, CommitKind::Forwarded))
                })
        };
        let Some((state, delta, kind)) = candidate else {
            // conflict: surface the fresh head so the caller can re-pin
            db.metrics.bump(Counter::CommitConflicts);
            return Err(AttemptError::Conflicted {
                head_version: head.version,
                fresh: Arc::clone(&head.state),
            });
        };
        let (version, state, ticket) = db
            .stage(&mut head, label, state, delta, kind)
            .map_err(AttemptError::Fatal)?;
        drop(head);
        db.events.drain(&db.metrics);
        self.pin(version, state);
        self.reads_since = version;
        self.read_fp = Footprint::empty();
        let commit = Commit {
            version,
            retries,
            forwarded: kind == CommitKind::Forwarded,
        };
        Ok((commit, ticket))
    }
}
