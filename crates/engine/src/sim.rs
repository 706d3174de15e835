//! Deterministic-simulation model checking for the commit/WAL pipeline.
//!
//! The commit protocol ([`crate::db`]) and the write-ahead log
//! ([`crate::wal`]) are concurrent, failure-prone state machines; fixed
//! interleavings and byte-offset fault sweeps exercise chosen paths but
//! never *search* the space. This module turns every nondeterministic
//! decision the real system makes — which session runs next, whether a
//! WAL append or fsync fails — into a numbered step chosen by an
//! injected [`Chooser`], runs N scripted sessions *and the group-commit
//! log writer* against a real [`Database`] over a [`MemStore`], and
//! checks each execution against three oracles:
//!
//! 1. **Serializability** — the final head must be `value_eq` to a
//!    sequential replay of the committed transactions, in commit-version
//!    order or (failing that) *some* permutation of them.
//! 2. **Snapshot consistency** — every snapshot a session pins must be
//!    exactly the committed state of its version, and versions are
//!    gapless.
//! 3. **Durability** — after *every* step the store's bytes are treated
//!    as two crash images (the fsynced prefix, i.e. what a power loss
//!    keeps, and the full bytes, i.e. unsynced data that happened to
//!    survive): the WAL's `recover_log` must recover some commit-order
//!    prefix covering at least every *acknowledged* commit and at most
//!    every *installed* one — the versions in between are the in-doubt
//!    set a mid-batch crash legitimately truncates anywhere —
//!    byte-identical to the state the live run installed at that
//!    version.
//!
//! ## Why single-threaded steps cover the real interleavings
//!
//! Execution runs outside the head lock against an immutable `Arc`
//! snapshot, and a commit's head-side work (validate → enqueue →
//! install) is one atomic section under the head lock. The group-commit
//! log writer runs behind its own pump lock and touches the store one
//! operation at a time (append a record, fsync a batch, append a
//! checkpoint). The observable behavior of any real multi-threaded run
//! is therefore determined by the order of per-session macro-steps
//! (snapshot pinning, execution, the atomic submit, observing the ack)
//! interleaved with per-operation writer micro-steps — exactly the
//! space a single-threaded scheduler choosing between actors
//! enumerates. The writer is actor index `sessions.len()`, enabled
//! whenever it has an operation pending; a session blocked on its
//! commit ticket is enabled only once the writer has decided its fate.
//! No real threads are needed, so every run is perfectly reproducible
//! from its choice sequence.
//!
//! ## Schedules, seeds, and replay
//!
//! A *schedule* is the flat sequence of choices the run consumed.
//! [`explore_exhaustive`] enumerates all of them by depth-first prefix
//! extension (with an optional prefix-state dedup that prunes subtrees
//! whose simulation state was already expanded); [`explore_random`]
//! draws them from a seeded xorshift generator — same seed, same
//! schedule, byte for byte. A failing run reports its seed, its full
//! schedule, and a greedily minimized schedule; replay either with
//! [`run_seeded`] / [`run_with_schedule`].

use crate::db::{CommitError, CommitTicket, Database, IsolationLevel, Session, SessionOptions};
use crate::env::Env;
use crate::group::WriterOp;
use crate::wal::{recover_log, Durability, MemStore, WalError};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use txlog_base::obs::Metrics;
use txlog_base::{TxError, TxResult};
use txlog_logic::{FFormula, FTerm};
use txlog_relational::codec::{crc32, encode_db_state, fingerprint_db_state};
use txlog_relational::{DbState, Schema};

// ---------------------------------------------------------------------------
// The hook seam (implemented by the simulator, consulted by db.rs/wal.rs)
// ---------------------------------------------------------------------------

/// Which WAL record an append step carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordKind {
    /// A per-commit delta record.
    Commit,
    /// A full-state checkpoint record.
    Checkpoint,
}

/// A nondeterministic decision point in the commit/WAL pipeline. The
/// pipeline announces each to the installed [`StepHook`] as it happens.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepPoint {
    /// A session pinned (or re-pinned) its snapshot.
    Pin,
    /// A transaction is about to execute against a pinned snapshot.
    Execute,
    /// A commit attempt is about to take the head lock.
    LockAcquire,
    /// Constraint validation is about to run, under the head lock.
    Validate,
    /// The WAL is about to append a record.
    WalAppend(RecordKind),
    /// The WAL is about to flush the store.
    WalFsync,
    /// A validated (and, if durable, logged) commit is about to install.
    Install,
}

/// What the hook tells the pipeline to do at a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepAction {
    /// Carry on normally.
    Proceed,
    /// Fail the store operation (honored at [`StepPoint::WalAppend`] and
    /// [`StepPoint::WalFsync`]; ignored elsewhere).
    FailIo,
}

/// Outcome notifications the pipeline sends the hook after the fact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimEvent {
    /// A record of the given kind was appended to the store.
    WalAppended(RecordKind),
    /// The store flushed successfully.
    WalSynced,
    /// The group committer acknowledged every commit up to and including
    /// this version (their batch is durable and the waiters are filled).
    Acked(u64),
    /// The WAL poisoned itself (durable contents in doubt).
    WalPoisoned,
}

/// A deliberately wrong protocol variant, injectable only through a
/// [`StepHook`] — the checker's own regression suite: each bug must be
/// caught by an oracle within a bounded number of schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtocolBug {
    /// Conflict detection effectively validates against the session's
    /// snapshot instead of the moved head: overlapping concurrent deltas
    /// are forwarded as if disjoint — the classic lost update. Caught by
    /// the serializability oracle.
    ValidateAgainstSnapshot,
    /// Acknowledge a commit at install time, before the group fsync
    /// makes its batch durable — the exact ack-undurable window the
    /// staged pipeline exists to close. The simulator models it by
    /// skipping the await-ack phase and counting the commit as acked
    /// the moment it installs. Caught by the durability oracle.
    AckUndurableCommits,
}

/// The simulation seam [`Database::set_step_hook`] installs: the commit
/// and WAL pipelines announce every decision point and honor the
/// returned action. Absent a hook both pipelines pay one `Option`
/// branch per point (see `disarmed_seam_commits_no_slower_than_a_noop_hook`
/// in `tests/tests/model_check.rs`).
pub trait StepHook: Send + Sync {
    /// Announce a decision point; the return value tells the pipeline
    /// how to proceed.
    fn on_step(&self, point: StepPoint) -> StepAction;

    /// Report an outcome (default: ignored).
    fn on_event(&self, _event: SimEvent) {}

    /// The protocol bug this hook injects, if any (default: none).
    fn injected_bug(&self) -> Option<ProtocolBug> {
        None
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// One scripted step of a simulated session.
#[derive(Clone, Debug)]
pub enum SimStep {
    /// Commit a transaction: a block of one statement (begin, stage,
    /// submit).
    Tx(FTerm),
    /// A transaction block: [`Session::begin`], read `guard` in the
    /// block, stage `tx` only if the guard held, submit the block — the
    /// read-then-write shape that distinguishes snapshot isolation (the
    /// guard's reads are *not* in the committed program's footprint, so
    /// write-skew can slip through) from serializable (the block's reads
    /// are certified at commit).
    Guarded {
        /// Truth-valued formula evaluated on the pinned snapshot.
        guard: FFormula,
        /// Committed only when the guard evaluated to true.
        tx: FTerm,
    },
    /// Evaluate a formula through the session *without* committing
    /// anything. Under read-committed the session re-pins to the head
    /// first, so two `Read`s of the same formula can disagree — the
    /// non-repeatable-read anomaly the explorer counts.
    Read(FFormula),
}

/// One scripted session: steps executed in program order.
#[derive(Clone, Debug)]
pub struct SessionScript {
    /// Diagnostic name, used in commit labels.
    pub name: String,
    /// Isolation level the session opens with.
    pub isolation: IsolationLevel,
    /// The steps, executed one after the other.
    pub steps: Vec<SimStep>,
}

/// Durability of the simulated database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimDurability {
    /// In-memory only: the durability oracle is vacuous.
    Off,
    /// WAL over a [`MemStore`]; every step's store bytes are checked as
    /// a crash image.
    Wal {
        /// Maximum commits the log writer batches per fsync (see
        /// [`Durability::Wal`]).
        sync_every: u64,
        /// Checkpoint cadence (see [`Durability::Wal`]).
        checkpoint_every: u64,
        /// Make WAL append/fsync failures *schedulable*: at each writer
        /// append/fsync micro-step with fault budget remaining, the
        /// schedule chooses proceed / fail (at most one fault per run).
        explore_faults: bool,
    },
}

/// A simulated workload: schema, initial state, scripted sessions, and
/// the knobs bounding a run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Schema of the simulated database.
    pub schema: Schema,
    /// Starting state (default: the schema's initial state).
    pub initial: Option<DbState>,
    /// The scripted sessions.
    pub sessions: Vec<SessionScript>,
    /// Commit attempts allowed per transaction (≥ 1) before it aborts as
    /// retries-exhausted — the simulator's analogue of
    /// [`crate::db::RetryPolicy::max_retries`].
    pub max_attempts: u32,
    /// Durability mode.
    pub durability: SimDurability,
    /// Protocol bug to inject (checker self-tests only).
    pub bug: Option<ProtocolBug>,
    /// Hard bound on scheduler steps per run; exceeding it is an error
    /// (finite scripts terminate well below it).
    pub max_steps: usize,
}

impl SimConfig {
    /// A workload over `schema` with no sessions yet.
    pub fn new(schema: Schema) -> SimConfig {
        SimConfig {
            schema,
            initial: None,
            sessions: Vec::new(),
            max_attempts: 3,
            durability: SimDurability::Off,
            bug: None,
            max_steps: 10_000,
        }
    }

    /// Start from an explicit state.
    pub fn initial(mut self, state: DbState) -> SimConfig {
        self.initial = Some(state);
        self
    }

    /// Add a scripted session of plain transactions at the default
    /// (snapshot) isolation level.
    pub fn session(self, name: &str, txs: Vec<FTerm>) -> SimConfig {
        self.session_at(
            name,
            IsolationLevel::Snapshot,
            txs.into_iter().map(SimStep::Tx).collect(),
        )
    }

    /// Add a scripted session of arbitrary [`SimStep`]s at an explicit
    /// isolation level.
    pub fn session_at(
        mut self,
        name: &str,
        isolation: IsolationLevel,
        steps: Vec<SimStep>,
    ) -> SimConfig {
        self.sessions.push(SessionScript {
            name: name.to_string(),
            isolation,
            steps,
        });
        self
    }

    /// Set the per-transaction attempt budget.
    pub fn max_attempts(mut self, n: u32) -> SimConfig {
        self.max_attempts = n.max(1);
        self
    }

    /// Set the durability mode.
    pub fn durability(mut self, d: SimDurability) -> SimConfig {
        self.durability = d;
        self
    }

    /// Inject a protocol bug.
    pub fn bug(mut self, bug: ProtocolBug) -> SimConfig {
        self.bug = Some(bug);
        self
    }
}

// ---------------------------------------------------------------------------
// Choosers
// ---------------------------------------------------------------------------

/// What a [`Chooser`] decides at a decision point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Take alternative `i` (clamped to the available range).
    Take(usize),
    /// Stop the run here (prefix exploration).
    Halt,
}

/// The source of scheduling decisions for one run. Decision points with
/// a single alternative are *not* surfaced — schedules only record real
/// choices.
pub trait Chooser {
    /// Pick one of `alternatives` (≥ 2) options.
    fn choose(&mut self, alternatives: usize) -> Choice;
}

/// Replays a recorded schedule. Out-of-range choices clamp (keeps
/// minimization candidates runnable); past the end it either pads with
/// the first alternative or halts.
pub struct ReplaySchedule {
    choices: Vec<usize>,
    pos: usize,
    halt_when_exhausted: bool,
}

impl ReplaySchedule {
    /// Replay `choices`, then keep taking the first alternative.
    pub fn padded(choices: Vec<usize>) -> ReplaySchedule {
        ReplaySchedule {
            choices,
            pos: 0,
            halt_when_exhausted: false,
        }
    }

    /// Replay `choices`, then halt at the next decision point.
    pub fn prefix(choices: Vec<usize>) -> ReplaySchedule {
        ReplaySchedule {
            choices,
            pos: 0,
            halt_when_exhausted: true,
        }
    }
}

impl Chooser for ReplaySchedule {
    fn choose(&mut self, alternatives: usize) -> Choice {
        if self.pos < self.choices.len() {
            let c = self.choices[self.pos].min(alternatives - 1);
            self.pos += 1;
            Choice::Take(c)
        } else if self.halt_when_exhausted {
            Choice::Halt
        } else {
            Choice::Take(0)
        }
    }
}

/// Seeded pseudo-random chooser (splitmix64-initialized xorshift64*):
/// no global state, no clocks — the same seed always produces the same
/// schedule.
pub struct SeededChooser {
    state: u64,
}

impl SeededChooser {
    /// A chooser fully determined by `seed`.
    pub fn new(seed: u64) -> SeededChooser {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SeededChooser { state: z | 1 }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl Chooser for SeededChooser {
    fn choose(&mut self, alternatives: usize) -> Choice {
        Choice::Take((self.next() % alternatives as u64) as usize)
    }
}

// ---------------------------------------------------------------------------
// Traces and outcomes
// ---------------------------------------------------------------------------

/// A schedulable WAL fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The next commit-record append fails cleanly (no bytes written).
    Append,
    /// The next fsync fails (bytes written, durability in doubt).
    Fsync,
}

/// Why a scripted transaction aborted instead of committing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortKind {
    /// Every attempt in the budget conflicted.
    RetriesExhausted,
    /// Execution failed.
    Execution,
    /// A commit constraint rejected the candidate.
    Constraint,
    /// The submission queue was full (backpressure).
    Overload,
    /// The log writer failed the commit's batch; the commit installed
    /// but was never acknowledged.
    Durability,
    /// The WAL was poisoned by an earlier failure.
    Poisoned,
    /// A serializable session's read-set certification failed at
    /// commit: something committed after its reads were taken
    /// intersected them.
    Serialization,
}

/// One entry of a run's event trace (deterministic: replaying a
/// schedule reproduces the trace exactly).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// The pipeline passed a decision point on behalf of `session`.
    Step {
        /// Index of the session driving the pipeline.
        session: usize,
        /// The decision point.
        point: StepPoint,
    },
    /// The pipeline reported an outcome.
    Event {
        /// Index of the session driving the pipeline.
        session: usize,
        /// The outcome.
        event: SimEvent,
    },
    /// The schedule armed a WAL fault for the log writer's next store
    /// operation.
    FaultArmed {
        /// Actor index of the log writer (`sessions.len()`).
        session: usize,
        /// The armed fault.
        fault: FaultKind,
    },
    /// A scripted transaction committed.
    Committed {
        /// Session index.
        session: usize,
        /// Transaction index within the session's script.
        tx: usize,
        /// Head version the commit produced.
        version: u64,
        /// Whether it installed via delta forwarding.
        forwarded: bool,
    },
    /// A scripted transaction aborted.
    Aborted {
        /// Session index.
        session: usize,
        /// Transaction index within the session's script.
        tx: usize,
        /// Why.
        reason: AbortKind,
    },
    /// A [`SimStep::Read`] observed a truth value through its session.
    Read {
        /// Session index.
        session: usize,
        /// Step index within the session's script.
        tx: usize,
        /// The observed truth value.
        value: bool,
    },
    /// A [`SimStep::Guarded`] step's guard was false on the pinned
    /// snapshot: the step completed without committing its transaction.
    GuardSkipped {
        /// Session index.
        session: usize,
        /// Step index within the session's script.
        tx: usize,
    },
}

/// A committed transaction, as the run observed it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommittedTx {
    /// Head version the commit produced (gapless from 1).
    pub version: u64,
    /// Session index.
    pub session: usize,
    /// Transaction index within the session's script.
    pub tx: usize,
    /// Commit label.
    pub label: String,
    /// Whether it installed via delta forwarding.
    pub forwarded: bool,
}

/// An aborted transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbortedTx {
    /// Session index.
    pub session: usize,
    /// Transaction index within the session's script.
    pub tx: usize,
    /// Why.
    pub reason: AbortKind,
}

/// A crash image: the store's bytes after one step, with the commit
/// bookkeeping needed to judge what recovery must reproduce.
#[derive(Clone, Debug)]
pub struct CrashImage {
    /// The store's full contents at this step (fsynced prefix plus any
    /// appended-but-unsynced tail).
    pub bytes: Vec<u8>,
    /// Length of the fsynced prefix of `bytes` — what a power loss at
    /// this step is guaranteed to keep.
    pub synced_len: usize,
    /// Commits acknowledged (group fsync completed) when the image was
    /// taken.
    pub acked: u64,
    /// Commits installed at the head when the image was taken; versions
    /// in `acked+1 ..= installed` are the in-doubt set this image may
    /// truncate anywhere within.
    pub installed: u64,
    /// The version the fsynced prefix recovers to (computed by the
    /// durability oracle; 0 when nothing recovers).
    pub durable_version: u64,
}

/// Where a prefix run stopped.
#[derive(Clone, Copy, Debug)]
pub struct HaltInfo {
    /// Alternatives available at the halted decision point.
    pub alternatives: usize,
    /// Hash of the simulation state at the halt — equal keys mean equal
    /// futures (and equal future oracle verdicts), so subtrees can be
    /// deduplicated.
    pub state_key: u64,
}

/// Everything one simulated run produced.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The choices consumed, in order — the schedule.
    pub schedule: Vec<usize>,
    /// `(chosen, alternatives)` per decision point.
    pub decisions: Vec<(usize, usize)>,
    /// The deterministic event trace.
    pub trace: Vec<TraceEvent>,
    /// Committed (installed) transactions in version order. A commit
    /// whose *acknowledgment* failed (its batch was poisoned after
    /// install) appears both here and in `aborted` — it is part of the
    /// serializable history even though its session saw an error.
    pub committed: Vec<CommittedTx>,
    /// Aborted transactions.
    pub aborted: Vec<AbortedTx>,
    /// The starting state.
    pub base: DbState,
    /// The final head state.
    pub final_state: DbState,
    /// `states[v]` is the installed state at version `v` (0 = base).
    pub states: Vec<DbState>,
    /// Versions installed but never acknowledged when the run ended
    /// (`acked+1 ..= installed`) — the multi-commit in-doubt set a
    /// crash may or may not have made durable.
    pub in_doubt: Vec<u64>,
    /// Commits acknowledged (durably fsynced) when the run ended.
    pub acked: u64,
    /// Largest installed-minus-acked gap observed at any step — how
    /// many commits were simultaneously past the head but awaiting the
    /// group fsync.
    pub max_unacked_installed: u64,
    /// Crash images, one per step (durable runs only).
    pub images: Vec<CrashImage>,
    /// A violation found *during* the run (snapshot-consistency or
    /// durability oracles run incrementally; serializability runs after
    /// completion via [`check_oracles`]).
    pub violation: Option<Violation>,
    /// `Some` when the chooser halted the run (prefix exploration);
    /// `None` when the workload ran to completion.
    pub halted: Option<HaltInfo>,
    /// Whether the WAL ended the run poisoned.
    pub poisoned: bool,
    /// Times a [`SimStep::Read`] re-observed a formula its session had
    /// already read (with no intervening own commit) and saw a
    /// *different* truth value — the non-repeatable-read anomaly,
    /// reachable only under [`IsolationLevel::ReadCommitted`].
    pub nonrepeatable: u64,
}

/// An oracle violation — the model checker found a bug (or was asked to
/// find an injected one).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// No sequential permutation of the committed transactions produces
    /// the final state.
    NotSerializable {
        /// How many transactions committed.
        committed: usize,
        /// What was compared.
        detail: String,
    },
    /// A session pinned a snapshot that is not the committed state of
    /// its version.
    SnapshotInconsistent {
        /// The offending session.
        session: usize,
        /// The pinned version.
        version: u64,
    },
    /// Commit versions were not gapless.
    VersionGap {
        /// The version the gapless sequence required.
        expected: u64,
        /// The version observed.
        got: u64,
    },
    /// A crash image did not recover to a commit-order prefix of the
    /// acknowledged commits.
    Durability {
        /// Index of the offending crash image.
        image: usize,
        /// What recovery produced vs. what was required.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotSerializable { committed, detail } => write!(
                f,
                "not serializable: no sequential order of the {committed} committed \
                 transactions produces the final state ({detail})"
            ),
            Violation::SnapshotInconsistent { session, version } => write!(
                f,
                "snapshot inconsistency: session {session} pinned version {version} \
                 but observed a different state"
            ),
            Violation::VersionGap { expected, got } => {
                write!(f, "version gap: expected {expected}, got {got}")
            }
            Violation::Durability { image, detail } => {
                write!(f, "durability violation at crash image {image}: {detail}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The simulator hook
// ---------------------------------------------------------------------------

struct HookShared {
    current: usize,
    fault: Option<FaultKind>,
    acked_through: u64,
    poisoned: bool,
    trace: Vec<TraceEvent>,
}

/// The [`StepHook`] the simulator installs: records the trace, and
/// converts armed fault directives into [`StepAction::FailIo`] at the
/// matching WAL step.
struct SimHook {
    bug: Option<ProtocolBug>,
    shared: Mutex<HookShared>,
}

impl SimHook {
    fn new(bug: Option<ProtocolBug>) -> SimHook {
        SimHook {
            bug,
            shared: Mutex::new(HookShared {
                current: 0,
                fault: None,
                acked_through: 0,
                poisoned: false,
                trace: Vec::new(),
            }),
        }
    }

    fn set_current(&self, session: usize) {
        self.shared.lock().expect("sim hook lock").current = session;
    }

    fn arm(&self, fault: FaultKind) {
        let mut s = self.shared.lock().expect("sim hook lock");
        s.fault = Some(fault);
        let current = s.current;
        s.trace.push(TraceEvent::FaultArmed {
            session: current,
            fault,
        });
    }

    /// Highest version the group committer has acknowledged (every
    /// version ≤ it is durably fsynced and its waiter filled).
    fn acked_through(&self) -> u64 {
        self.shared.lock().expect("sim hook lock").acked_through
    }

    fn poisoned(&self) -> bool {
        self.shared.lock().expect("sim hook lock").poisoned
    }

    fn note(&self, event: TraceEvent) {
        self.shared.lock().expect("sim hook lock").trace.push(event);
    }

    fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.shared.lock().expect("sim hook lock").trace)
    }
}

impl StepHook for SimHook {
    fn on_step(&self, point: StepPoint) -> StepAction {
        let mut s = self.shared.lock().expect("sim hook lock");
        let current = s.current;
        s.trace.push(TraceEvent::Step {
            session: current,
            point,
        });
        match point {
            StepPoint::WalAppend(RecordKind::Commit) if s.fault == Some(FaultKind::Append) => {
                s.fault = None;
                StepAction::FailIo
            }
            StepPoint::WalFsync if s.fault == Some(FaultKind::Fsync) => {
                s.fault = None;
                StepAction::FailIo
            }
            _ => StepAction::Proceed,
        }
    }

    fn on_event(&self, event: SimEvent) {
        let mut s = self.shared.lock().expect("sim hook lock");
        match event {
            SimEvent::Acked(v) => s.acked_through = s.acked_through.max(v),
            SimEvent::WalPoisoned => s.poisoned = true,
            _ => {}
        }
        let current = s.current;
        s.trace.push(TraceEvent::Event {
            session: current,
            event,
        });
    }

    fn injected_bug(&self) -> Option<ProtocolBug> {
        self.bug
    }
}

// ---------------------------------------------------------------------------
// Running one schedule
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Pin,
    Guard,
    Stage,
    Submit,
    AwaitAck,
    Done,
}

struct Runner<'db> {
    session: Option<Session<'db>>,
    tx: usize,
    phase: Phase,
    attempts: u32,
    ticket: Option<CommitTicket>,
    /// Truth values this session observed per formula (rendered), since
    /// its last own commit — the non-repeatable-read detector's memory.
    obs: BTreeMap<String, bool>,
}

impl Runner<'_> {
    fn next_tx(&mut self, script_len: usize) {
        // a block whose guard failed or whose statement errored is done
        if let Some(s) = &mut self.session {
            s.abort();
        }
        self.tx += 1;
        self.attempts = 0;
        self.ticket = None;
        self.phase = if self.tx >= script_len {
            Phase::Done
        } else {
            Phase::Pin
        };
    }
}

fn build_db(cfg: &SimConfig) -> TxResult<(Database, Option<MemStore>)> {
    match cfg.durability {
        SimDurability::Off => {
            let initial = cfg
                .initial
                .clone()
                .unwrap_or_else(|| cfg.schema.initial_state());
            let db = Database::builder(cfg.schema.clone())
                .initial(initial)
                .metrics(Metrics::disabled())
                .build()?;
            Ok((db, None))
        }
        SimDurability::Wal {
            sync_every,
            checkpoint_every,
            ..
        } => {
            let store = MemStore::new();
            let mut b = Database::builder(cfg.schema.clone())
                .metrics(Metrics::disabled())
                .manual_log_writer()
                .durability(Durability::Wal {
                    sync_every,
                    checkpoint_every,
                });
            if let Some(s) = &cfg.initial {
                b = b.initial(s.clone());
            }
            let (db, _) = b
                .open_store(Box::new(store.clone()))
                .map_err(|e| TxError::eval(format!("sim: opening the WAL failed: {e}")))?;
            Ok((db, Some(store)))
        }
    }
}

/// Run one schedule to completion (or until the chooser halts). All
/// nondeterminism flows through `chooser`; the run is a pure function
/// of the configuration and the choices.
pub fn run_schedule(cfg: &SimConfig, chooser: &mut dyn Chooser) -> TxResult<SimOutcome> {
    let hook = Arc::new(SimHook::new(cfg.bug));
    let (mut db, store) = build_db(cfg)?;
    db.set_step_hook(Arc::<SimHook>::clone(&hook));
    let db = db;
    let env = Env::new();
    let explore_faults = match cfg.durability {
        SimDurability::Wal { explore_faults, .. } => explore_faults,
        SimDurability::Off => false,
    };
    let base = (*db.snapshot()).clone();
    let mut out = SimOutcome {
        schedule: Vec::new(),
        decisions: Vec::new(),
        trace: Vec::new(),
        committed: Vec::new(),
        aborted: Vec::new(),
        base: base.clone(),
        final_state: base.clone(),
        states: vec![base],
        in_doubt: Vec::new(),
        acked: 0,
        max_unacked_installed: 0,
        images: Vec::new(),
        violation: None,
        halted: None,
        poisoned: false,
        nonrepeatable: 0,
    };
    let mut runners: Vec<Runner<'_>> = cfg
        .sessions
        .iter()
        .map(|s| Runner {
            session: None,
            tx: 0,
            phase: if s.steps.is_empty() {
                Phase::Done
            } else {
                Phase::Pin
            },
            attempts: 0,
            ticket: None,
            obs: BTreeMap::new(),
        })
        .collect();
    // the log writer is the extra actor after the sessions
    let writer = cfg.sessions.len();
    // AckUndurableCommits claims commits acked the moment they install
    let mut claimed_acked: u64 = 0;
    let mut fault_budget: u32 = u32::from(store.is_some() && explore_faults);
    let mut steps: usize = 0;
    loop {
        // a poisoned WAL fails every further submission: abort the
        // not-yet-submitted remainder rather than exploring schedules of
        // guaranteed-failing attempts. Runners awaiting an ack are left
        // alone — they consume their (failed) tickets normally.
        if hook.poisoned() && !out.poisoned {
            out.poisoned = true;
            for (i, r) in runners.iter_mut().enumerate() {
                if matches!(r.phase, Phase::Pin | Phase::Stage | Phase::Submit) {
                    let reason = AbortKind::Poisoned;
                    out.aborted.push(AbortedTx {
                        session: i,
                        tx: r.tx,
                        reason,
                    });
                    hook.note(TraceEvent::Aborted {
                        session: i,
                        tx: r.tx,
                        reason,
                    });
                    r.phase = Phase::Done;
                }
            }
        }
        // enabled actors: the sessions (a runner awaiting its ack only
        // once the writer has decided its commit's fate), plus the log
        // writer whenever it has a store operation pending
        let mut enabled: Vec<usize> = runners
            .iter()
            .enumerate()
            .filter(|(_, r)| match r.phase {
                Phase::Done => false,
                Phase::AwaitAck => r.ticket.as_ref().is_some_and(CommitTicket::is_complete),
                _ => true,
            })
            .map(|(i, _)| i)
            .collect();
        if db.writer_next_op().is_some() {
            enabled.push(writer);
        }
        if enabled.is_empty() {
            break;
        }
        steps += 1;
        if steps > cfg.max_steps {
            return Err(TxError::eval(format!(
                "sim: run exceeded the {}-step bound",
                cfg.max_steps
            )));
        }
        // decision 1: which enabled actor advances
        let picked = match decide(chooser, &mut out, enabled.len()) {
            Some(k) => enabled[k],
            None => {
                out.halted = Some(HaltInfo {
                    alternatives: enabled.len(),
                    state_key: state_key(
                        &db,
                        &runners,
                        &out,
                        &store,
                        fault_budget,
                        None,
                        effective_acked(&hook, claimed_acked),
                    ),
                });
                break;
            }
        };
        hook.set_current(picked);
        if picked == writer {
            // decision 2: fail the writer's next store operation? (only
            // commit appends and batch fsyncs are faultable; checkpoint
            // appends fail only via `LogStore` errors, not the schedule)
            if fault_budget > 0 {
                let fault = match db.writer_next_op() {
                    Some(WriterOp::Append) => Some(FaultKind::Append),
                    Some(WriterOp::Sync) => Some(FaultKind::Fsync),
                    _ => None,
                };
                if let Some(fault) = fault {
                    match decide(chooser, &mut out, 2) {
                        Some(0) => {}
                        Some(1) => {
                            hook.arm(fault);
                            fault_budget -= 1;
                        }
                        Some(_) => unreachable!("decide clamps to the alternative count"),
                        None => {
                            out.halted = Some(HaltInfo {
                                alternatives: 2,
                                state_key: state_key(
                                    &db,
                                    &runners,
                                    &out,
                                    &store,
                                    fault_budget,
                                    Some(writer),
                                    effective_acked(&hook, claimed_acked),
                                ),
                            });
                            break;
                        }
                    }
                }
            }
            db.writer_micro_step();
        } else {
            advance(
                cfg,
                &db,
                &env,
                &mut runners,
                picked,
                &mut out,
                &hook,
                &mut claimed_acked,
            )?;
        }
        let installed = db.head_version();
        let acked = effective_acked(&hook, claimed_acked);
        out.max_unacked_installed = out
            .max_unacked_installed
            .max(installed.saturating_sub(acked));
        if let Some(st) = &store {
            record_image(cfg, &mut out, st, acked, installed);
        }
        if out.violation.is_some() {
            break;
        }
    }
    out.final_state = (*db.snapshot()).clone();
    out.poisoned = out.poisoned || hook.poisoned();
    out.acked = effective_acked(&hook, claimed_acked);
    out.in_doubt = (out.acked + 1..=db.head_version()).collect();
    out.trace = hook.take_trace();
    Ok(out)
}

/// The highest version the run claims acknowledged: what the group
/// committer actually acked or — under
/// [`ProtocolBug::AckUndurableCommits`] — what the buggy protocol
/// claimed at install time.
fn effective_acked(hook: &SimHook, claimed: u64) -> u64 {
    hook.acked_through().max(claimed)
}

/// Consult the chooser at a decision point with `n` alternatives,
/// recording real (n ≥ 2) decisions. `None` means halt.
fn decide(chooser: &mut dyn Chooser, out: &mut SimOutcome, n: usize) -> Option<usize> {
    if n <= 1 {
        return Some(0);
    }
    match chooser.choose(n) {
        Choice::Take(c) => {
            let c = c.min(n - 1);
            out.decisions.push((c, n));
            out.schedule.push(c);
            Some(c)
        }
        Choice::Halt => None,
    }
}

/// Advance one session by one macro-step.
#[allow(clippy::too_many_arguments)]
fn advance<'db>(
    cfg: &SimConfig,
    db: &'db Database,
    env: &Env,
    runners: &mut [Runner<'db>],
    i: usize,
    out: &mut SimOutcome,
    hook: &SimHook,
    claimed_acked: &mut u64,
) -> TxResult<()> {
    let script = &cfg.sessions[i];
    let r = &mut runners[i];
    // a standalone Read is one macro-step: it commits nothing, so the
    // pin/stage/submit machinery below never applies to it. The
    // session is *not* refreshed — only read-committed sessions re-pin
    // (inside `Session::ask`), which is exactly what makes the
    // non-repeatable-read anomaly level-dependent.
    if let SimStep::Read(p) = &script.steps[r.tx] {
        if r.session.is_none() {
            r.session = Some(db.session_with(SessionOptions::new().isolation(script.isolation)));
        }
        let sess = r.session.as_mut().expect("session just opened");
        match sess.ask(p, env) {
            Ok(value) => {
                let key = format!("{p:?}");
                if let Some(prev) = r.obs.insert(key, value) {
                    if prev != value {
                        out.nonrepeatable += 1;
                    }
                }
                hook.note(TraceEvent::Read {
                    session: i,
                    tx: r.tx,
                    value,
                });
                r.next_tx(script.steps.len());
            }
            Err(_) => {
                abort(r, i, AbortKind::Execution, script.steps.len(), out, hook);
            }
        }
        return Ok(());
    }
    // every scripted commit is a transaction block, as a served one is:
    // `begin` pins, a guard is a block read, the program is staged, and
    // the block is submitted
    match r.phase {
        Phase::Pin => {
            let sess = r.session.get_or_insert_with(|| {
                db.session_with(SessionOptions::new().isolation(script.isolation))
            });
            sess.begin();
            let v = sess.version();
            // snapshot-consistency oracle: the pinned snapshot must be
            // exactly the committed state of its version
            if (v as usize) >= out.states.len() {
                out.violation.get_or_insert(Violation::VersionGap {
                    expected: out.states.len() as u64,
                    got: v,
                });
            } else if !sess.state().content_eq(&out.states[v as usize]) {
                out.violation
                    .get_or_insert(Violation::SnapshotInconsistent {
                        session: i,
                        version: v,
                    });
            }
            r.phase = match &script.steps[r.tx] {
                SimStep::Guarded { .. } => Phase::Guard,
                _ => Phase::Stage,
            };
        }
        Phase::Guard => {
            let SimStep::Guarded { guard, .. } = &script.steps[r.tx] else {
                unreachable!("only guarded steps enter the guard phase")
            };
            let sess = r.session.as_mut().expect("pin precedes guard");
            match sess.ask(guard, env) {
                Ok(true) => r.phase = Phase::Stage,
                Ok(false) => {
                    hook.note(TraceEvent::GuardSkipped {
                        session: i,
                        tx: r.tx,
                    });
                    r.next_tx(script.steps.len());
                }
                Err(_) => {
                    abort(r, i, AbortKind::Execution, script.steps.len(), out, hook);
                }
            }
        }
        Phase::Stage => {
            let tx = match &script.steps[r.tx] {
                SimStep::Tx(t) => t,
                SimStep::Guarded { tx, .. } => tx,
                SimStep::Read(_) => unreachable!("reads are handled above"),
            };
            let sess = r.session.as_mut().expect("pin precedes staging");
            match sess.stage(tx, env) {
                Ok(_) => r.phase = Phase::Submit,
                Err(_) => {
                    abort(r, i, AbortKind::Execution, script.steps.len(), out, hook);
                }
            }
        }
        Phase::Submit => {
            r.attempts += 1;
            let label = format!("{}-t{}", script.name, r.tx);
            let sess = r.session.as_mut().expect("pin precedes submit");
            match sess.submit_block(&label) {
                Ok((c, ticket)) => {
                    // installed: the commit is part of the history from
                    // here on, whatever its acknowledgment brings
                    let state = (*db.snapshot()).clone();
                    if c.version != out.states.len() as u64 {
                        out.violation.get_or_insert(Violation::VersionGap {
                            expected: out.states.len() as u64,
                            got: c.version,
                        });
                    }
                    out.states.push(state);
                    hook.note(TraceEvent::Committed {
                        session: i,
                        tx: r.tx,
                        version: c.version,
                        forwarded: c.forwarded,
                    });
                    out.committed.push(CommittedTx {
                        version: c.version,
                        session: i,
                        tx: r.tx,
                        label,
                        forwarded: c.forwarded,
                    });
                    // an own commit resets the non-repeatable-read
                    // memory: later reads legitimately see a new state
                    r.obs.clear();
                    if hook.injected_bug() == Some(ProtocolBug::AckUndurableCommits) {
                        // buggy protocol: acknowledge at install, before
                        // the group fsync — skip the await-ack phase
                        *claimed_acked = c.version;
                        r.next_tx(script.steps.len());
                    } else if ticket.is_complete() {
                        // already acknowledged (no WAL configured, so
                        // nothing is pending): consume the result here
                        // instead of spending a schedule step on an
                        // await-ack phase that could never interleave
                        // with anything
                        match ticket.try_result() {
                            Some(Ok(())) => r.next_tx(script.steps.len()),
                            Some(Err(CommitError::Durability(WalError::Poisoned { .. }))) => {
                                abort(r, i, AbortKind::Poisoned, script.steps.len(), out, hook);
                            }
                            Some(Err(_)) => {
                                abort(r, i, AbortKind::Durability, script.steps.len(), out, hook);
                            }
                            None => unreachable!("complete tickets carry a result"),
                        }
                    } else {
                        r.ticket = Some(ticket);
                        r.phase = Phase::AwaitAck;
                    }
                }
                Err(CommitError::Conflict { .. }) => {
                    if r.attempts >= cfg.max_attempts {
                        abort(
                            r,
                            i,
                            AbortKind::RetriesExhausted,
                            script.steps.len(),
                            out,
                            hook,
                        );
                    } else {
                        r.phase = Phase::Pin;
                    }
                }
                Err(CommitError::ConstraintViolation { .. }) => {
                    abort(r, i, AbortKind::Constraint, script.steps.len(), out, hook);
                }
                Err(CommitError::Execution(_)) => {
                    abort(r, i, AbortKind::Execution, script.steps.len(), out, hook);
                }
                Err(CommitError::Overload { .. }) => {
                    abort(r, i, AbortKind::Overload, script.steps.len(), out, hook);
                }
                Err(CommitError::Durability(WalError::Poisoned { .. })) => {
                    abort(r, i, AbortKind::Poisoned, script.steps.len(), out, hook);
                }
                Err(CommitError::Durability(_)) => {
                    // submission was rejected before a version was
                    // consumed: nothing installed, nothing in doubt
                    abort(r, i, AbortKind::Durability, script.steps.len(), out, hook);
                }
                Err(CommitError::SerializationFailure { .. }) => {
                    // stale reads cannot be re-taken by re-executing:
                    // the whole transaction aborts (no internal retry)
                    abort(
                        r,
                        i,
                        AbortKind::Serialization,
                        script.steps.len(),
                        out,
                        hook,
                    );
                }
                Err(CommitError::RetriesExhausted { .. }) => {
                    // single attempts never retry internally
                    unreachable!("single attempts do not exhaust retries")
                }
            }
        }
        Phase::AwaitAck => {
            let ticket = r.ticket.take().expect("submit precedes await-ack");
            match ticket.try_result() {
                Some(Ok(())) => r.next_tx(script.steps.len()),
                Some(Err(CommitError::Durability(WalError::Poisoned { .. }))) => {
                    // the commit installed but its batch failed: the
                    // session sees an error (recorded in `aborted`)
                    // while the commit itself stays in `committed` —
                    // durable-or-not is exactly what the in-doubt set
                    // and the crash images track
                    abort(r, i, AbortKind::Poisoned, script.steps.len(), out, hook);
                }
                Some(Err(_)) => {
                    abort(r, i, AbortKind::Durability, script.steps.len(), out, hook);
                }
                None => unreachable!("await-ack runners are scheduled only once complete"),
            }
        }
        Phase::Done => unreachable!("done sessions are never scheduled"),
    }
    Ok(())
}

fn abort(
    r: &mut Runner<'_>,
    session: usize,
    reason: AbortKind,
    script_len: usize,
    out: &mut SimOutcome,
    hook: &SimHook,
) {
    out.aborted.push(AbortedTx {
        session,
        tx: r.tx,
        reason,
    });
    hook.note(TraceEvent::Aborted {
        session,
        tx: r.tx,
        reason,
    });
    r.next_tx(script_len);
}

/// Capture a crash image and run the durability oracle over it,
/// recording the first violation in `out`. Two byte images are judged:
/// the fsynced prefix (what a power loss keeps) and the full contents
/// (unsynced appends that happened to survive); both must recover to a
/// version `v` with `acked ≤ v ≤ installed`, byte-identical to the
/// state the run installed at `v`.
fn record_image(
    cfg: &SimConfig,
    out: &mut SimOutcome,
    store: &MemStore,
    acked: u64,
    installed: u64,
) {
    let image = out.images.len();
    let bytes = store.contents();
    let synced_len = store.durable_len();
    let mut durable_version = 0;
    if out.violation.is_none() {
        let detail = check_crash_bytes(
            cfg,
            out,
            &bytes[..synced_len],
            acked,
            installed,
            Some(&mut durable_version),
        )
        .or_else(|| check_crash_bytes(cfg, out, &bytes, acked, installed, None));
        if let Some(detail) = detail {
            out.violation = Some(Violation::Durability { image, detail });
        }
    }
    out.images.push(CrashImage {
        bytes,
        synced_len,
        acked,
        installed,
        durable_version,
    });
}

/// Judge one candidate crash image; `None` means recovery lands where
/// it must. `durable_version` (when given) receives the recovered
/// version for the image's bookkeeping.
fn check_crash_bytes(
    cfg: &SimConfig,
    out: &SimOutcome,
    bytes: &[u8],
    acked: u64,
    installed: u64,
    durable_version: Option<&mut u64>,
) -> Option<String> {
    let mut store = MemStore::from_bytes(bytes.to_vec());
    match recover_log(&mut store, &cfg.schema, &Metrics::disabled()) {
        Err(e) => Some(format!("recovery failed: {e}")),
        Ok(None) => {
            if let Some(dv) = durable_version {
                *dv = 0;
            }
            (acked > 0).then(|| format!("recovered nothing but {acked} commits acked"))
        }
        Ok(Some(r)) => {
            if let Some(dv) = durable_version {
                *dv = r.version;
            }
            if r.version < acked {
                Some(format!(
                    "recovered version {} but {acked} commits were acked (acks follow the fsync)",
                    r.version
                ))
            } else if r.version > installed {
                Some(format!(
                    "recovered version {} but only {installed} commits were installed",
                    r.version
                ))
            } else if encode_db_state(&r.state) != encode_db_state(&out.states[r.version as usize])
            {
                Some(format!(
                    "recovered state at version {} differs from the installed one",
                    r.version
                ))
            } else {
                None
            }
        }
    }
}

/// Hash the complete simulation state: two prefixes with equal keys have
/// identical futures *and* identical future oracle verdicts (past
/// images were already checked incrementally), so one subtree suffices.
#[allow(clippy::too_many_arguments)]
fn state_key(
    db: &Database,
    runners: &[Runner<'_>],
    out: &SimOutcome,
    store: &Option<MemStore>,
    fault_budget: u32,
    pending_fault_for: Option<usize>,
    acked: u64,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for r in runners {
        r.tx.hash(&mut h);
        (r.phase as u8).hash(&mut h);
        r.attempts.hash(&mut h);
        match &r.session {
            Some(s) => s.version().hash(&mut h),
            None => u64::MAX.hash(&mut h),
        }
        r.ticket.is_some().hash(&mut h);
        // the observation memory feeds the non-repeatable-read count:
        // two states that differ only here still have different futures
        // for the explorer's anomaly stats
        r.obs.len().hash(&mut h);
        for (k, v) in &r.obs {
            k.hash(&mut h);
            v.hash(&mut h);
        }
    }
    out.nonrepeatable.hash(&mut h);
    let head = db.snapshot();
    db.head_version().hash(&mut h);
    fingerprint_db_state(&head).hash(&mut h);
    head.next_tuple_id().hash(&mut h);
    if let Some(st) = store {
        crc32(&st.contents()).hash(&mut h);
        st.durable_len().hash(&mut h);
    }
    if let Some(c) = db.group_committer() {
        let mut fp = String::new();
        c.fingerprint(&mut fp);
        fp.hash(&mut h);
    }
    acked.hash(&mut h);
    fault_budget.hash(&mut h);
    out.poisoned.hash(&mut h);
    for c in &out.committed {
        (c.version, c.session, c.tx, c.forwarded).hash(&mut h);
    }
    pending_fault_for.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Largest committed-set size for which the serializability oracle
/// searches all permutations; beyond it only version order is checked.
const PERMUTATION_CAP: usize = 6;

/// Judge a completed run against all three oracles. Snapshot
/// consistency and durability are checked incrementally during the run
/// (and surface through `out.violation`); this adds the serializability
/// check over the committed set. `None` means the run is clean.
pub fn check_oracles(cfg: &SimConfig, out: &SimOutcome) -> Option<Violation> {
    if let Some(v) = &out.violation {
        return Some(v.clone());
    }
    check_serializability(cfg, out)
}

fn check_serializability(cfg: &SimConfig, out: &SimOutcome) -> Option<Violation> {
    let n = out.committed.len();
    // version order is the pipeline's claimed serialization — try it first
    let version_order: Vec<usize> = (0..n).collect();
    if replay_matches(cfg, out, &version_order) {
        return None;
    }
    if n <= PERMUTATION_CAP {
        let mut order: Vec<usize> = (0..n).collect();
        if permutations_match(cfg, out, &mut order, 0) {
            return None;
        }
    }
    Some(Violation::NotSerializable {
        committed: n,
        detail: format!(
            "final head is value_eq to no replay (searched {})",
            if n <= PERMUTATION_CAP {
                "all permutations"
            } else {
                "version order only"
            }
        ),
    })
}

/// Heap-style recursive permutation search over `order[at..]`.
fn permutations_match(
    cfg: &SimConfig,
    out: &SimOutcome,
    order: &mut Vec<usize>,
    at: usize,
) -> bool {
    if at == order.len() {
        return replay_matches(cfg, out, order);
    }
    for i in at..order.len() {
        order.swap(at, i);
        if permutations_match(cfg, out, order, at + 1) {
            order.swap(at, i);
            return true;
        }
        order.swap(at, i);
    }
    false
}

/// Replay the committed transactions in `order` through a fresh
/// single-writer database from the base state; true when the replay
/// runs to completion and lands `value_eq` to the final head.
///
/// Guards are honored: a committed [`SimStep::Guarded`] transaction
/// only ran because its guard held on the session's snapshot, so a
/// serial order in which the guard is *false* at that position cannot
/// explain the commit — the order fails. This is what makes write-skew
/// visible to the oracle: two guarded transactions that each falsify
/// the other's guard admit no serial order at all.
fn replay_matches(cfg: &SimConfig, out: &SimOutcome, order: &[usize]) -> bool {
    let Ok(db) = Database::builder(cfg.schema.clone())
        .initial(out.base.clone())
        .metrics(Metrics::disabled())
        .build()
    else {
        return false;
    };
    let mut sess = db.session();
    let env = Env::new();
    for &idx in order {
        let c = &out.committed[idx];
        let tx = match &cfg.sessions[c.session].steps[c.tx] {
            SimStep::Tx(t) => t,
            SimStep::Guarded { guard, tx } => {
                if !matches!(sess.ask(guard, &env), Ok(true)) {
                    return false;
                }
                tx
            }
            SimStep::Read(_) => unreachable!("reads never commit"),
        };
        if sess.commit(&c.label, tx, &env).is_err() {
            return false;
        }
    }
    db.snapshot().value_eq(&out.final_state)
}

// ---------------------------------------------------------------------------
// Explorers
// ---------------------------------------------------------------------------

/// Bounds for an exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Stop after this many completed schedules.
    pub max_schedules: u64,
    /// Prune prefixes whose simulation state was already expanded
    /// (exhaustive mode only). Coverage is preserved — equal state keys
    /// mean equal futures — but the completed-schedule count then
    /// undercounts the raw interleaving space.
    pub dedup: bool,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            max_schedules: 1_000_000,
            dedup: false,
        }
    }
}

/// Aggregates over all explored schedules.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Commits that installed by delta forwarding.
    pub forwarded_commits: u64,
    /// Transactions aborted with retries exhausted.
    pub aborted_retries: u64,
    /// Runs that ended with a poisoned WAL.
    pub poisoned_runs: u64,
    /// Runs that ended with at least one installed-but-unacknowledged
    /// commit.
    pub in_doubt_runs: u64,
    /// Largest installed-minus-acked window observed at any step of any
    /// run — evidence the exploration covered multi-commit batches.
    pub max_unacked_installed: u64,
    /// Runs in which some session re-read a formula and saw a different
    /// truth value with no intervening own commit (non-repeatable
    /// read). Must stay 0 unless a session runs read-committed.
    pub nonrepeatable_runs: u64,
    /// Transactions aborted by serializable read-set certification.
    pub serialization_aborts: u64,
}

/// What an exploration covered and found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Completed schedules (leaves of the decision tree).
    pub schedules: u64,
    /// Decision-tree nodes executed (exhaustive mode; equals
    /// `schedules` in random mode).
    pub nodes: u64,
    /// Subtrees pruned by state dedup.
    pub pruned: u64,
    /// Longest schedule observed.
    pub max_depth: usize,
    /// True when `max_schedules` stopped the exploration early.
    pub truncated: bool,
    /// Aggregates over the explored schedules.
    pub stats: ExploreStats,
    /// The first oracle violation found, if any (exploration stops on
    /// it).
    pub failure: Option<FailureCase>,
}

/// A failing schedule, packaged for reproduction.
#[derive(Clone, Debug)]
pub struct FailureCase {
    /// The seed that produced it (random mode).
    pub seed: Option<u64>,
    /// The full schedule as run.
    pub schedule: Vec<usize>,
    /// A greedily minimized schedule that still violates an oracle.
    pub minimized: Vec<usize>,
    /// The violation, rendered.
    pub violation: String,
}

impl fmt::Display for FailureCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seed {
            Some(seed) => write!(
                f,
                "seed {seed} -> schedule {:?} (minimized {:?}): {}",
                self.schedule, self.minimized, self.violation
            ),
            None => write!(
                f,
                "schedule {:?} (minimized {:?}): {}",
                self.schedule, self.minimized, self.violation
            ),
        }
    }
}

fn tally(report: &mut ExploreReport, out: &SimOutcome) {
    report.max_depth = report.max_depth.max(out.schedule.len());
    report.stats.forwarded_commits += out.committed.iter().filter(|c| c.forwarded).count() as u64;
    report.stats.aborted_retries += out
        .aborted
        .iter()
        .filter(|a| a.reason == AbortKind::RetriesExhausted)
        .count() as u64;
    report.stats.poisoned_runs += u64::from(out.poisoned);
    report.stats.in_doubt_runs += u64::from(!out.in_doubt.is_empty());
    report.stats.nonrepeatable_runs += u64::from(out.nonrepeatable > 0);
    report.stats.serialization_aborts += out
        .aborted
        .iter()
        .filter(|a| a.reason == AbortKind::Serialization)
        .count() as u64;
    report.stats.max_unacked_installed = report
        .stats
        .max_unacked_installed
        .max(out.max_unacked_installed);
}

fn fail(cfg: &SimConfig, report: &mut ExploreReport, out: &SimOutcome, seed: Option<u64>) {
    let violation = check_oracles(cfg, out).expect("caller found a violation");
    report.failure = Some(FailureCase {
        seed,
        schedule: out.schedule.clone(),
        minimized: minimize(cfg, &out.schedule),
        violation: violation.to_string(),
    });
}

/// Exhaustively enumerate every schedule of `cfg` by depth-first prefix
/// extension, stopping at the first oracle violation. Terminates:
/// scripts are finite and every attempt consumes budget.
pub fn explore_exhaustive(cfg: &SimConfig, opts: &ExploreOptions) -> TxResult<ExploreReport> {
    let mut report = ExploreReport {
        schedules: 0,
        nodes: 0,
        pruned: 0,
        max_depth: 0,
        truncated: false,
        stats: ExploreStats::default(),
        failure: None,
    };
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.schedules >= opts.max_schedules {
            report.truncated = true;
            break;
        }
        report.nodes += 1;
        let mut chooser = ReplaySchedule::prefix(prefix.clone());
        let out = run_schedule(cfg, &mut chooser)?;
        match &out.halted {
            Some(h) => {
                if out.violation.is_some() {
                    // an incremental oracle failed inside the prefix
                    fail(cfg, &mut report, &out, None);
                    break;
                }
                if opts.dedup && !seen.insert(h.state_key) {
                    report.pruned += 1;
                    continue;
                }
                for alt in (0..h.alternatives).rev() {
                    let mut next = prefix.clone();
                    next.push(alt);
                    stack.push(next);
                }
            }
            None => {
                report.schedules += 1;
                tally(&mut report, &out);
                if check_oracles(cfg, &out).is_some() {
                    fail(cfg, &mut report, &out, None);
                    break;
                }
            }
        }
    }
    Ok(report)
}

/// Run `count` seeded random schedules (seeds `base_seed..`), stopping
/// at the first oracle violation. A reported failing seed replays the
/// identical schedule through [`run_seeded`].
pub fn explore_random(cfg: &SimConfig, base_seed: u64, count: u64) -> TxResult<ExploreReport> {
    let mut report = ExploreReport {
        schedules: 0,
        nodes: 0,
        pruned: 0,
        max_depth: 0,
        truncated: false,
        stats: ExploreStats::default(),
        failure: None,
    };
    for i in 0..count {
        let seed = base_seed.wrapping_add(i);
        let out = run_seeded(cfg, seed)?;
        report.schedules += 1;
        report.nodes += 1;
        tally(&mut report, &out);
        if check_oracles(cfg, &out).is_some() {
            fail(cfg, &mut report, &out, Some(seed));
            break;
        }
    }
    Ok(report)
}

/// Run the schedule the seeded chooser for `seed` produces — the replay
/// side of [`explore_random`].
pub fn run_seeded(cfg: &SimConfig, seed: u64) -> TxResult<SimOutcome> {
    let mut chooser = SeededChooser::new(seed);
    run_schedule(cfg, &mut chooser)
}

/// Run an explicit schedule, padding with first alternatives past its
/// end — the replay side of a reported (possibly minimized) schedule.
pub fn run_with_schedule(cfg: &SimConfig, schedule: &[usize]) -> TxResult<SimOutcome> {
    let mut chooser = ReplaySchedule::padded(schedule.to_vec());
    run_schedule(cfg, &mut chooser)
}

/// Budget of re-runs a minimization may spend.
const MINIMIZE_RUNS: usize = 2_000;

/// Greedily shrink a failing schedule: repeatedly drop trailing choices
/// and lower individual choices, keeping any candidate that still
/// violates an oracle.
fn minimize(cfg: &SimConfig, schedule: &[usize]) -> Vec<usize> {
    let mut budget = MINIMIZE_RUNS;
    let mut still_fails = |s: &[usize]| -> bool {
        if budget == 0 {
            return false;
        }
        budget -= 1;
        match run_with_schedule(cfg, s) {
            Ok(out) => check_oracles(cfg, &out).is_some(),
            Err(_) => false,
        }
    };
    let mut best = schedule.to_vec();
    loop {
        let mut improved = false;
        while !best.is_empty() && still_fails(&best[..best.len() - 1]) {
            best.pop();
            improved = true;
        }
        'positions: for i in 0..best.len() {
            for lower in 0..best[i] {
                let mut candidate = best.clone();
                candidate[i] = lower;
                if still_fails(&candidate) {
                    best = candidate;
                    improved = true;
                    break 'positions;
                }
            }
        }
        if !improved {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_logic::{parse_fterm, ParseCtx};

    fn schema() -> Schema {
        Schema::new()
            .relation("EMP", &["e-name", "salary"])
            .unwrap()
            .relation("LOG", &["l-entry"])
            .unwrap()
    }

    fn tx(src: &str) -> FTerm {
        parse_fterm(src, &ParseCtx::with_relations(&["EMP", "LOG"]), &[]).unwrap()
    }

    fn seeded_base(schema: &Schema) -> DbState {
        let (s, _) = schema
            .initial_state()
            .insert_fields(
                schema.rel_id("EMP").unwrap(),
                &[txlog_base::Atom::str("ann"), txlog_base::Atom::nat(500)],
            )
            .unwrap();
        s
    }

    fn conflicting_cfg() -> SimConfig {
        let s = schema();
        let base = seeded_base(&s);
        SimConfig::new(s)
            .initial(base)
            .session(
                "a",
                vec![tx(
                    "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 10) end",
                )],
            )
            .session(
                "b",
                vec![tx(
                    "foreach e: 2tup | e in EMP do modify(e, salary, salary(e) + 7) end",
                )],
            )
    }

    #[test]
    fn single_session_schedule_commits_and_passes_oracles() {
        let cfg = SimConfig::new(schema()).session("a", vec![tx("insert(tuple('x', 1), EMP)")]);
        let out = run_with_schedule(&cfg, &[]).unwrap();
        assert_eq!(out.committed.len(), 1);
        assert!(out.halted.is_none());
        assert_eq!(check_oracles(&cfg, &out), None);
    }

    #[test]
    fn conflicting_pair_serializes_under_every_schedule() {
        let report = explore_exhaustive(&conflicting_cfg(), &ExploreOptions::default()).unwrap();
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.schedules >= 2, "at least both orders explored");
    }

    #[test]
    fn seeded_runs_replay_identically() {
        let cfg = conflicting_cfg();
        let a = run_seeded(&cfg, 42).unwrap();
        let b = run_seeded(&cfg, 42).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.committed, b.committed);
        assert_eq!(
            encode_db_state(&a.final_state),
            encode_db_state(&b.final_state)
        );
    }

    #[test]
    fn injected_lost_update_is_caught() {
        let cfg = conflicting_cfg().bug(ProtocolBug::ValidateAgainstSnapshot);
        let report = explore_exhaustive(&cfg, &ExploreOptions::default()).unwrap();
        let failure = report.failure.expect("the lost update must be caught");
        assert!(failure.violation.contains("not serializable"), "{failure}");
        // the reported schedule reproduces the violation
        let out = run_with_schedule(&cfg, &failure.schedule).unwrap();
        assert!(check_oracles(&cfg, &out).is_some());
        let out = run_with_schedule(&cfg, &failure.minimized).unwrap();
        assert!(check_oracles(&cfg, &out).is_some());
    }

    #[test]
    fn durable_exploration_with_faults_stays_clean() {
        let cfg = conflicting_cfg().durability(SimDurability::Wal {
            sync_every: 1,
            checkpoint_every: 1,
            explore_faults: true,
        });
        // the writer actor deepens the schedule tree; dedup keeps the
        // exhaustive sweep tractable without losing coverage
        let opts = ExploreOptions {
            dedup: true,
            ..ExploreOptions::default()
        };
        let report = explore_exhaustive(&cfg, &opts).unwrap();
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(
            report.stats.poisoned_runs > 0,
            "faults must have poisoned some runs"
        );
        assert!(
            report.stats.in_doubt_runs > 0,
            "some runs must have left an installed-but-unacked commit"
        );
    }

    #[test]
    fn group_commit_batches_multiple_unacked_commits() {
        // with a batch of up to 2 and the writer schedulable, some
        // interleaving must hold two installed commits past the head
        // before the single group fsync acks them together
        let cfg = conflicting_cfg().durability(SimDurability::Wal {
            sync_every: 2,
            checkpoint_every: 0,
            explore_faults: false,
        });
        let opts = ExploreOptions {
            dedup: true,
            ..ExploreOptions::default()
        };
        let report = explore_exhaustive(&cfg, &opts).unwrap();
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(
            report.stats.max_unacked_installed >= 2,
            "some schedule must batch two unacked commits, saw {}",
            report.stats.max_unacked_installed
        );
    }

    #[test]
    fn acking_undurable_commits_is_caught() {
        let cfg = conflicting_cfg()
            .durability(SimDurability::Wal {
                sync_every: 1,
                checkpoint_every: 0,
                explore_faults: true,
            })
            .bug(ProtocolBug::AckUndurableCommits);
        let report = explore_exhaustive(&cfg, &ExploreOptions::default()).unwrap();
        let failure = report.failure.expect("the undurable ack must be caught");
        assert!(failure.violation.contains("durability"), "{failure}");
    }

    #[test]
    fn dedup_prunes_but_finds_the_same_bug() {
        let cfg = conflicting_cfg().bug(ProtocolBug::ValidateAgainstSnapshot);
        let opts = ExploreOptions {
            dedup: true,
            ..ExploreOptions::default()
        };
        let report = explore_exhaustive(&cfg, &opts).unwrap();
        assert!(report.failure.is_some());
    }
}
