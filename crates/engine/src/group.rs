//! Group commit: the staged log-writer behind durable databases.
//!
//! PR 5's pipeline issued append+fsync inline, inside the head lock —
//! every commit paid a full flush and the lock serialized them. This
//! module splits the write path into stages: `Session::commit` validates
//! and installs under the head lock but only *enqueues* its already
//! encoded commit record into a bounded submission queue, then blocks on
//! a per-commit [`Slot`]; a dedicated log-writer thread drains the queue
//! into batches of up to `sync_every` records, appends them as one
//! sequence of frames, issues a **single** fsync, and acknowledges the
//! whole batch together.
//!
//! ## The ack-after-fsync invariant
//!
//! `sync_every` used to be an fsync *cadence*: with `sync_every > 1` a
//! commit could return success before any flush covered its record, and
//! a crash would silently lose an acknowledged commit. Under group
//! commit the knob is a max *batch size* and the invariant is strict:
//! **no commit is acknowledged before the fsync covering its record
//! returns.** What changed shape is the other side: a commit now
//! *installs* before its record is durable, so between install and ack
//! the commit is *in doubt* — visible to new snapshots, absent from the
//! log until the batch flushes. Crash recovery may land on any point of
//! the in-doubt suffix; it never loses an acknowledged commit.
//!
//! ## Batch poisoning
//!
//! Because install precedes the append, a failed commit-record append —
//! even a clean one whose torn bytes were rolled back — strands an
//! installed version that will now never reach the log: the version
//! sequence on disk would gap and recovery would truncate every later
//! commit. The committer therefore poisons the [`Wal`] on *any* batch
//! write failure ([`Wal::poison_external`] for clean failures, the
//! wal's own poisoning for fsync/rollback failures), fails every waiter
//! in the batch with the real error, and fails all queued-but-undrained
//! waiters with `Poisoned`. A failed *checkpoint* append is the one
//! forgiving case: checkpoints only summarize already-acked commits, so
//! a cleanly rolled-back checkpoint is skipped and retried at the next
//! batch boundary.

use crate::sim::{RecordKind, SimEvent, StepHook};
use crate::wal::{Wal, WalError};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use txlog_base::obs::{Counter, Hist, Metrics};
use txlog_relational::{DbState, Schema};

/// A cloneable projection of [`WalError`] for fan-out to batch waiters
/// (the wal error itself owns non-cloneable payloads).
#[derive(Clone, Debug)]
pub(crate) enum AckError {
    /// The store operation for this batch failed.
    Io { op: &'static str, detail: String },
    /// The log was poisoned before this commit's record was written.
    Poisoned { detail: String },
}

impl AckError {
    fn from_wal(e: &WalError) -> AckError {
        match e {
            WalError::Io { op, detail } => AckError::Io {
                op,
                detail: detail.clone(),
            },
            WalError::Poisoned { detail } => AckError::Poisoned {
                detail: detail.clone(),
            },
            other => AckError::Poisoned {
                detail: other.to_string(),
            },
        }
    }

    pub(crate) fn into_wal(self) -> WalError {
        match self {
            AckError::Io { op, detail } => WalError::Io { op, detail },
            AckError::Poisoned { detail } => WalError::Poisoned { detail },
        }
    }
}

/// The per-commit completion handle: filled exactly once by the log
/// writer after the commit's batch fsyncs (or fails).
pub(crate) struct Slot {
    result: Mutex<Option<Result<(), AckError>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, r: Result<(), AckError>) {
        let mut slot = self.result.lock().expect("slot lock");
        if slot.is_none() {
            *slot = Some(r);
            self.cv.notify_all();
        }
    }

    /// Block until the log writer acks or fails this commit.
    pub(crate) fn wait(&self) -> Result<(), AckError> {
        let mut slot = self.result.lock().expect("slot lock");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.cv.wait(slot).expect("slot lock");
        }
    }

    /// The result if the writer has already filled it (non-blocking).
    pub(crate) fn try_result(&self) -> Option<Result<(), AckError>> {
        self.result.lock().expect("slot lock").clone()
    }
}

/// One enqueued commit: its already-encoded record plus everything the
/// writer needs to ack it and checkpoint after it.
struct Submission {
    version: u64,
    payload: Vec<u8>,
    state: Arc<DbState>,
    slot: Arc<Slot>,
}

/// Why a submission was rejected at the head lock (before the commit
/// consumed a version).
pub(crate) enum SubmitError {
    /// The bounded submission queue is full.
    Overload {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The log is poisoned; no further commits until recovery.
    Poisoned { detail: String },
}

/// Submission side: what `Session::commit` touches under the head lock.
struct Queue {
    items: VecDeque<Submission>,
    /// Mirror of the wal's poisoned state, set when a batch fails, so
    /// submitters fail fast without taking the pump lock.
    poisoned: Option<String>,
    shutdown: bool,
}

/// Writer side: everything only the log-writer (or a manual pump)
/// touches. One lock for the whole drain-append-sync-ack cycle.
struct PumpState {
    wal: Wal,
    /// The batch being written: drained from the queue, appended one
    /// record per micro-step, then fsynced and acked together.
    inflight: VecDeque<Submission>,
    /// How many of `inflight` have been appended so far.
    appended: usize,
    /// A checkpoint is due at the next batch boundary.
    pending_checkpoint: bool,
    commits_since_checkpoint: u64,
    /// Version and state of the newest acknowledged commit — what the
    /// next cadence checkpoint snapshots.
    last_acked: Option<(u64, Arc<DbState>)>,
    /// Simulation seam: also installed into `wal`; held here to fire
    /// [`SimEvent::Acked`] at batch-ack time.
    hook: Option<Arc<dyn StepHook>>,
}

/// The next store operation the writer will perform, surfaced so the
/// simulator can schedule (and fail) the writer like any other actor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WriterOp {
    /// Append one commit record of the current batch.
    Append,
    /// Fsync the fully-appended batch and ack its waiters.
    Sync,
    /// Append a cadence checkpoint at a batch boundary.
    Checkpoint,
}

/// The group-commit stage: a bounded submission queue feeding a
/// batched log writer. See the module docs for the protocol.
pub(crate) struct GroupCommitter {
    queue: Mutex<Queue>,
    /// Signaled on submit and shutdown; the writer waits here when idle.
    work: Condvar,
    pump: Mutex<PumpState>,
    /// Max records per batch (the old `sync_every` knob, re-purposed).
    max_batch: usize,
    /// Submission-queue bound; submits beyond it fail with overload.
    queue_cap: usize,
    /// Checkpoint after this many commits (0 = never).
    checkpoint_every: u64,
    schema: Schema,
    metrics: Metrics,
}

impl GroupCommitter {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        wal: Wal,
        schema: Schema,
        sync_every: u64,
        checkpoint_every: u64,
        queue_cap: usize,
        commits_since_checkpoint: u64,
        last_acked: Option<(u64, Arc<DbState>)>,
        metrics: Metrics,
    ) -> GroupCommitter {
        GroupCommitter {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                poisoned: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            pump: Mutex::new(PumpState {
                wal,
                inflight: VecDeque::new(),
                appended: 0,
                pending_checkpoint: false,
                commits_since_checkpoint,
                last_acked,
                hook: None,
            }),
            max_batch: sync_every.max(1).try_into().unwrap_or(usize::MAX),
            queue_cap: queue_cap.max(1),
            checkpoint_every,
            schema,
            metrics,
        }
    }

    /// Install the simulation seam into both the wal and the ack path.
    pub(crate) fn set_hook(&self, hook: Arc<dyn StepHook>) {
        let mut pump = self.pump.lock().expect("pump lock");
        pump.wal.set_hook(hook.clone());
        pump.hook = Some(hook);
    }

    /// Enqueue one encoded commit record. Called under the head lock,
    /// *before* the commit installs, so a rejection here costs nothing:
    /// the version has not been consumed. On `Ok` the caller must
    /// install — the writer may already be appending the record.
    pub(crate) fn submit(
        &self,
        version: u64,
        payload: Vec<u8>,
        state: Arc<DbState>,
    ) -> Result<Arc<Slot>, SubmitError> {
        let mut q = self.queue.lock().expect("queue lock");
        if let Some(detail) = &q.poisoned {
            return Err(SubmitError::Poisoned {
                detail: detail.clone(),
            });
        }
        if q.items.len() >= self.queue_cap {
            return Err(SubmitError::Overload {
                capacity: self.queue_cap,
            });
        }
        let slot = Slot::new();
        q.items.push_back(Submission {
            version,
            payload,
            state,
            slot: slot.clone(),
        });
        self.work.notify_all();
        Ok(slot)
    }

    /// The store operation the next [`GroupCommitter::micro_step`] will
    /// perform, or `None` when the writer is idle. The simulator uses
    /// this to decide whether the writer actor is schedulable and which
    /// fault (append vs fsync) can be armed against its next step.
    pub(crate) fn next_op(&self) -> Option<WriterOp> {
        let pump = self.pump.lock().expect("pump lock");
        if pump.inflight.is_empty() {
            if pump.pending_checkpoint {
                return Some(WriterOp::Checkpoint);
            }
            let q = self.queue.lock().expect("queue lock");
            if q.items.is_empty() {
                None
            } else {
                Some(WriterOp::Append)
            }
        } else if pump.appended == pump.inflight.len() {
            Some(WriterOp::Sync)
        } else {
            Some(WriterOp::Append)
        }
    }

    /// Perform one store operation of the writer cycle: a cadence
    /// checkpoint, one record append of the current batch, or the batch
    /// fsync + group ack. Returns false when there was nothing to do.
    /// The writer thread loops this; the simulator calls it one
    /// schedulable step at a time.
    pub(crate) fn micro_step(&self) -> bool {
        let mut guard = self.pump.lock().expect("pump lock");
        let pump = &mut *guard;
        if pump.inflight.is_empty() {
            if pump.pending_checkpoint {
                self.write_checkpoint(pump);
                return true;
            }
            // drain the next batch; the queue lock is held only for the
            // drain, never across store operations
            {
                let mut q = self.queue.lock().expect("queue lock");
                while pump.inflight.len() < self.max_batch {
                    match q.items.pop_front() {
                        Some(sub) => pump.inflight.push_back(sub),
                        None => break,
                    }
                }
            }
            pump.appended = 0;
            if pump.inflight.is_empty() {
                return false;
            }
        }
        if pump.appended < pump.inflight.len() {
            let idx = pump.appended;
            let payload = std::mem::take(&mut pump.inflight[idx].payload);
            match pump.wal.append_record(&payload, RecordKind::Commit) {
                Ok(()) => pump.appended += 1,
                Err(e) => self.fail_batch(pump, &e),
            }
            return true;
        }
        // the whole batch is appended: one fsync covers it, then every
        // waiter learns its fate together
        match pump.wal.sync() {
            Ok(()) => {
                let n = pump.inflight.len() as u64;
                self.metrics.bump(Counter::WalGroupBatches);
                self.metrics.observe(Hist::WalGroupBatchSize, n);
                pump.commits_since_checkpoint += n;
                let (last_version, last_state) = {
                    let last = pump.inflight.back().expect("non-empty batch");
                    (last.version, last.state.clone())
                };
                pump.last_acked = Some((last_version, last_state));
                for sub in pump.inflight.drain(..) {
                    sub.slot.fill(Ok(()));
                }
                pump.appended = 0;
                if let Some(h) = &pump.hook {
                    h.on_event(SimEvent::Acked(last_version));
                }
                if self.checkpoint_every > 0
                    && pump.commits_since_checkpoint >= self.checkpoint_every
                {
                    pump.pending_checkpoint = true;
                }
            }
            Err(e) => self.fail_batch(pump, &e),
        }
        true
    }

    /// Drain every queued submission until the writer goes idle. Used by
    /// manual pumping ([`crate::db::Database::pump_log_writer`]) and at
    /// shutdown.
    pub(crate) fn pump_all(&self) {
        while self.micro_step() {}
    }

    /// The dedicated writer thread's loop: micro-step while there is
    /// work, sleep on the condvar when idle, exit once shut down and
    /// fully drained.
    pub(crate) fn run(&self) {
        loop {
            if self.micro_step() {
                continue;
            }
            let q = self.queue.lock().expect("queue lock");
            if !q.items.is_empty() {
                continue;
            }
            if q.shutdown {
                return;
            }
            drop(self.work.wait(q).expect("queue lock"));
        }
    }

    /// Ask the writer to exit once it has drained everything. Safe to
    /// call more than once.
    pub(crate) fn shutdown(&self) {
        let mut q = self.queue.lock().expect("queue lock");
        q.shutdown = true;
        self.work.notify_all();
    }

    /// Fail every waiter still queued or inflight (manual mode only: a
    /// database closing with no writer thread must not strand blocked
    /// `wait` calls).
    pub(crate) fn fail_pending(&self, detail: &str) {
        let mut pump = self.pump.lock().expect("pump lock");
        for sub in pump.inflight.drain(..) {
            sub.slot.fill(Err(AckError::Poisoned {
                detail: detail.to_string(),
            }));
        }
        pump.appended = 0;
        let mut q = self.queue.lock().expect("queue lock");
        for sub in q.items.drain(..) {
            sub.slot.fill(Err(AckError::Poisoned {
                detail: detail.to_string(),
            }));
        }
    }

    /// A stable digest of the committer's scheduling-relevant state, for
    /// the explorer's visited-set key.
    pub(crate) fn fingerprint(&self, out: &mut String) {
        use std::fmt::Write;
        let pump = self.pump.lock().expect("pump lock");
        let q = self.queue.lock().expect("queue lock");
        out.push_str("|gq:");
        for sub in &q.items {
            let _ = write!(out, "{},", sub.version);
        }
        let _ = write!(out, ";qp:{}", u8::from(q.poisoned.is_some()));
        out.push_str("|gf:");
        for sub in &pump.inflight {
            let _ = write!(out, "{},", sub.version);
        }
        let _ = write!(
            out,
            ";a:{};pc:{};csc:{};la:{};wp:{}",
            pump.appended,
            u8::from(pump.pending_checkpoint),
            pump.commits_since_checkpoint,
            pump.last_acked.as_ref().map_or(0, |(v, _)| *v),
            u8::from(pump.wal.is_poisoned()),
        );
    }

    /// A batch (or checkpoint) write failed with the wal poisoned or an
    /// installed version stranded: poison everything. Inflight waiters
    /// get the real error; queued-but-undrained waiters get `Poisoned`
    /// (their records were never written). The queue is poisoned before
    /// any waiter wakes, so a commit submitted after an acknowledged
    /// failure is refused rather than installed.
    fn fail_batch(&self, pump: &mut PumpState, e: &WalError) {
        let detail = e.to_string();
        if !pump.wal.is_poisoned() {
            pump.wal
                .poison_external(format!("group batch write failed: {detail}"));
        }
        let mut q = self.queue.lock().expect("queue lock");
        q.poisoned = Some(detail.clone());
        let ack = AckError::from_wal(e);
        for sub in pump.inflight.drain(..) {
            sub.slot.fill(Err(ack.clone()));
        }
        pump.appended = 0;
        pump.pending_checkpoint = false;
        for sub in q.items.drain(..) {
            sub.slot.fill(Err(AckError::Poisoned {
                detail: detail.clone(),
            }));
        }
    }

    /// Append the cadence checkpoint due at this batch boundary. A clean
    /// append failure (torn bytes rolled back) is *skipped*, not
    /// poisonous: the checkpoint only summarizes already-acked commits
    /// and the cadence counter stays high, so it is retried after the
    /// next batch. A poisoning failure fails everything queued.
    fn write_checkpoint(&self, pump: &mut PumpState) {
        pump.pending_checkpoint = false;
        let Some((version, state)) = pump.last_acked.clone() else {
            return;
        };
        match pump.wal.log_checkpoint(version, &self.schema, &state) {
            Ok(()) => pump.commits_since_checkpoint = 0,
            Err(e) => {
                if pump.wal.is_poisoned() {
                    self.fail_batch(pump, &e);
                }
                // else: cleanly rolled back — skip, retry next boundary
            }
        }
    }
}
