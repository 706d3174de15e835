//! Why a commit did not install, and the receipt of one that did.

#[cfg(doc)]
use super::{DatabaseBuilder, IsolationLevel, RetryPolicy, Session};
use crate::group::{Slot, SubmitError};
use crate::wal::WalError;
use std::fmt;
use std::sync::Arc;
use txlog_base::obs::Metrics;
use txlog_base::TxError;

/// Why a commit did not install.
#[derive(Debug)]
pub enum CommitError {
    /// The head moved past the session's snapshot and the transaction's
    /// footprint overlapped the concurrently committed deltas. The
    /// single attempts, [`Session::submit_prepared`] and the block commit
    /// [`Session::submit_block`], surface this; [`Session::commit`]
    /// retries until the policy is exhausted.
    Conflict {
        /// The head version the commit raced against.
        head_version: u64,
    },
    /// The candidate state violated a registered constraint. Not
    /// retried: the transaction itself produces an illegal state.
    ConstraintViolation {
        /// Name of the violated constraint.
        constraint: String,
    },
    /// Every attempt permitted by the [`RetryPolicy`] conflicted.
    RetriesExhausted {
        /// Total execution attempts made.
        attempts: u32,
    },
    /// A [`Serializable`](IsolationLevel::Serializable) session's
    /// accumulated read set intersected a concurrently committed delta
    /// (or the head's delta log no longer reached back far enough to
    /// prove it did not). Stale reads cannot be repaired by
    /// re-executing the commit, so this is fatal — restart the whole
    /// transaction, reads included, from a fresh session or after
    /// [`Session::refresh`].
    SerializationFailure {
        /// The head version the certification ran against.
        head_version: u64,
    },
    /// The transaction failed to execute, or a constraint check errored.
    Execution(TxError),
    /// The group-commit submission queue is full: the log writer is not
    /// keeping up with the commit rate. The commit did *not* install (the
    /// queue is checked before a version is consumed) and is not retried
    /// automatically — backpressure is the caller's decision.
    Overload {
        /// The configured queue capacity ([`DatabaseBuilder::log_queue_cap`]).
        capacity: usize,
    },
    /// The write-ahead log could not persist the commit record. If the
    /// error surfaced at submit time (a poisoned log), the commit did not
    /// install. If it surfaced from the [`CommitTicket`] wait, the commit
    /// *did* install — it is visible in memory but unacknowledged, the
    /// log is poisoned, and crash recovery may or may not retain it;
    /// reopen the database to resume committing.
    Durability(WalError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Conflict { head_version } => write!(
                f,
                "commit conflict: head advanced to version {head_version} with \
                 overlapping changes"
            ),
            CommitError::ConstraintViolation { constraint } => {
                write!(f, "commit rejected: constraint {constraint} violated")
            }
            CommitError::RetriesExhausted { attempts } => {
                write!(f, "commit gave up after {attempts} conflicted attempts")
            }
            CommitError::SerializationFailure { head_version } => write!(
                f,
                "commit aborted: a delta committed before version {head_version} \
                 intersects this serializable session's reads"
            ),
            CommitError::Execution(e) => write!(f, "commit failed to execute: {e}"),
            CommitError::Overload { capacity } => write!(
                f,
                "commit rejected: the log submission queue is full ({capacity} pending)"
            ),
            CommitError::Durability(e) => {
                write!(f, "commit could not be made durable: {e}")
            }
        }
    }
}

impl std::error::Error for CommitError {
    /// The wrapped cause, for the variants that carry one: walking the
    /// chain from a [`CommitError::Durability`] reaches the
    /// [`WalError`], and from there any [`CodecError`] or engine error
    /// underneath — which is what lets a wire-protocol front end map
    /// commit failures to typed errors without string matching.
    ///
    /// [`CodecError`]: txlog_relational::codec::CodecError
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommitError::Execution(e) => Some(e),
            CommitError::Durability(e) => Some(e),
            CommitError::Conflict { .. }
            | CommitError::ConstraintViolation { .. }
            | CommitError::RetriesExhausted { .. }
            | CommitError::SerializationFailure { .. }
            | CommitError::Overload { .. } => None,
        }
    }
}

impl From<TxError> for CommitError {
    fn from(e: TxError) -> CommitError {
        CommitError::Execution(e)
    }
}

/// Handle on a commit's durability acknowledgment.
///
/// A durable commit *installs* (becomes visible to new snapshots) under
/// the head lock, but is only *acknowledged* once the log writer has
/// fsynced the batch containing its record. The ticket is that
/// acknowledgment: [`CommitTicket::wait`] blocks until the batch
/// flushes (what [`Session::commit`] does internally);
/// [`Session::submit_prepared`] hands the ticket to the caller instead,
/// so a pipeline of commits can overlap their waits. Without durability
/// the ticket is born complete.
pub struct CommitTicket {
    /// `None` when durability is off: nothing to wait for.
    pub(super) slot: Option<Arc<Slot>>,
    pub(super) metrics: Metrics,
}

impl CommitTicket {
    /// Block until the log writer acknowledges (or fails) the commit.
    /// An `Err` means the commit is installed in memory but its record
    /// never became durable and the log is poisoned — see
    /// [`CommitError::Durability`].
    pub fn wait(&self) -> Result<(), CommitError> {
        match &self.slot {
            None => Ok(()),
            Some(slot) => {
                let _span = self.metrics.span("commit.log_wait");
                slot.wait()
                    .map_err(|e| CommitError::Durability(e.into_wal()))
            }
        }
    }

    /// The acknowledgment if it already happened (non-blocking).
    pub fn try_result(&self) -> Option<Result<(), CommitError>> {
        match &self.slot {
            None => Some(Ok(())),
            Some(slot) => slot
                .try_result()
                .map(|r| r.map_err(|e| CommitError::Durability(e.into_wal()))),
        }
    }

    /// True once the log writer has decided this commit's fate (always
    /// true without durability).
    pub fn is_complete(&self) -> bool {
        self.try_result().is_some()
    }
}

/// Map a submission rejection (which happens before the commit consumes
/// a version) onto the public error type.
pub(super) fn submit_error(e: SubmitError) -> CommitError {
    match e {
        SubmitError::Overload { capacity } => CommitError::Overload { capacity },
        SubmitError::Poisoned { detail } => CommitError::Durability(WalError::Poisoned { detail }),
    }
}
