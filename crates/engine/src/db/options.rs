//! Per-database and per-session configuration values.

#[cfg(doc)]
use super::{CommitError, Database, DatabaseBuilder, Session};
use std::fmt;
use std::time::Duration;

/// Retry/backoff policy for optimistic commits.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Re-executions allowed after the first conflicted attempt before
    /// [`CommitError::RetriesExhausted`].
    pub max_retries: u32,
    /// First backoff delay; doubles per retry. Zero disables sleeping
    /// (useful for deterministic tests).
    pub backoff_base: Duration,
    /// Upper bound on a single backoff delay.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that retries up to `max_retries` times without sleeping.
    pub fn no_backoff(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    pub(super) fn delay(&self, retry: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let mult = 1u32.checked_shl(retry.min(16)).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(mult)
            .unwrap_or(self.backoff_cap)
            .min(self.backoff_cap)
    }
}

/// The concurrency contract a [`Session`] runs under — which anomalies
/// the session tolerates in exchange for cheaper commits.
///
/// * [`ReadCommitted`](IsolationLevel::ReadCommitted) re-pins the head
///   snapshot at every statement boundary outside a transaction block
///   ([`Session::prepare`], [`Session::ask`], each commit call), and
///   conflicts only on *write-write* overlap with concurrently
///   committed deltas (first committer wins). Non-repeatable reads
///   between statements are permitted; lost updates are not.
/// * [`Snapshot`](IsolationLevel::Snapshot) — the default — keeps the
///   session pinned to one snapshot and conflicts when the *full*
///   program footprint (reads ∪ writes) overlaps concurrent deltas.
///   Statements always see one consistent state; write skew across
///   statement-level reads is permitted.
/// * [`Serializable`](IsolationLevel::Serializable) extends snapshot
///   validation with SSI-style read certification: the session
///   accumulates the read footprint of every statement it runs, and a
///   commit aborts with [`CommitError::SerializationFailure`] when any
///   concurrently committed delta intersects that read set. Stale reads
///   cannot be repaired by re-execution, so the failure is fatal rather
///   than retried — callers restart the whole transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum IsolationLevel {
    /// Statement-level snapshots, write-write conflict detection only.
    ReadCommitted,
    /// One snapshot per transaction, full-footprint conflict detection.
    #[default]
    Snapshot,
    /// Snapshot plus commit-time certification of accumulated reads.
    Serializable,
}

impl IsolationLevel {
    /// Every level, weakest first.
    pub const ALL: [IsolationLevel; 3] = [
        IsolationLevel::ReadCommitted,
        IsolationLevel::Snapshot,
        IsolationLevel::Serializable,
    ];

    /// Stable kebab-case name, used on the wire and in the REPL.
    pub fn name(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "read-committed",
            IsolationLevel::Snapshot => "snapshot",
            IsolationLevel::Serializable => "serializable",
        }
    }

    /// Parse a level name as typed in a REPL (`read-committed`,
    /// `snapshot`, `serializable`, plus the usual abbreviations).
    pub fn parse(s: &str) -> Option<IsolationLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "read-committed" | "read_committed" | "readcommitted" | "rc" => {
                Some(IsolationLevel::ReadCommitted)
            }
            "snapshot" | "si" => Some(IsolationLevel::Snapshot),
            "serializable" | "ssi" => Some(IsolationLevel::Serializable),
            _ => None,
        }
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-session configuration, consumed by [`Database::session_with`].
///
/// ```
/// # use txlog_engine::db::{Database, IsolationLevel, RetryPolicy, SessionOptions};
/// # use txlog_relational::Schema;
/// # let schema = Schema::new().relation("EMP", &["name"]).unwrap();
/// # let db = Database::new(schema).unwrap();
/// let session = db.session_with(
///     SessionOptions::serializable()
///         .retry(RetryPolicy::no_backoff(4))
///         .label_prefix("etl/"),
/// );
/// assert_eq!(session.isolation(), IsolationLevel::Serializable);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SessionOptions {
    /// The session's isolation level.
    pub isolation: IsolationLevel,
    /// The session's retry policy; `None` inherits the database-wide
    /// default ([`DatabaseBuilder::default_retry`]).
    pub retry: Option<RetryPolicy>,
    /// Prepended verbatim to every commit label this session produces —
    /// a namespace for the history's transaction arcs.
    pub label_prefix: Option<String>,
}

impl SessionOptions {
    /// Default options: snapshot isolation, database-default retries.
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Options at [`IsolationLevel::ReadCommitted`].
    pub fn read_committed() -> SessionOptions {
        SessionOptions::new().isolation(IsolationLevel::ReadCommitted)
    }

    /// Options at [`IsolationLevel::Snapshot`].
    pub fn snapshot() -> SessionOptions {
        SessionOptions::new().isolation(IsolationLevel::Snapshot)
    }

    /// Options at [`IsolationLevel::Serializable`].
    pub fn serializable() -> SessionOptions {
        SessionOptions::new().isolation(IsolationLevel::Serializable)
    }

    /// Set the isolation level.
    pub fn isolation(mut self, level: IsolationLevel) -> SessionOptions {
        self.isolation = level;
        self
    }

    /// Set a session-specific retry policy (overrides the database
    /// default).
    pub fn retry(mut self, retry: RetryPolicy) -> SessionOptions {
        self.retry = Some(retry);
        self
    }

    /// Set the commit-label prefix.
    pub fn label_prefix(mut self, prefix: impl Into<String>) -> SessionOptions {
        self.label_prefix = Some(prefix.into());
        self
    }
}
