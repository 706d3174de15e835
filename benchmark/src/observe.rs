//! Wrappers over the three public injection seams: [`LogStore`],
//! [`CommitConstraint`] and [`EventCallback`].
//!
//! [`ObservedStore`] is in place on every WAL-backed run, traced or
//! not: it counts what reaches the log and remembers how long the log
//! was at each successful `sync`, which is what lets the recovery
//! workload reopen from *only the flushed bytes* (killing a process
//! would leave the OS cache intact, so the harness discards the
//! unflushed tail itself). In a traced run it also times every call.
//! The constraint and callback wrappers exist only in traced runs.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use txlog::prelude::{
    CommitConstraint, DbState, Delta, EventCallback, LogStore, Schema, TxResult, WalError,
};

use crate::spans;

/// What an [`ObservedStore`] saw. Plain statistics, so `Relaxed`.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Log length at the last successful `sync`.
    pub synced_len: AtomicU64,
    pub bytes: AtomicU64,
    pub commit_records: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
    pub syncs: AtomicU64,
}

/// First payload byte of a WAL checkpoint record (`wal.rs`,
/// `TAG_CHECKPOINT`), after the 8-byte `len‖crc` frame header. Used
/// only to split appended bytes into commits and checkpoints.
const CHECKPOINT_TAG: u8 = 2;
const FRAME_HEADER: usize = 8;

pub struct ObservedStore<S> {
    inner: S,
    len: u64,
    stats: Arc<StoreStats>,
    traced: bool,
}

impl<S: LogStore> ObservedStore<S> {
    pub fn new(inner: S, traced: bool) -> Result<(ObservedStore<S>, Arc<StoreStats>), WalError> {
        let len = inner.len()?;
        let stats = Arc::new(StoreStats::default());
        // whatever the store already holds was durable before we looked
        stats.synced_len.store(len, Relaxed);
        let store = ObservedStore {
            inner,
            len,
            stats: Arc::clone(&stats),
            traced,
        };
        Ok((store, stats))
    }
}

impl<S: LogStore> LogStore for ObservedStore<S> {
    fn len(&self) -> Result<u64, WalError> {
        self.inner.len()
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let _span = self.traced.then(|| spans::span("wal.append"));
        if let Err(e) = self.inner.append(bytes) {
            // a torn append may have landed a prefix
            self.len = self.inner.len().unwrap_or(self.len);
            return Err(e);
        }
        self.len += bytes.len() as u64;
        self.stats.bytes.fetch_add(bytes.len() as u64, Relaxed);
        if bytes.get(FRAME_HEADER) == Some(&CHECKPOINT_TAG) {
            self.stats
                .checkpoint_bytes
                .fetch_add(bytes.len() as u64, Relaxed);
        } else {
            self.stats.commit_records.fetch_add(1, Relaxed);
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let _span = self.traced.then(|| spans::span("wal.sync"));
        self.inner.sync()?;
        self.stats.syncs.fetch_add(1, Relaxed);
        self.stats.synced_len.store(self.len, Relaxed);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.inner.truncate(len)?;
        self.len = len;
        self.stats.synced_len.fetch_min(len, Relaxed);
        Ok(())
    }
}

/// Copy the log at `src` to `dst`, keeping only its first `synced_len`
/// bytes: the image a power loss would leave.
pub fn copy_synced_prefix(src: &Path, dst: &Path, synced_len: u64) -> std::io::Result<()> {
    std::fs::copy(src, dst)?;
    let file = std::fs::OpenOptions::new().write(true).open(dst)?;
    file.set_len(synced_len)?;
    file.sync_all()
}

/// Counts behind `constraints.skip_ratio`.
#[derive(Debug, Default)]
pub struct ConstraintStats {
    pub affected_calls: AtomicU64,
    pub skips: AtomicU64,
}

/// Times `affected_by` and `check`. `affected_by` runs on the
/// committing thread, inside its `engine.submit` span; `check` may run
/// on a scoped validation worker, where [`spans::adopt`] supplies the
/// parent.
pub struct TimedConstraint {
    inner: Box<dyn CommitConstraint>,
    stats: Arc<ConstraintStats>,
}

impl TimedConstraint {
    pub fn new(inner: Box<dyn CommitConstraint>, stats: Arc<ConstraintStats>) -> TimedConstraint {
        TimedConstraint { inner, stats }
    }
}

impl CommitConstraint for TimedConstraint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn window_states(&self) -> usize {
        self.inner.window_states()
    }

    fn affected_by(&self, schema: &Schema, delta: &Delta) -> bool {
        let _span = spans::span("constraints.affected");
        let hit = self.inner.affected_by(schema, delta);
        self.stats.affected_calls.fetch_add(1, Relaxed);
        if !hit {
            self.stats.skips.fetch_add(1, Relaxed);
        }
        hit
    }

    fn check(&self, schema: &Schema, states: &[DbState], labels: &[&str]) -> TxResult<bool> {
        let _span = spans::span("constraints.check");
        self.inner.check(schema, states, labels)
    }
}

/// Times each invocation of `inner` as `events.callback`.
pub fn timed_callback(inner: EventCallback) -> EventCallback {
    Arc::new(move |n| {
        let _span = spans::span("events.callback");
        inner(n);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog::prelude::{FileStore, MemStore};

    #[test]
    fn the_synced_prefix_drops_exactly_the_unsynced_tail() {
        let dir = crate::round::out_dir().join("test-synced-prefix");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (log, image) = (dir.join("wal.log"), dir.join("image.log"));

        let (mut store, stats) =
            ObservedStore::new(FileStore::open(&log).expect("open"), false).expect("wrap");
        assert_eq!(stats.synced_len.load(Relaxed), 0);
        store.append(b"0123456789").expect("append");
        store.append(b"abcde").expect("append");
        assert_eq!(stats.synced_len.load(Relaxed), 0, "nothing flushed yet");
        store.sync().expect("sync");
        assert_eq!(stats.synced_len.load(Relaxed), 15);
        store.append(b"UNSYNCED-TAIL").expect("append");
        assert_eq!(stats.synced_len.load(Relaxed), 15);
        assert_eq!(std::fs::read(&log).expect("read").len(), 28);

        copy_synced_prefix(&log, &image, stats.synced_len.load(Relaxed)).expect("copy");
        assert_eq!(std::fs::read(&image).expect("read"), b"0123456789abcde");

        // truncating below the watermark pulls the watermark back
        store.truncate(4).expect("truncate");
        assert_eq!(stats.synced_len.load(Relaxed), 4);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn appends_split_into_commits_and_checkpoints() {
        let (mut store, stats) = ObservedStore::new(MemStore::new(), false).expect("wrap");
        let record = |tag: u8, len: usize| {
            let mut bytes = vec![0u8; FRAME_HEADER];
            bytes.push(tag);
            bytes.resize(len, 0);
            bytes
        };
        store.append(&record(CHECKPOINT_TAG, 100)).expect("append");
        store.append(&record(1, 30)).expect("append");
        store.append(&record(1, 30)).expect("append");
        store.sync().expect("sync");
        assert_eq!(stats.checkpoint_bytes.load(Relaxed), 100);
        assert_eq!(stats.commit_records.load(Relaxed), 2);
        assert_eq!(stats.bytes.load(Relaxed), 160);
        assert_eq!(stats.syncs.load(Relaxed), 1);
        assert_eq!(stats.synced_len.load(Relaxed), 160);
    }
}
