//! Write-ahead log, checkpoints, and crash recovery.
//!
//! The paper's histories are sequences of states related by transaction
//! arcs, and PR 4's commit pipeline already assigns every committed arc a
//! gapless version number. Durability is then exactly: persist the arcs.
//! This module appends every committed [`Delta`] to a length-prefixed,
//! CRC-32-checksummed log *before* the commit installs, interleaves
//! periodic full-state checkpoints, and recovers by loading the latest
//! valid checkpoint and replaying the delta suffix through
//! [`Delta::apply`] — the same machinery the in-memory pipeline uses.
//!
//! ## Record framing
//!
//! ```text
//! record   := len:u32 ‖ crc:u32 ‖ payload           (len = |payload|, LE)
//! payload  := 0x01 ‖ version:u64 ‖ label:str ‖ next_tuple:u64 ‖ delta
//!           | 0x02 ‖ version:u64 ‖ schema ‖ state   (checkpoint)
//! ```
//!
//! The frame is [`codec::encode_frame`]'s — the routine the wire protocol
//! frames messages with — and recovery walks the log with its inverse,
//! [`codec::decode_frame`]. `crc` covers the payload only; a torn or
//! bit-flipped tail fails the checksum (or runs past the end of the log)
//! and recovery truncates the log back to the last fully valid record. `next_tuple` snapshots the post-commit
//! tuple allocator so replay restores it exactly even when a
//! transaction's net delta cancels an allocation.
//!
//! ## Recovery invariant
//!
//! Recovery always lands on a *commit-order prefix*: the recovered state
//! is byte-identical (under `txlog_relational::codec`) to the head some
//! prefix of the committed history produced, with a gapless version
//! sequence. The fault-injection tests in `tests/tests/wal_recovery.rs`
//! assert this for a write kill at every byte offset of the log.
//!
//! ## Fault injection
//!
//! The log sits behind the [`LogStore`] trait. [`FileStore`] is the real
//! file-backed implementation; [`MemStore`] is an in-memory store whose
//! writes can be configured to die (leaving a partial record) at any byte
//! offset — and whose syncs can be configured to fail past any offset —
//! which is how the crash matrix simulates power loss and flush failure
//! at every boundary without touching a filesystem.
//!
//! A failure that leaves the log's durable contents in doubt (an fsync
//! or rollback failure after record bytes went out) *poisons* the
//! writer: all further appends fail with [`WalError::Poisoned`] until
//! the database is reopened, so a version that may already be logged is
//! never reused. See `Wal` for the argument.

use crate::sim::{RecordKind, SimEvent, StepAction, StepHook, StepPoint};
use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use txlog_base::obs::{Counter, Metrics};
use txlog_base::TxError;
use txlog_relational::codec::{self, CodecError, Decoder, Encoder};
use txlog_relational::{DbState, Delta, Schema};

/// Durability policy for a [`Database`](crate::db::Database).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Durability {
    /// No persistence: the database lives and dies with the process.
    Off,
    /// Write-ahead logging through the group-commit log writer: every
    /// commit enqueues its record and is acknowledged only after the
    /// batch containing it has been fsynced.
    Wal {
        /// Maximum commit records the log writer drains into one batch
        /// (one fsync per batch). 1 = fsync per commit; larger values
        /// let concurrent sessions share a flush. Unlike the old fsync
        /// *cadence* of the same name, no commit is ever acknowledged
        /// before its batch is durable. Values of 0 are treated as 1.
        sync_every: u64,
        /// Append a full-state checkpoint after every `checkpoint_every`
        /// commits (0 = never checkpoint after the initial one).
        checkpoint_every: u64,
    },
}

impl Durability {
    /// WAL with conservative defaults: flush every record, checkpoint
    /// every 1024 commits.
    pub fn wal() -> Durability {
        Durability::Wal {
            sync_every: 1,
            checkpoint_every: 1024,
        }
    }
}

/// Why a log operation or a recovery failed.
#[derive(Debug)]
pub enum WalError {
    /// The underlying store failed.
    Io {
        /// The store operation that failed.
        op: &'static str,
        /// Description of the failure.
        detail: String,
    },
    /// A record payload failed to decode.
    Codec(CodecError),
    /// The log's contents contradict the protocol (e.g. a commit record
    /// before any checkpoint, or a version gap).
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// Description of the contradiction.
        detail: String,
    },
    /// The schema recorded in the log's checkpoint does not match the
    /// schema the database was opened with.
    SchemaMismatch {
        /// Description of the divergence.
        detail: String,
    },
    /// Engine-level validation of the recovered head failed (schema
    /// validation or a registered constraint).
    Engine(TxError),
    /// A previous failure left the log's durable contents possibly
    /// ahead of the in-memory head (e.g. a commit record appended but
    /// its fsync failed), so the writer refuses every further append:
    /// handing out the same version twice would make recovery truncate
    /// at the duplicate and drop acknowledged commits. Recover from the
    /// log (reopen the database) to resume.
    Poisoned {
        /// The failure that poisoned the log.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { op, detail } => write!(f, "log store {op} failed: {detail}"),
            WalError::Codec(e) => write!(f, "log record codec error: {e}"),
            WalError::Corrupt { offset, detail } => {
                write!(f, "log corrupt at byte {offset}: {detail}")
            }
            WalError::SchemaMismatch { detail } => {
                write!(f, "log schema mismatch: {detail}")
            }
            WalError::Engine(e) => write!(f, "recovered head rejected: {e}"),
            WalError::Poisoned { detail } => {
                write!(
                    f,
                    "log poisoned by an earlier failure ({detail}); reopen to recover"
                )
            }
        }
    }
}

impl std::error::Error for WalError {
    /// The wrapped cause: a [`CodecError`] under [`WalError::Codec`], a
    /// [`TxError`] under [`WalError::Engine`]. The message-only variants
    /// (`Io`, `Corrupt`, `SchemaMismatch`, `Poisoned`) are themselves
    /// the root cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Codec(e) => Some(e),
            WalError::Engine(e) => Some(e),
            WalError::Io { .. }
            | WalError::Corrupt { .. }
            | WalError::SchemaMismatch { .. }
            | WalError::Poisoned { .. } => None,
        }
    }
}

impl From<CodecError> for WalError {
    fn from(e: CodecError) -> WalError {
        WalError::Codec(e)
    }
}

impl From<TxError> for WalError {
    fn from(e: TxError) -> WalError {
        WalError::Engine(e)
    }
}

/// An append-only byte log the WAL writes through. Implementations must
/// persist appends in order; `sync` makes everything appended so far
/// durable. The trait exists so tests can inject failures at exact byte
/// offsets ([`MemStore`]) while production uses files ([`FileStore`]).
pub trait LogStore: Send {
    /// Current length of the log in bytes.
    fn len(&self) -> Result<u64, WalError>;
    /// True iff the log holds no bytes.
    fn is_empty(&self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }
    /// Read the entire log.
    fn read_all(&mut self) -> Result<Vec<u8>, WalError>;
    /// Append bytes at the end. A failed append may leave a *prefix* of
    /// `bytes` in the log (a torn write) — recovery must cope.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Make all appended bytes durable.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Discard every byte at offset `len` and beyond.
    fn truncate(&mut self, len: u64) -> Result<(), WalError>;
}

/// File-backed [`LogStore`].
pub struct FileStore {
    file: File,
}

impl FileStore {
    /// Open (creating if absent) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<FileStore, WalError> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| WalError::Io {
                op: "open",
                detail: format!("{}: {e}", path.display()),
            })?;
        // The file's directory entry must itself be durable, or a crash
        // can make a freshly created log — initial checkpoint, early
        // commits and all — vanish even though every record was fsynced.
        #[cfg(unix)]
        {
            let dir = match path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| WalError::Io {
                    op: "sync-dir",
                    detail: format!("{}: {e}", dir.display()),
                })?;
        }
        Ok(FileStore { file })
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> WalError {
    move |e| WalError::Io {
        op,
        detail: e.to_string(),
    }
}

impl LogStore for FileStore {
    fn len(&self) -> Result<u64, WalError> {
        Ok(self.file.metadata().map_err(io_err("stat"))?.len())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        self.file.seek(SeekFrom::Start(0)).map_err(io_err("seek"))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf).map_err(io_err("read"))?;
        Ok(buf)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file.seek(SeekFrom::End(0)).map_err(io_err("seek"))?;
        self.file.write_all(bytes).map_err(io_err("append"))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(io_err("sync"))
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.file.set_len(len).map_err(io_err("truncate"))?;
        self.file.seek(SeekFrom::End(0)).map_err(io_err("seek"))?;
        Ok(())
    }
}

/// Buffer plus durability watermark shared by every [`MemStore`] clone.
#[derive(Default)]
struct MemInner {
    buf: Vec<u8>,
    /// Bytes made durable by the last successful `sync`. A simulated
    /// power loss keeps only `buf[..synced]`; the tail past it was
    /// accepted but never flushed.
    synced: usize,
}

/// In-memory [`LogStore`] with deterministic write-failure injection.
///
/// Clones share the same buffer, so a test can keep a handle, hand a
/// clone to a `Database`, "crash" it, and then inspect or recover from
/// exactly the bytes that made it to the store. The store also tracks a
/// *durability watermark* — how many bytes the last successful `sync`
/// covered — so a crash simulator can distinguish the power-loss image
/// ([`MemStore::durable_contents`]) from the full buffer.
#[derive(Clone, Default)]
pub struct MemStore {
    inner: Arc<Mutex<MemInner>>,
    /// Absolute byte offset at which writes die: an append that would
    /// carry the log past this offset writes only the prefix up to it
    /// and fails, and every later append fails outright — simulating a
    /// crash mid-write.
    fail_at: Option<u64>,
    /// Absolute byte offset past which `sync` dies: once the log holds
    /// more than this many bytes every sync fails (the appended bytes
    /// stay in the buffer) — simulating a disk that accepts writes but
    /// can no longer flush them.
    fail_sync_at: Option<u64>,
}

impl MemStore {
    /// An empty store that never fails.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// A store pre-loaded with `bytes` (e.g. a captured log image),
    /// treated as already durable.
    pub fn from_bytes(bytes: Vec<u8>) -> MemStore {
        let synced = bytes.len();
        MemStore {
            inner: Arc::new(Mutex::new(MemInner { buf: bytes, synced })),
            fail_at: None,
            fail_sync_at: None,
        }
    }

    /// Configure writes to die at absolute byte offset `offset`.
    pub fn failing_at(mut self, offset: u64) -> MemStore {
        self.fail_at = Some(offset);
        self
    }

    /// Configure `sync` to fail once the log holds more than `offset`
    /// bytes (appends still land in the buffer).
    pub fn failing_sync_at(mut self, offset: u64) -> MemStore {
        self.fail_sync_at = Some(offset);
        self
    }

    /// A copy of the store's current contents.
    pub fn contents(&self) -> Vec<u8> {
        self.inner.lock().expect("mem store lock").buf.clone()
    }

    /// Bytes covered by the last successful `sync` — the power-loss
    /// crash image: everything after the watermark was accepted into
    /// the buffer but never made durable.
    pub fn durable_contents(&self) -> Vec<u8> {
        let inner = self.inner.lock().expect("mem store lock");
        inner.buf[..inner.synced].to_vec()
    }

    /// Length of [`MemStore::durable_contents`].
    pub fn durable_len(&self) -> usize {
        self.inner.lock().expect("mem store lock").synced
    }
}

impl LogStore for MemStore {
    fn len(&self) -> Result<u64, WalError> {
        Ok(self.inner.lock().expect("mem store lock").buf.len() as u64)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        Ok(self.contents())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut inner = self.inner.lock().expect("mem store lock");
        if let Some(fail_at) = self.fail_at {
            let cur = inner.buf.len() as u64;
            let end = cur + bytes.len() as u64;
            if end > fail_at {
                let keep = fail_at.saturating_sub(cur) as usize;
                inner.buf.extend_from_slice(&bytes[..keep]);
                return Err(WalError::Io {
                    op: "append",
                    detail: format!("injected write failure at byte {fail_at}"),
                });
            }
        }
        inner.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut inner = self.inner.lock().expect("mem store lock");
        if let Some(fail_sync_at) = self.fail_sync_at {
            if inner.buf.len() as u64 > fail_sync_at {
                return Err(WalError::Io {
                    op: "sync",
                    detail: format!("injected sync failure past byte {fail_sync_at}"),
                });
            }
        }
        inner.synced = inner.buf.len();
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        let mut inner = self.inner.lock().expect("mem store lock");
        inner.buf.truncate(len as usize);
        inner.synced = inner.synced.min(inner.buf.len());
        Ok(())
    }
}

const TAG_COMMIT: u8 = 1;
const TAG_CHECKPOINT: u8 = 2;

/// The write side: frames records and reports into the `wal_*`
/// counters. Sync and checkpoint *cadence* live one layer up, in the
/// group-commit log writer (`group::GroupCommitter`): the `Wal`
/// only knows how to append a record, flush, and poison itself.
///
/// ## Poisoning
///
/// Under group commit a version is consumed when the commit *installs*,
/// before its record is written; the record is appended afterwards by
/// the log-writer thread. A failure while writing therefore always
/// leaves a gap or a record in doubt — a clean append failure means the
/// installed version will never reach the log, a failed fsync means the
/// appended records may or may not be durable, a torn append could not
/// be rolled back. In every such case the `Wal` poisons itself (here
/// for its own failures, or via [`Wal::poison_external`] for failures
/// the committer detects): every later operation returns
/// [`WalError::Poisoned`] until the database is reopened through
/// recovery. Otherwise the log would grow a version gap or a duplicate,
/// recovery's gapless-version scan would truncate there, and every
/// acknowledged commit after it would be silently dropped.
pub(crate) struct Wal {
    store: Box<dyn LogStore>,
    poisoned: Option<String>,
    metrics: Metrics,
    /// Simulation seam (see [`crate::db::Database::set_step_hook`]):
    /// append/fsync become schedulable, failable steps. `None` in normal
    /// operation — one branch per store operation.
    hook: Option<Arc<dyn StepHook>>,
}

impl Wal {
    pub(crate) fn new(store: Box<dyn LogStore>, metrics: Metrics) -> Wal {
        Wal {
            store,
            poisoned: None,
            metrics,
            hook: None,
        }
    }

    pub(crate) fn set_hook(&mut self, hook: Arc<dyn StepHook>) {
        self.hook = Some(hook);
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    fn check_poisoned(&self) -> Result<(), WalError> {
        match &self.poisoned {
            Some(detail) => Err(WalError::Poisoned {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    fn poison(&mut self, detail: String) {
        if self.poisoned.is_none() {
            self.poisoned = Some(detail);
            if let Some(h) = &self.hook {
                h.on_event(SimEvent::WalPoisoned);
            }
        }
    }

    /// Poison on behalf of the group committer, for failures the `Wal`
    /// itself reports cleanly but that leave an *installed* version
    /// unloggable (e.g. a clean append failure after the commit already
    /// took its version under the head lock).
    pub(crate) fn poison_external(&mut self, detail: String) {
        self.poison(detail);
    }

    pub(crate) fn append_record(
        &mut self,
        payload: &[u8],
        kind: RecordKind,
    ) -> Result<(), WalError> {
        self.check_poisoned()?;
        if let Some(h) = &self.hook {
            if h.on_step(StepPoint::WalAppend(kind)) == StepAction::FailIo {
                // a clean injected failure: no bytes reached the store,
                // so nothing to roll back and no reason to poison — the
                // version is provably unlogged and may be reused
                return Err(WalError::Io {
                    op: "append",
                    detail: "injected append failure (schedule)".to_string(),
                });
            }
        }
        let before = self.store.len()?;
        let bytes = codec::encode_frame(payload, u32::MAX).map_err(|e| WalError::Corrupt {
            offset: before,
            detail: e.to_string(),
        })?;
        if let Err(e) = self.store.append(&bytes) {
            // A failed append may have left a torn prefix; pull the log
            // back to the last record boundary so a later record is not
            // appended after unreachable garbage (which would hide it
            // from recovery). If even the truncate fails the tail stays
            // torn, so refuse further appends until recovery cleans it.
            if self.store.truncate(before).is_err() {
                self.poison(format!("torn append could not be rolled back: {e}"));
            }
            return Err(e);
        }
        self.metrics.bump(Counter::WalAppends);
        self.metrics.add(Counter::WalBytes, bytes.len() as u64);
        if let Some(h) = &self.hook {
            h.on_event(SimEvent::WalAppended(kind));
        }
        Ok(())
    }

    pub(crate) fn sync(&mut self) -> Result<(), WalError> {
        self.check_poisoned()?;
        let injected = self
            .hook
            .as_ref()
            .is_some_and(|h| h.on_step(StepPoint::WalFsync) == StepAction::FailIo);
        let synced = if injected {
            Err(WalError::Io {
                op: "sync",
                detail: "injected sync failure (schedule)".to_string(),
            })
        } else {
            self.store.sync()
        };
        if let Err(e) = synced {
            // The appended records may or may not be durable (and after
            // a failed fsync the kernel may have dropped the dirty
            // pages, so retrying proves nothing): their versions must
            // never be reused.
            self.poison(format!("sync failed with records in flight: {e}"));
            return Err(e);
        }
        self.metrics.bump(Counter::WalFsyncs);
        if let Some(h) = &self.hook {
            h.on_event(SimEvent::WalSynced);
        }
        Ok(())
    }

    /// Encode one commit record's payload. Called under the head lock at
    /// submit time, so the log-writer thread only ever moves bytes.
    pub(crate) fn encode_commit(
        version: u64,
        label: &str,
        delta: &Delta,
        state_after: &DbState,
    ) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u8(TAG_COMMIT);
        e.u64(version);
        e.str(label);
        e.u64(state_after.next_tuple_id());
        e.delta(delta);
        e.finish()
    }

    /// Append one commit record (no fsync — the caller decides when the
    /// batch flushes). The group committer appends pre-encoded payloads
    /// directly; this convenience wrapper serves the tests.
    #[cfg(test)]
    pub(crate) fn log_commit(
        &mut self,
        version: u64,
        label: &str,
        delta: &Delta,
        state_after: &DbState,
    ) -> Result<(), WalError> {
        let payload = Wal::encode_commit(version, label, delta, state_after);
        self.append_record(&payload, RecordKind::Commit)
    }

    /// Append a full-state checkpoint record (no fsync).
    pub(crate) fn log_checkpoint(
        &mut self,
        version: u64,
        schema: &Schema,
        state: &DbState,
    ) -> Result<(), WalError> {
        self.check_poisoned()?;
        let mut e = Encoder::new();
        e.u8(TAG_CHECKPOINT);
        e.u64(version);
        e.schema(schema);
        e.db_state(state);
        self.append_record(&e.finish(), RecordKind::Checkpoint)?;
        self.metrics.bump(Counter::WalCheckpoints);
        Ok(())
    }
}

/// What log recovery did, surfaced through the builder's
/// [`open_path`](crate::db::DatabaseBuilder::open_path) and
/// [`open_store`](crate::db::DatabaseBuilder::open_store).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// The recovered head version.
    pub version: u64,
    /// Version of the checkpoint replay started from.
    pub checkpoint_version: u64,
    /// Commit deltas replayed on top of the checkpoint.
    pub replayed_deltas: u64,
    /// Torn/corrupt tail records dropped by truncation (framing is lost
    /// past the first invalid record, so this is 0 or 1).
    pub truncated_records: u64,
    /// Bytes dropped by truncation.
    pub truncated_bytes: u64,
    /// True when the log held no usable records and the database was
    /// freshly initialized instead.
    pub fresh: bool,
}

pub(crate) struct RecoveredLog {
    pub state: DbState,
    pub version: u64,
    pub report: RecoveryReport,
    /// The replayed commit suffix (version, delta) in commit order —
    /// everything since the checkpoint replay started from. The event
    /// dispatcher replays these through registered automata so pattern
    /// state survives recovery.
    pub replayed: Vec<(u64, Delta)>,
}

/// One parsed, checksum-valid record.
enum Record {
    Commit {
        version: u64,
        next_tuple: u64,
        delta: Delta,
    },
    Checkpoint {
        version: u64,
        schema: Schema,
        state: DbState,
    },
}

fn decode_record(payload: &[u8]) -> Result<Record, CodecError> {
    let mut d = Decoder::new(payload);
    let at = d.offset();
    match d.u8("record tag")? {
        TAG_COMMIT => {
            let version = d.u64("commit version")?;
            let _label = d.str("commit label")?;
            let next_tuple = d.u64("commit allocator")?;
            let delta = d.delta()?;
            d.finish()?;
            Ok(Record::Commit {
                version,
                next_tuple,
                delta,
            })
        }
        TAG_CHECKPOINT => {
            let version = d.u64("checkpoint version")?;
            let schema = d.schema()?;
            let state = d.db_state()?;
            d.finish()?;
            Ok(Record::Checkpoint {
                version,
                schema,
                state,
            })
        }
        tag => Err(CodecError::BadTag {
            offset: at,
            tag,
            what: "log record",
        }),
    }
}

/// Render a schema's declarations for a mismatch diagnostic.
fn schema_sig(s: &Schema) -> String {
    let mut out = String::new();
    for d in s.decls() {
        out.push_str(&d.to_string());
        out.push(' ');
    }
    out
}

/// Scan the log, truncate any torn or corrupt tail back to the last
/// valid record, and rebuild the state at the surviving head: the latest
/// checkpoint plus the replayed delta suffix. Returns `None` when no
/// usable record survives (the caller initializes afresh).
///
/// Consistency rules enforced during the scan — a record violating one
/// ends the valid prefix exactly like a bad checksum:
///
/// * the first record must be a checkpoint (the writer always opens a
///   log with one);
/// * commit versions are gapless: each must be exactly one past the
///   previous record's version;
/// * a mid-log checkpoint must carry the version of the commit before it.
///
/// A checkpoint recording a different schema than the one the database
/// is being opened with is a configuration error, not corruption, and
/// fails the whole recovery.
pub(crate) fn recover_log(
    store: &mut dyn LogStore,
    schema: &Schema,
    metrics: &Metrics,
) -> Result<Option<RecoveredLog>, WalError> {
    let bytes = store.read_all()?;
    let mut valid_end = 0usize;
    let mut checkpoint: Option<(u64, DbState)> = None;
    // (version, post-commit allocator, delta) since the last checkpoint
    let mut suffix: VecDeque<(u64, u64, Delta)> = VecDeque::new();
    let mut last_version: Option<u64> = None;
    // `Ok(None)` (a torn tail: the record never finished writing) and
    // `Err(_)` (bit rot, or a torn write inside the record) both mean
    // the valid prefix ends here
    while let Ok(Some((payload, consumed))) = codec::decode_frame(&bytes[valid_end..], u32::MAX) {
        let Ok(record) = decode_record(payload) else {
            break;
        };
        match record {
            Record::Commit {
                version,
                next_tuple,
                delta,
            } => {
                match last_version {
                    // a log must open with a checkpoint; a commit first
                    // means the prefix is unusable from here on
                    None => break,
                    Some(prev) if version != prev + 1 => break,
                    Some(_) => {}
                }
                suffix.push_back((version, next_tuple, delta));
                last_version = Some(version);
            }
            Record::Checkpoint {
                version,
                schema: logged,
                state,
            } => {
                match last_version {
                    Some(prev) if version != prev => break,
                    _ => {}
                }
                if logged.decls() != schema.decls() {
                    return Err(WalError::SchemaMismatch {
                        detail: format!(
                            "log checkpoint declares [{}] but the database was opened \
                             with [{}]",
                            schema_sig(&logged),
                            schema_sig(schema)
                        ),
                    });
                }
                checkpoint = Some((version, state));
                suffix.clear();
                last_version = Some(version);
            }
        }
        valid_end += consumed;
    }
    let (valid_end, total) = (valid_end as u64, bytes.len() as u64);
    if valid_end < total {
        store.truncate(valid_end)?;
        metrics.bump(Counter::RecoverTruncatedRecords);
    }
    let Some((checkpoint_version, mut state)) = checkpoint else {
        return Ok(None);
    };
    let mut version = checkpoint_version;
    let replayed = suffix.len() as u64;
    let mut replayed_deltas = Vec::with_capacity(suffix.len());
    for (v, next_tuple, delta) in suffix {
        state = delta.apply(&state).map_err(|e| WalError::Corrupt {
            offset: valid_end,
            detail: format!("replaying commit {v} failed: {e}"),
        })?;
        state.advance_allocator(next_tuple);
        version = v;
        metrics.bump(Counter::RecoverReplayedDeltas);
        replayed_deltas.push((v, delta));
    }
    Ok(Some(RecoveredLog {
        state,
        version,
        replayed: replayed_deltas,
        report: RecoveryReport {
            version,
            checkpoint_version,
            replayed_deltas: replayed,
            truncated_records: u64::from(valid_end < total),
            truncated_bytes: total - valid_end,
            fresh: false,
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use txlog_base::Atom;

    fn schema() -> Schema {
        Schema::new()
            .relation("R", &["a", "b"])
            .expect("schema builds")
    }

    fn commit_chain(n: u64) -> (Schema, Vec<DbState>, MemStore) {
        // build a chain of states and log them through a Wal, flushing
        // after every record the way a sync_every=1 committer would
        let sch = schema();
        let rid = sch.rel_id("R").expect("R declared");
        let store = MemStore::new();
        let mut wal = Wal::new(Box::new(store.clone()), Metrics::disabled());
        let mut states = vec![sch.initial_state()];
        wal.log_checkpoint(0, &sch, &states[0]).expect("checkpoint");
        wal.sync().expect("checkpoint syncs");
        for v in 1..=n {
            let prev = states.last().expect("non-empty").clone();
            let (next, _) = prev
                .insert_fields(rid, &[Atom::nat(v), Atom::str("x")])
                .expect("insert");
            let delta = prev.diff(&next);
            wal.log_commit(v, &format!("c{v}"), &delta, &next)
                .expect("log commit");
            wal.sync().expect("commit syncs");
            states.push(next);
        }
        (sch, states, store)
    }

    #[test]
    fn recover_replays_full_chain() {
        let (sch, states, store) = commit_chain(5);
        let mut s = MemStore::from_bytes(store.contents());
        let r = recover_log(&mut s, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .expect("log non-empty");
        assert_eq!(r.version, 5);
        assert_eq!(r.report.replayed_deltas, 5);
        assert_eq!(r.report.truncated_records, 0);
        let expected = states.last().expect("non-empty");
        assert_eq!(
            codec::encode_db_state(&r.state),
            codec::encode_db_state(expected)
        );
    }

    #[test]
    fn recover_from_checkpointed_log_skips_replay() {
        let sch = schema();
        let rid = sch.rel_id("R").expect("R declared");
        let store = MemStore::new();
        let mut wal = Wal::new(Box::new(store.clone()), Metrics::disabled());
        let mut state = sch.initial_state();
        wal.log_checkpoint(0, &sch, &state).expect("checkpoint");
        for v in 1..=5u64 {
            let (next, _) = state
                .insert_fields(rid, &[Atom::nat(v), Atom::str("y")])
                .expect("insert");
            let delta = state.diff(&next);
            wal.log_commit(v, "c", &delta, &next).expect("log");
            state = next;
            // checkpoint every 2 commits, as the committer's cadence would
            if v % 2 == 0 {
                wal.log_checkpoint(v, &sch, &state).expect("checkpoint");
            }
        }
        wal.sync().expect("sync");
        let mut s = MemStore::from_bytes(store.contents());
        let r = recover_log(&mut s, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .expect("log non-empty");
        assert_eq!(r.version, 5);
        assert_eq!(r.report.checkpoint_version, 4);
        assert_eq!(r.report.replayed_deltas, 1);
        assert_eq!(
            codec::encode_db_state(&r.state),
            codec::encode_db_state(&state)
        );
    }

    #[test]
    fn torn_tail_is_truncated_to_a_prefix() {
        let (sch, states, store) = commit_chain(3);
        let bytes = store.contents();
        // chop mid-way through the last record
        let mut s = MemStore::from_bytes(bytes[..bytes.len() - 3].to_vec());
        let r = recover_log(&mut s, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .expect("log non-empty");
        assert_eq!(r.version, 2);
        assert_eq!(r.report.truncated_records, 1);
        assert!(r.report.truncated_bytes > 0);
        assert_eq!(
            codec::encode_db_state(&r.state),
            codec::encode_db_state(&states[2])
        );
        // the store was truncated back to the valid prefix: a second
        // recovery sees a clean log
        let r2 = recover_log(&mut s, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .expect("log non-empty");
        assert_eq!(r2.version, 2);
        assert_eq!(r2.report.truncated_records, 0);
    }

    #[test]
    fn empty_or_garbage_log_recovers_to_none() {
        let sch = schema();
        let mut empty = MemStore::new();
        assert!(recover_log(&mut empty, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .is_none());
        let mut garbage = MemStore::from_bytes(vec![0xAB; 37]);
        assert!(recover_log(&mut garbage, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .is_none());
        assert_eq!(garbage.len().expect("len"), 0, "garbage tail truncated");
    }

    #[test]
    fn schema_mismatch_is_a_hard_error() {
        let (_, _, store) = commit_chain(1);
        let other = Schema::new().relation("S", &["z"]).expect("schema builds");
        let mut s = MemStore::from_bytes(store.contents());
        match recover_log(&mut s, &other, &Metrics::disabled()) {
            Err(WalError::SchemaMismatch { .. }) => {}
            Err(other) => panic!("expected SchemaMismatch, got {other:?}"),
            Ok(_) => panic!("expected SchemaMismatch, got a recovered log"),
        }
    }

    #[test]
    fn sync_failure_after_commit_append_poisons_the_wal() {
        let sch = schema();
        let rid = sch.rel_id("R").expect("R declared");
        // measure the opening checkpoint so only post-checkpoint syncs die
        let probe = MemStore::new();
        let mut w = Wal::new(Box::new(probe.clone()), Metrics::disabled());
        w.log_checkpoint(0, &sch, &sch.initial_state())
            .expect("checkpoint");
        let checkpoint_len = probe.contents().len() as u64;

        let store = MemStore::new().failing_sync_at(checkpoint_len);
        let mut wal = Wal::new(Box::new(store.clone()), Metrics::disabled());
        let s0 = sch.initial_state();
        wal.log_checkpoint(0, &sch, &s0)
            .expect("checkpoint appends");
        wal.sync().expect("checkpoint syncs");
        let (s1, _) = s0
            .insert_fields(rid, &[Atom::nat(1), Atom::str("x")])
            .expect("insert");
        let d1 = s0.diff(&s1);
        // the append lands, the batch sync dies: the record may be
        // durable, so the flush must fail AND the wal must seal itself
        wal.log_commit(1, "c1", &d1, &s1).expect("append lands");
        match wal.sync() {
            Err(WalError::Io { op: "sync", .. }) => {}
            other => panic!("expected a sync failure, got {other:?}"),
        }
        match wal.log_commit(1, "c1-retry", &d1, &s1) {
            Err(WalError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // the logged-but-unacknowledged commit is a valid prefix: no
        // duplicate version was ever appended after it
        let mut s = MemStore::from_bytes(store.contents());
        let r = recover_log(&mut s, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .expect("log non-empty");
        assert_eq!(r.version, 1);
        assert_eq!(
            codec::encode_db_state(&r.state),
            codec::encode_db_state(&s1)
        );
    }

    #[test]
    fn torn_checkpoint_append_rolls_back_to_a_clean_prefix() {
        let sch = schema();
        let rid = sch.rel_id("R").expect("R declared");
        // measure the layout: opening checkpoint, then one commit record
        let probe = MemStore::new();
        let mut w = Wal::new(Box::new(probe.clone()), Metrics::disabled());
        let s0 = sch.initial_state();
        w.log_checkpoint(0, &sch, &s0).expect("checkpoint");
        let (s1, _) = s0
            .insert_fields(rid, &[Atom::nat(1), Atom::str("x")])
            .expect("insert");
        let d1 = s0.diff(&s1);
        w.log_commit(1, "c1", &d1, &s1).expect("commit logs");
        let commit_end = probe.contents().len() as u64;

        // die a few bytes into the checkpoint that follows the commit
        let store = MemStore::new().failing_at(commit_end + 3);
        let mut wal = Wal::new(Box::new(store.clone()), Metrics::disabled());
        wal.log_checkpoint(0, &sch, &s0).expect("checkpoint fits");
        wal.log_commit(1, "c1", &d1, &s1).expect("commit fits");
        assert!(
            wal.log_checkpoint(1, &sch, &s1).is_err(),
            "the checkpoint append must fail"
        );
        // the torn prefix was rolled back, so the wal itself is not
        // poisoned — whether the *installed* commit the checkpoint was
        // covering survives is the committer's call (it poisons via
        // poison_external when a failed append strands a version)
        assert!(!wal.is_poisoned());
        wal.poison_external("checkpoint after commit 1 failed".to_string());
        match wal.log_commit(2, "c2", &d1, &s1) {
            Err(WalError::Poisoned { .. }) => {}
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // the surviving log is the checkpoint plus commit 1 (the torn
        // checkpoint was rolled back), a clean prefix
        assert_eq!(store.contents().len() as u64, commit_end);
        let mut s = MemStore::from_bytes(store.contents());
        let r = recover_log(&mut s, &sch, &Metrics::disabled())
            .expect("recovery runs")
            .expect("log non-empty");
        assert_eq!(r.version, 1);
        assert_eq!(r.report.truncated_records, 0);
        assert_eq!(
            codec::encode_db_state(&r.state),
            codec::encode_db_state(&s1)
        );
    }

    #[test]
    fn mem_store_sync_watermark_tracks_durable_prefix() {
        let mut store = MemStore::new();
        store.append(b"abc").expect("append");
        assert_eq!(store.durable_len(), 0, "unsynced bytes are not durable");
        store.sync().expect("sync");
        assert_eq!(store.durable_len(), 3);
        store.append(b"defg").expect("append");
        assert_eq!(store.durable_contents(), b"abc".to_vec());
        store.truncate(2).expect("truncate");
        assert_eq!(store.durable_len(), 2, "truncate clamps the watermark");
    }

    #[test]
    fn injected_write_failure_leaves_recoverable_prefix() {
        let sch = schema();
        let rid = sch.rel_id("R").expect("R declared");
        // capture a full run first to learn the record layout
        let (_, states, full) = commit_chain(4);
        let full_len = full.contents().len() as u64;
        // now kill the write stream at every offset and recover
        for fail_at in 0..=full_len {
            let store = MemStore::new().failing_at(fail_at);
            let mut wal = Wal::new(Box::new(store.clone()), Metrics::disabled());
            let mut state = sch.initial_state();
            let mut durable = 0u64; // commits acknowledged after their sync
            if wal.log_checkpoint(0, &sch, &state).is_ok() && wal.sync().is_ok() {
                for v in 1..=4u64 {
                    let (next, _) = state
                        .insert_fields(rid, &[Atom::nat(v), Atom::str("x")])
                        .expect("insert");
                    let delta = state.diff(&next);
                    if wal.log_commit(v, &format!("c{v}"), &delta, &next).is_err()
                        || wal.sync().is_err()
                    {
                        break;
                    }
                    durable = v;
                    state = next;
                }
            }
            let mut s = MemStore::from_bytes(store.contents());
            let recovered = recover_log(&mut s, &sch, &Metrics::disabled()).expect("recovery runs");
            let version = recovered.as_ref().map_or(0, |r| r.version);
            // every acknowledged commit must be recovered (sync_every=1)
            assert!(
                version >= durable,
                "fail_at={fail_at}: acked {durable} but recovered {version}"
            );
            if let Some(r) = recovered {
                let expected = &states[r.version as usize];
                assert_eq!(
                    codec::encode_db_state(&r.state),
                    codec::encode_db_state(expected),
                    "fail_at={fail_at}: recovered state is not the version-{} prefix",
                    r.version
                );
            }
        }
    }

    /// Every `WalError` variant either exposes its wrapped cause through
    /// `Error::source()` or is itself the root cause.
    #[test]
    fn wal_error_source_chain_per_variant() {
        use std::error::Error as _;
        let io = WalError::Io {
            op: "append",
            detail: "disk full".to_string(),
        };
        assert!(io.source().is_none());
        let corrupt = WalError::Corrupt {
            offset: 12,
            detail: "version gap".to_string(),
        };
        assert!(corrupt.source().is_none());
        let mismatch = WalError::SchemaMismatch {
            detail: "arity".to_string(),
        };
        assert!(mismatch.source().is_none());
        let poisoned = WalError::Poisoned {
            detail: "torn append".to_string(),
        };
        assert!(poisoned.source().is_none());
        let codec = WalError::Codec(CodecError::BadMagic);
        let src = codec.source().expect("Codec chains its CodecError");
        assert!(src.downcast_ref::<CodecError>().is_some());
        let engine = WalError::Engine(TxError::eval("constraint rejected"));
        let src = engine.source().expect("Engine chains its TxError");
        assert!(src.downcast_ref::<TxError>().is_some());
    }
}
