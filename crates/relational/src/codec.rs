//! Binary codec for durable storage of relational values.
//!
//! The paper treats a database as a point in a history of states related
//! by transaction arcs; persisting that history means serializing exactly
//! two kinds of value: full states ([`DbState`], for checkpoints and
//! snapshots) and arcs ([`Delta`], for the write-ahead log). This module
//! defines a small, fixed, little-endian binary format for both, plus the
//! value types they contain ([`Atom`], field vectors, [`TupleVal`]) and
//! the [`Schema`] a snapshot is interpreted under.
//!
//! Design points:
//!
//! * **Strings, not interner indices.** [`Symbol`] indices are stable
//!   only within a process run, so `Atom::Str` is encoded as its
//!   length-prefixed UTF-8 text and re-interned on decode.
//! * **Typed errors, no panics.** Decoding arbitrary bytes returns a
//!   [`CodecError`] naming the offset and what was being read; corrupt
//!   input must never abort the process. Collection counts are read
//!   incrementally so a corrupt length prefix cannot trigger a huge
//!   up-front allocation.
//! * **Checksummed envelopes.** [`crc32`] is a hand-rolled table-driven
//!   CRC-32 (IEEE polynomial, the `zlib` one) used by the snapshot
//!   envelope here and by [`encode_frame`]/[`decode_frame`], the
//!   `len ‖ crc ‖ payload` framing that both the write-ahead log
//!   (`txlog_engine::wal`) and the wire protocol (`txlog_server::frame`)
//!   write and read.
//! * **Deterministic.** Encoding is a pure function of the value:
//!   `BTreeMap` ordering makes equal values encode to equal bytes, which
//!   is what lets recovery tests assert byte-identical states.

use crate::delta::{Delta, RelDelta, TupleChange};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::state::DbState;
use crate::tuple::TupleVal;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use txlog_base::{Atom, RelId, Symbol, TupleId};

/// Why a byte sequence could not be decoded. Every variant carries the
/// byte offset at which decoding failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The input ended before the value being read was complete.
    Truncated {
        /// Offset at which more bytes were needed.
        offset: usize,
        /// What was being read.
        what: &'static str,
    },
    /// A tag byte had no meaning for the value being read.
    BadTag {
        /// Offset of the offending tag byte.
        offset: usize,
        /// The tag found.
        tag: u8,
        /// What was being read.
        what: &'static str,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Offset of the string's first byte.
        offset: usize,
    },
    /// Decoding finished but input bytes remained.
    Trailing {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
    /// A snapshot envelope did not start with the expected magic bytes.
    BadMagic,
    /// A checksummed envelope failed CRC verification.
    Checksum {
        /// CRC recorded in the envelope.
        expected: u32,
        /// CRC of the bytes actually present.
        found: u32,
    },
    /// The bytes decoded structurally but describe an impossible value
    /// (e.g. a tuple whose arity contradicts its relation's).
    Invalid {
        /// Offset at which the inconsistency was detected.
        offset: usize,
        /// Description of the inconsistency.
        what: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, what } => {
                write!(f, "truncated input at byte {offset} while reading {what}")
            }
            CodecError::BadTag { offset, tag, what } => {
                write!(
                    f,
                    "bad tag {tag:#04x} at byte {offset} while reading {what}"
                )
            }
            CodecError::BadUtf8 { offset } => {
                write!(f, "invalid UTF-8 in string at byte {offset}")
            }
            CodecError::Trailing { offset } => {
                write!(f, "trailing bytes after value, starting at byte {offset}")
            }
            CodecError::BadMagic => write!(f, "bad magic: not a txlog snapshot"),
            CodecError::Checksum { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: recorded {expected:#010x}, computed {found:#010x}"
                )
            }
            CodecError::Invalid { offset, what } => {
                write!(f, "invalid value at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 of `bytes` (IEEE polynomial, as used by zlib/PNG/Ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Frames: len ‖ crc ‖ payload — the one framing the write-ahead log and
// the wire protocol share.
// ---------------------------------------------------------------------------

/// Bytes of framing before the payload: `len: u32 ‖ crc: u32`.
pub const FRAME_HEADER_LEN: usize = 8;

/// Why a byte sequence is not a valid frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The length prefix exceeds the configured bound.
    TooLarge {
        /// The length the prefix claimed.
        len: u32,
        /// The configured bound.
        max: u32,
    },
    /// The payload's CRC-32 does not match the header's.
    Checksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload actually received.
        found: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Checksum { expected, found } => write!(
                f,
                "frame checksum mismatch: header {expected:#010x}, payload {found:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frame a payload: a little-endian `u32` payload length, the payload's
/// [`crc32`], then the payload bytes. Fails (rather than silently
/// wrapping the length) when the payload exceeds `max`.
pub fn encode_frame(payload: &[u8], max: u32) -> Result<Vec<u8>, FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= max)
        .ok_or(FrameError::TooLarge {
            len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
            max,
        })?;
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((payload, consumed)))` — a complete, checksummed frame;
///   `consumed` bytes of `buf` belong to it.
/// * `Ok(None)` — `buf` holds a valid prefix of a frame: a stream reader
///   reads more, log recovery has found its torn tail.
/// * `Err(_)` — the bytes can never become a valid frame.
///
/// Total: never panics, for any input.
pub fn decode_frame(buf: &[u8], max: u32) -> Result<Option<(&[u8], usize)>, FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let Some(payload) = buf[FRAME_HEADER_LEN..].get(..len as usize) else {
        return Ok(None);
    };
    let found = crc32(payload);
    if found != expected {
        return Err(FrameError::Checksum { expected, found });
    }
    Ok(Some((payload, FRAME_HEADER_LEN + payload.len())))
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

const TAG_NAT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_NO_ID: u8 = 0;
const TAG_WITH_ID: u8 = 1;

/// Append-only writer producing the codec's byte format.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, by reference.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write one [`Atom`]. Symbols are written as their text, since
    /// interner indices are process-local.
    pub fn atom(&mut self, a: Atom) {
        match a {
            Atom::Nat(n) => {
                self.u8(TAG_NAT);
                self.u64(n);
            }
            Atom::Str(s) => {
                self.u8(TAG_STR);
                self.str(s.as_str());
            }
        }
    }

    /// Write a field vector (count-prefixed atoms).
    pub fn fields(&mut self, fs: &[Atom]) {
        self.u32(fs.len() as u32);
        for &a in fs {
            self.atom(a);
        }
    }

    /// Write a [`TupleVal`] (optional identity plus fields).
    pub fn tuple_val(&mut self, t: &TupleVal) {
        match t.id {
            Some(id) => {
                self.u8(TAG_WITH_ID);
                self.u64(id.0);
            }
            None => self.u8(TAG_NO_ID),
        }
        self.fields(&t.fields);
    }

    fn id_fields_map(&mut self, m: &BTreeMap<TupleId, Arc<[Atom]>>) {
        self.u32(m.len() as u32);
        for (&tid, fs) in m {
            self.u64(tid.0);
            self.fields(fs);
        }
    }

    /// Write one relation's change record.
    pub fn rel_delta(&mut self, rd: &RelDelta) {
        self.u32(rd.arity as u32);
        self.u8(u8::from(rd.created) | (u8::from(rd.dropped) << 1));
        self.id_fields_map(&rd.inserted);
        self.id_fields_map(&rd.deleted);
        self.u32(rd.modified.len() as u32);
        for (&tid, c) in &rd.modified {
            self.u64(tid.0);
            self.fields(&c.old);
            self.fields(&c.new);
        }
    }

    /// Write a [`Delta`] (count-prefixed non-empty relation records).
    pub fn delta(&mut self, d: &Delta) {
        let count = d.rels().count();
        self.u32(count as u32);
        for (rid, rd) in d.rels() {
            self.u32(rid.0);
            self.rel_delta(rd);
        }
    }

    /// Write a full [`DbState`]: the allocator, then every relation's
    /// identity, arity, and tuples in deterministic order.
    pub fn db_state(&mut self, s: &DbState) {
        self.u64(s.next_tuple);
        self.u32(s.rels.len() as u32);
        for (&rid, rel) in &s.rels {
            self.u32(rid.0);
            self.u32(rel.arity() as u32);
            self.u64(rel.len() as u64);
            for t in rel.iter() {
                self.u64(t.id().0);
                self.fields(t.fields());
            }
        }
    }

    /// Write a [`Schema`] (declarations in identifier order).
    pub fn schema(&mut self, s: &Schema) {
        let decls = s.decls();
        self.u32(decls.len() as u32);
        for d in decls {
            self.str(d.name.as_str());
            self.u32(d.attrs.len() as u32);
            for a in &d.attrs {
                self.str(a.as_str());
            }
            self.u8(u8::from(d.system));
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Cursor-style reader over the codec's byte format. Every method returns
/// a typed [`CodecError`] on malformed input; none panic.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True iff every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Require that every byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing { offset: self.pos })
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                what,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a raw byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8 { offset: start })
    }

    /// Read one [`Atom`].
    pub fn atom(&mut self) -> Result<Atom, CodecError> {
        let at = self.pos;
        match self.u8("atom tag")? {
            TAG_NAT => Ok(Atom::Nat(self.u64("nat atom")?)),
            TAG_STR => Ok(Atom::Str(Symbol::new(self.str("str atom")?))),
            tag => Err(CodecError::BadTag {
                offset: at,
                tag,
                what: "atom",
            }),
        }
    }

    /// Read a field vector.
    pub fn fields(&mut self) -> Result<Arc<[Atom]>, CodecError> {
        let count = self.u32("field count")? as usize;
        // Bound the pre-allocation by what the input could possibly hold
        // (each atom is at least 2 bytes) so a corrupt count cannot force
        // a huge allocation before the truncation error surfaces.
        let mut out = Vec::with_capacity(count.min(self.remaining() / 2 + 1));
        for _ in 0..count {
            out.push(self.atom()?);
        }
        Ok(out.into())
    }

    /// Read a [`TupleVal`].
    pub fn tuple_val(&mut self) -> Result<TupleVal, CodecError> {
        let at = self.pos;
        let id = match self.u8("tuple id tag")? {
            TAG_NO_ID => None,
            TAG_WITH_ID => Some(TupleId(self.u64("tuple id")?)),
            tag => {
                return Err(CodecError::BadTag {
                    offset: at,
                    tag,
                    what: "tuple id",
                })
            }
        };
        let fields = self.fields()?;
        Ok(match id {
            Some(id) => TupleVal::identified(id, fields),
            None => TupleVal::anonymous(fields),
        })
    }

    fn id_fields_map(
        &mut self,
        what: &'static str,
    ) -> Result<BTreeMap<TupleId, Arc<[Atom]>>, CodecError> {
        let count = self.u32(what)? as usize;
        let mut m = BTreeMap::new();
        for _ in 0..count {
            let tid = TupleId(self.u64(what)?);
            let fs = self.fields()?;
            m.insert(tid, fs);
        }
        Ok(m)
    }

    /// Read one relation's change record.
    pub fn rel_delta(&mut self) -> Result<RelDelta, CodecError> {
        let arity = self.u32("rel-delta arity")? as usize;
        let at = self.pos;
        let flags = self.u8("rel-delta flags")?;
        if flags & !0b11 != 0 {
            return Err(CodecError::BadTag {
                offset: at,
                tag: flags,
                what: "rel-delta flags",
            });
        }
        let mut rd = RelDelta {
            arity,
            created: flags & 0b01 != 0,
            dropped: flags & 0b10 != 0,
            ..RelDelta::default()
        };
        rd.inserted = self.id_fields_map("inserted tuples")?;
        rd.deleted = self.id_fields_map("deleted tuples")?;
        let count = self.u32("modified tuples")? as usize;
        for _ in 0..count {
            let tid = TupleId(self.u64("modified tuple id")?);
            let old = self.fields()?;
            let new = self.fields()?;
            rd.modified.insert(tid, TupleChange { old, new });
        }
        Ok(rd)
    }

    /// Read a [`Delta`].
    pub fn delta(&mut self) -> Result<Delta, CodecError> {
        let count = self.u32("delta relation count")? as usize;
        let mut d = Delta::empty();
        for _ in 0..count {
            let rid = RelId(self.u32("delta relation id")?);
            let rd = self.rel_delta()?;
            d.insert_rel(rid, rd);
        }
        Ok(d)
    }

    /// Read a full [`DbState`].
    pub fn db_state(&mut self) -> Result<DbState, CodecError> {
        let next_tuple = self.u64("state allocator")?;
        let rel_count = self.u32("state relation count")? as usize;
        let mut rels = BTreeMap::new();
        for _ in 0..rel_count {
            let rid = RelId(self.u32("relation id")?);
            let arity = self.u32("relation arity")? as usize;
            let tuple_count = self.u64("relation tuple count")?;
            let mut rel = Relation::empty(rid, arity);
            for _ in 0..tuple_count {
                let at = self.pos;
                let tid = TupleId(self.u64("tuple id")?);
                let fs = self.fields()?;
                rel.insert(tid, fs).map_err(|e| CodecError::Invalid {
                    offset: at,
                    what: e.to_string(),
                })?;
            }
            rels.insert(rid, Arc::new(rel));
        }
        Ok(DbState { rels, next_tuple })
    }

    /// Read a [`Schema`].
    pub fn schema(&mut self) -> Result<Schema, CodecError> {
        let count = self.u32("schema declaration count")? as usize;
        let mut s = Schema::new();
        for _ in 0..count {
            let at = self.pos;
            let name = self.str("relation name")?.to_owned();
            let attr_count = self.u32("attribute count")? as usize;
            let mut attrs = Vec::with_capacity(attr_count.min(self.remaining() / 4 + 1));
            for _ in 0..attr_count {
                attrs.push(self.str("attribute name")?.to_owned());
            }
            let system = self.u8("system flag")? != 0;
            let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let added = if system {
                s.add_system_relation(&name, &attr_refs)
            } else {
                s.add_relation(&name, &attr_refs)
            };
            added.map_err(|e| CodecError::Invalid {
                offset: at,
                what: e.to_string(),
            })?;
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Whole-value helpers
// ---------------------------------------------------------------------------

/// Encode a [`Delta`] as a standalone byte string.
pub fn encode_delta(d: &Delta) -> Vec<u8> {
    let mut e = Encoder::new();
    e.delta(d);
    e.finish()
}

/// Decode a standalone [`Delta`], requiring full consumption.
pub fn decode_delta(bytes: &[u8]) -> Result<Delta, CodecError> {
    let mut d = Decoder::new(bytes);
    let v = d.delta()?;
    d.finish()?;
    Ok(v)
}

/// Encode a [`DbState`] as a standalone byte string.
pub fn encode_db_state(s: &DbState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.db_state(s);
    e.finish()
}

/// A process-independent 64-bit fingerprint of a [`DbState`]: the CRC-32
/// of its canonical encoding combined with the encoded length. Collisions
/// are possible but stable — two runs of any process fingerprint a state
/// identically — which is what the model checker's schedule-dedup keys
/// and pinned-corpus assertions need (`content_digest` hashes in-process
/// only and makes no cross-version promise).
pub fn fingerprint_db_state(s: &DbState) -> u64 {
    let bytes = encode_db_state(s);
    (u64::from(crc32(&bytes)) << 32) | (bytes.len() as u64 & 0xFFFF_FFFF)
}

/// Decode a standalone [`DbState`], requiring full consumption.
pub fn decode_db_state(bytes: &[u8]) -> Result<DbState, CodecError> {
    let mut d = Decoder::new(bytes);
    let v = d.db_state()?;
    d.finish()?;
    Ok(v)
}

/// Magic bytes opening a snapshot envelope (format version 1).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"TXLGSNP1";

/// Encode a `(schema, state)` snapshot inside a checksummed envelope:
/// `magic ‖ crc32(payload) ‖ payload` where `payload = schema ‖ state`.
/// This is the on-disk format of REPL `:save` files and the payload of
/// WAL checkpoint records.
pub fn encode_snapshot(schema: &Schema, state: &DbState) -> Vec<u8> {
    let mut payload = Encoder::new();
    payload.schema(schema);
    payload.db_state(state);
    let payload = payload.finish();
    let mut e = Encoder::new();
    e.buf.extend_from_slice(SNAPSHOT_MAGIC);
    e.u32(crc32(&payload));
    e.buf.extend_from_slice(&payload);
    e.finish()
}

/// Decode a snapshot envelope, verifying magic and checksum. Any single
/// corrupted byte anywhere in the envelope is guaranteed to be detected.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Schema, DbState), CodecError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(CodecError::Truncated {
            offset: bytes.len(),
            what: "snapshot envelope",
        });
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let mut d = Decoder::new(&bytes[SNAPSHOT_MAGIC.len()..]);
    let expected = d.u32("snapshot checksum")?;
    let payload = &bytes[SNAPSHOT_MAGIC.len() + 4..];
    let found = crc32(payload);
    if expected != found {
        return Err(CodecError::Checksum { expected, found });
    }
    let schema = d.schema()?;
    let state = d.db_state()?;
    d.finish()?;
    Ok((schema, state))
}

impl DbState {
    /// Advance the tuple allocator to at least `to`. Used by WAL replay to
    /// restore the exact allocator position recorded at commit time (a
    /// replayed delta alone can under-advance it when a transaction
    /// allocated identities whose net effect canceled).
    pub fn advance_allocator(&mut self, to: u64) {
        if to > self.next_tuple {
            self.next_tuple = to;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> DbState {
        let s = DbState::new()
            .with_relation(RelId(0), 2)
            .unwrap()
            .with_relation(RelId(3), 1)
            .unwrap();
        let (s, _) = s
            .insert_fields(RelId(0), &[Atom::nat(1), Atom::str("alpha")])
            .unwrap();
        let (s, _) = s
            .insert_fields(RelId(0), &[Atom::nat(2), Atom::str("beta")])
            .unwrap();
        let (s, _) = s.insert_fields(RelId(3), &[Atom::nat(99)]).unwrap();
        s
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vectors for the IEEE polynomial.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn atom_and_fields_round_trip() {
        let atoms = [
            Atom::nat(0),
            Atom::nat(u64::MAX),
            Atom::str(""),
            Atom::str("héllo"),
        ];
        let mut e = Encoder::new();
        e.fields(&atoms);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let back = d.fields().unwrap();
        d.finish().unwrap();
        assert_eq!(&back[..], &atoms[..]);
    }

    #[test]
    fn tuple_val_round_trip() {
        for t in [
            TupleVal::anonymous(vec![Atom::nat(7)]),
            TupleVal::identified(TupleId(42), vec![Atom::str("x"), Atom::nat(3)]),
        ] {
            let mut e = Encoder::new();
            e.tuple_val(&t);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.tuple_val().unwrap(), t);
            d.finish().unwrap();
        }
    }

    #[test]
    fn delta_round_trip() {
        let s0 = sample_state();
        let (s1, _) = s0
            .insert_fields(RelId(0), &[Atom::nat(5), Atom::str("gamma")])
            .unwrap();
        let s2 = s1.assign(RelId(7), 1, &[]).unwrap();
        let d = s0.diff(&s2);
        assert_eq!(decode_delta(&encode_delta(&d)).unwrap(), d);
        let empty = Delta::empty();
        assert_eq!(decode_delta(&encode_delta(&empty)).unwrap(), empty);
    }

    #[test]
    fn db_state_round_trip_is_byte_identical() {
        let s = sample_state();
        let bytes = encode_db_state(&s);
        let back = decode_db_state(&bytes).unwrap();
        assert!(back.content_eq(&s));
        assert_eq!(back.next_tuple_id(), s.next_tuple_id());
        // re-encoding the decoded value reproduces the bytes exactly
        assert_eq!(encode_db_state(&back), bytes);
    }

    #[test]
    fn snapshot_round_trip() {
        let schema = Schema::new()
            .relation("EMP", &["name", "dept"])
            .unwrap()
            .relation("DEPT", &["name"])
            .unwrap();
        let state = sample_state();
        let bytes = encode_snapshot(&schema, &state);
        let (sch, st) = decode_snapshot(&bytes).unwrap();
        assert_eq!(sch.decls().len(), 2);
        assert_eq!(sch.expect("EMP").unwrap().arity(), 2);
        assert!(st.content_eq(&state));
    }

    #[test]
    fn snapshot_detects_any_single_byte_corruption() {
        let schema = Schema::new().relation("R", &["a"]).unwrap();
        let state = schema.initial_state();
        let bytes = encode_snapshot(&schema, &state);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // truncation at every prefix is also an error
        for i in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..i]).is_err());
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode_delta(&Delta::empty());
        bytes.push(0);
        assert!(matches!(
            decode_delta(&bytes),
            Err(CodecError::Trailing { .. })
        ));
    }

    #[test]
    fn decode_errors_are_typed_not_panics() {
        // a corrupt count cannot force a huge allocation or a panic
        let mut e = Encoder::new();
        e.u32(u32::MAX);
        let bytes = e.finish();
        assert!(matches!(
            Decoder::new(&bytes).fields(),
            Err(CodecError::Truncated { .. })
        ));
        // bad atom tag
        assert!(matches!(
            Decoder::new(&[9]).atom(),
            Err(CodecError::BadTag { tag: 9, .. })
        ));
        // invalid UTF-8 inside a string atom
        let mut e = Encoder::new();
        e.u8(TAG_STR);
        e.u32(2);
        e.u8(0xFF);
        e.u8(0xFE);
        assert!(matches!(
            Decoder::new(&e.finish()).atom(),
            Err(CodecError::BadUtf8 { .. })
        ));
    }

    #[test]
    fn db_state_arity_mismatch_is_invalid() {
        // relation declared 1-ary but carrying a 2-ary tuple
        let mut e = Encoder::new();
        e.u64(1); // allocator
        e.u32(1); // one relation
        e.u32(0); // rel id
        e.u32(1); // arity 1
        e.u64(1); // one tuple
        e.u64(0); // tuple id
        e.fields(&[Atom::nat(1), Atom::nat(2)]);
        assert!(matches!(
            decode_db_state(&e.finish()),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn advance_allocator_is_monotone() {
        let mut s = DbState::new();
        s.advance_allocator(5);
        assert_eq!(s.next_tuple_id(), 5);
        s.advance_allocator(3);
        assert_eq!(s.next_tuple_id(), 5);
    }
}
