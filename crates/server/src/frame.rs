//! The wire frame: `len ‖ crc ‖ payload`.
//!
//! The framing itself is [`txlog_relational::codec`]'s — the same
//! [`encode_frame`]/[`decode_frame`] the write-ahead log writes and
//! recovers with, re-exported here under the names wire code uses. A
//! frame is self-delimiting and self-checking, so the receiver can
//! always tell "need more bytes" apart from "corrupt stream", and a
//! flipped bit anywhere in the payload is detected before the message
//! decoder ever sees it.
//!
//! This module adds the socket side, layering timeouts on top of the
//! pure codec routines: [`read_frame_timeout`] distinguishes an *idle*
//! connection (no frame started) from a *torn* one (frame started but
//! stalled), which is how the server enforces its idle and per-request
//! read budgets without ever blocking forever.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
pub use txlog_relational::codec::{decode_frame, encode_frame, FrameError, FRAME_HEADER_LEN};

/// Default bound on a single frame's payload (16 MiB). Large enough
/// for any response the server renders, small enough that a corrupt
/// length prefix cannot make the receiver buffer unboundedly.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Write one frame to a stream. An oversize payload is an
/// [`io::ErrorKind::InvalidData`] error — a bug in the caller, never a
/// silently corrupt wire.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max: u32) -> io::Result<()> {
    write_frames(w, &[payload], max)
}

/// Write several frames with one `write_all`, as [`write_frame`] does
/// one: a batch costs one syscall, not one per frame. Nothing is
/// written if any payload is oversize.
pub fn write_frames(w: &mut impl Write, payloads: &[impl AsRef<[u8]>], max: u32) -> io::Result<()> {
    let mut bytes = Vec::new();
    for payload in payloads {
        let frame = encode_frame(payload.as_ref(), max)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        bytes.extend_from_slice(&frame);
    }
    w.write_all(&bytes)?;
    w.flush()
}

/// What one attempt to read a frame from a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, checksum-verified frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary (or mid-frame,
    /// which ends the conversation just as conclusively).
    Disconnected,
    /// No frame started within the idle budget.
    IdleTimeout,
    /// A frame started but did not complete within the read budget.
    Stalled,
    /// The stream's bytes are not a valid frame (bad length or CRC).
    Corrupt(FrameError),
}

/// Granularity of the read loop's timeout ticks: how often it re-checks
/// its idle and stall deadlines and the server's shutdown flag while
/// blocked. Nothing else waits on it: pushed notifications have their
/// own writer.
const READ_TICK: Duration = Duration::from_millis(25);

/// Pop a complete frame off the front of `buf`, if one is there.
fn take_frame(buf: &mut Vec<u8>, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    match decode_frame(buf, max)? {
        Some((payload, consumed)) => {
            let payload = payload.to_vec();
            buf.drain(..consumed);
            Ok(Some(payload))
        }
        None => Ok(None),
    }
}

/// Read one frame, enforcing two budgets: `idle` until the frame's
/// first byte arrives, then `read` for the rest of the frame.
///
/// `buf` is the connection's residual receive buffer: bytes past the
/// returned frame stay in it, so pipelined requests (several frames in
/// one write) are never dropped. A frame already complete in `buf` is
/// returned immediately without touching the socket.
///
/// The `should_stop` callback is polled between ticks so a draining
/// server can abandon an idle read promptly; it never interrupts a
/// frame that has started arriving (that is the graceful-drain
/// contract: a request already in flight on the wire is either fully
/// read or the peer disconnects).
pub fn read_frame_timeout(
    stream: &TcpStream,
    buf: &mut Vec<u8>,
    idle: Duration,
    read: Duration,
    max: u32,
    should_stop: &dyn Fn() -> bool,
) -> io::Result<ReadOutcome> {
    let mut chunk = [0u8; 4096];
    let start = Instant::now();
    let mut first_byte_at: Option<Instant> = if buf.is_empty() {
        None
    } else {
        Some(Instant::now())
    };
    let mut ticking = false;
    loop {
        match take_frame(buf, max) {
            Ok(Some(payload)) => return Ok(ReadOutcome::Frame(payload)),
            Ok(None) => {}
            Err(e) => return Ok(ReadOutcome::Corrupt(e)),
        }
        match first_byte_at {
            None => {
                if should_stop() && buf.is_empty() {
                    return Ok(ReadOutcome::IdleTimeout);
                }
                if start.elapsed() >= idle {
                    return Ok(ReadOutcome::IdleTimeout);
                }
            }
            Some(t) => {
                if t.elapsed() >= read {
                    return Ok(ReadOutcome::Stalled);
                }
            }
        }
        // Only a read that must wait pays for the `setsockopt`.
        if !ticking {
            stream.set_read_timeout(Some(READ_TICK))?;
            ticking = true;
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) => return Ok(ReadOutcome::Disconnected),
            Ok(n) => {
                if first_byte_at.is_none() {
                    first_byte_at = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read one frame with plain blocking semantics (the client side, which
/// is content to wait for the server). `buf` is the residual receive
/// buffer, as in [`read_frame_timeout`].
pub fn read_frame_blocking(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    max: u32,
) -> io::Result<ReadOutcome> {
    let mut chunk = [0u8; 4096];
    let mut blocking = false;
    loop {
        match take_frame(buf, max) {
            Ok(Some(payload)) => return Ok(ReadOutcome::Frame(payload)),
            Ok(None) => {}
            Err(e) => return Ok(ReadOutcome::Corrupt(e)),
        }
        if !blocking {
            stream.set_read_timeout(None)?;
            blocking = true;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(ReadOutcome::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", b"hello wire", &[0u8; 4096][..]] {
            let framed = encode_frame(payload, DEFAULT_MAX_FRAME_LEN).expect("fits");
            let (got, consumed) = decode_frame(&framed, DEFAULT_MAX_FRAME_LEN)
                .expect("valid")
                .expect("complete");
            assert_eq!(got, payload);
            assert_eq!(consumed, framed.len());
        }
    }

    #[test]
    fn short_buffers_ask_for_more() {
        let framed = encode_frame(b"abcdef", DEFAULT_MAX_FRAME_LEN).expect("fits");
        for cut in 0..framed.len() {
            assert!(
                decode_frame(&framed[..cut], DEFAULT_MAX_FRAME_LEN)
                    .expect("prefixes are never corrupt")
                    .is_none(),
                "cut at {cut} must request more bytes"
            );
        }
    }

    #[test]
    fn flipped_payload_bits_fail_the_checksum() {
        let framed = encode_frame(b"sensitive", DEFAULT_MAX_FRAME_LEN).expect("fits");
        for i in FRAME_HEADER_LEN..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(
                    decode_frame(&bad, DEFAULT_MAX_FRAME_LEN),
                    Err(FrameError::Checksum { .. })
                ),
                "flip at {i} must be detected"
            );
        }
    }

    #[test]
    fn pipelined_frames_survive_in_the_residual_buffer() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_frame(b"first", DEFAULT_MAX_FRAME_LEN).expect("fits"));
        buf.extend_from_slice(&encode_frame(b"second", DEFAULT_MAX_FRAME_LEN).expect("fits"));
        let one = take_frame(&mut buf, DEFAULT_MAX_FRAME_LEN)
            .expect("valid")
            .expect("complete");
        assert_eq!(one, b"first");
        let two = take_frame(&mut buf, DEFAULT_MAX_FRAME_LEN)
            .expect("valid")
            .expect("complete");
        assert_eq!(two, b"second");
        assert!(buf.is_empty());
        assert!(take_frame(&mut buf, DEFAULT_MAX_FRAME_LEN)
            .expect("empty is a prefix")
            .is_none());
    }

    #[test]
    fn oversize_lengths_are_refused_not_buffered() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(matches!(
            encode_frame(&[0u8; 64], 32),
            Err(FrameError::TooLarge { len: 64, max: 32 })
        ));
    }
}
