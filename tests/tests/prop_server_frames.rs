//! Property harness for the server's wire layer: no byte sequence —
//! random, truncated, or a corruption of a genuine frame — may ever
//! panic the frame or message decoders. Every outcome is one of: a
//! decoded message, "need more bytes", or a typed error (which is what
//! the server turns into an error response or a clean disconnect).

use proptest::prelude::*;
use txlog::prelude::Atom;
use txlog::server::frame::{decode_frame, encode_frame, FRAME_HEADER_LEN};
use txlog::server::{Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};

/// A pool of genuine request payloads for corruption to start from.
fn request_pool() -> Vec<Request> {
    vec![
        Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: "prop".to_string(),
        },
        Request::Execute {
            label: "label".to_string(),
            program: "insert(tuple('ann', 500), EMP)".to_string(),
        },
        Request::Query {
            expr: "EMP".to_string(),
        },
        Request::Ask {
            formula: "exists e: 2tup . e in EMP".to_string(),
        },
        Request::Begin { isolation: None },
        Request::Commit {
            label: "l".to_string(),
        },
        Request::Abort,
        Request::ShowState,
        Request::Metrics,
        Request::Shutdown,
        Request::Subscribe {
            name: "fires".to_string(),
            pattern: "delete(EMP, N, _, _, _, _)".to_string(),
        },
        Request::Unsubscribe {
            name: "fires".to_string(),
        },
    ]
}

/// Genuine server-pushed frames (protocol v3) for corruption to start
/// from — these travel server→client, so it is the *client's* decoder
/// whose totality is at stake.
fn push_pool() -> Vec<Response> {
    vec![
        Response::Notification {
            name: "fires".to_string(),
            version: 7,
            binding: vec![
                ("N".to_string(), Atom::str("ann")),
                ("S".to_string(), Atom::nat(500)),
            ],
        },
        Response::Notification {
            name: "ticks".to_string(),
            version: u64::MAX,
            binding: Vec::new(),
        },
        Response::Subscribed {
            name: "fires".to_string(),
        },
        Response::Unsubscribed {
            name: "fires".to_string(),
        },
        Response::Error(
            WireError::new(txlog::server::ErrorCode::SubscriptionOverflow, "fires")
                .with_detail(256),
        ),
    ]
}

/// Mutations a hostile or faulty peer could produce from a valid
/// frame: byte flips, truncations, and injected garbage.
#[derive(Clone, Debug)]
enum Mutation {
    Flip { pos: usize, bits: u8 },
    Truncate { keep: usize },
    Insert { pos: usize, byte: u8 },
    Delete { pos: usize },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..65_536, 1u8..=255).prop_map(|(pos, bits)| Mutation::Flip { pos, bits }),
        (0usize..65_536).prop_map(|keep| Mutation::Truncate { keep }),
        (0usize..65_536, 0u8..=255).prop_map(|(pos, byte)| Mutation::Insert { pos, byte }),
        (0usize..65_536).prop_map(|pos| Mutation::Delete { pos }),
    ]
}

fn apply(bytes: &mut Vec<u8>, m: &Mutation) {
    if bytes.is_empty() {
        return;
    }
    match m {
        Mutation::Flip { pos, bits } => {
            let pos = pos % bytes.len();
            bytes[pos] ^= bits;
        }
        Mutation::Truncate { keep } => {
            let keep = keep % bytes.len();
            bytes.truncate(keep);
        }
        Mutation::Insert { pos, byte } => {
            let pos = pos % (bytes.len() + 1);
            bytes.insert(pos, *byte);
        }
        Mutation::Delete { pos } => {
            let pos = pos % bytes.len();
            bytes.remove(pos);
        }
    }
}

/// Drive the decoders exactly the way the server's read loop does:
/// pop frames off the buffer until it reports "need more", a typed
/// frame error, or a decoded payload (which then goes through the
/// total message decoder).
fn drive_decoders(mut buf: &[u8]) {
    loop {
        match decode_frame(buf, DEFAULT_MAX_FRAME_LEN) {
            Ok(Some((payload, consumed))) => {
                // intact frame: the payload decoders must also be total
                let _ = Request::decode(payload);
                let _ = Response::decode(payload);
                buf = &buf[consumed..];
            }
            Ok(None) => return, // clean "read more" — a prefix
            Err(_) => return,   // typed corruption — clean disconnect
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup never panics the frame scanner or the
    /// message decoders.
    #[test]
    fn random_bytes_never_panic_the_decoders(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        drive_decoders(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Random mutations of genuine framed requests — flips,
    /// truncations, insertions, deletions, stacked up to three deep —
    /// never panic, and always land in one of the three lawful
    /// outcomes (message, need-more, typed error).
    #[test]
    fn mutated_genuine_frames_never_panic(
        which in 0usize..12,
        muts in prop::collection::vec(mutation_strategy(), 1..=3),
    ) {
        let pool = request_pool();
        let req = &pool[which % pool.len()];
        let mut bytes =
            encode_frame(&req.encode(), DEFAULT_MAX_FRAME_LEN).expect("genuine frame fits");
        for m in &muts {
            apply(&mut bytes, m);
        }
        drive_decoders(&bytes);
    }

    /// Mutated server-pushed frames — notifications, subscription
    /// acknowledgements, the typed overflow error — never panic the
    /// client-side decoders either.
    #[test]
    fn mutated_push_frames_never_panic(
        which in 0usize..5,
        muts in prop::collection::vec(mutation_strategy(), 1..=3),
    ) {
        let pool = push_pool();
        let resp = &pool[which % pool.len()];
        let mut bytes =
            encode_frame(&resp.encode(), DEFAULT_MAX_FRAME_LEN).expect("genuine frame fits");
        for m in &muts {
            apply(&mut bytes, m);
        }
        drive_decoders(&bytes);
    }

    /// Pushed frames round-trip whole: the subscription name, commit
    /// version, and every (variable, atom) binding pair survive
    /// encode/decode exactly — and a payload flip never silently
    /// yields a *different* valid notification (the CRC rejects it
    /// before the message decoder runs).
    #[test]
    fn push_frames_round_trip_and_flips_are_detected(
        which in 0usize..5,
        pos in 0usize..65_536,
        bits in 1u8..=255,
    ) {
        let pool = push_pool();
        let resp = &pool[which % pool.len()];
        let payload = resp.encode();
        match Response::decode(&payload) {
            Ok(back) => prop_assert_eq!(&back, resp),
            Err(e) => prop_assert!(false, "genuine push frame must decode: {}", e),
        }
        let mut bytes = encode_frame(&payload, DEFAULT_MAX_FRAME_LEN).expect("fits");
        let pos = FRAME_HEADER_LEN + pos % payload.len();
        bytes[pos] ^= bits;
        prop_assert!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).is_err(),
            "payload flip at byte {} went undetected",
            pos
        );
    }

    /// A flip confined to the payload region of a single frame is
    /// always caught: either the CRC detects it, or (if the flip lands
    /// in the header) the frame fails framing or re-frames to a
    /// different prefix — but a checksum-valid frame with a corrupted
    /// payload never reaches the message decoder silently.
    #[test]
    fn payload_flips_inside_one_frame_are_always_detected(
        which in 0usize..12,
        pos in 0usize..65_536,
        bits in 1u8..=255,
    ) {
        let pool = request_pool();
        let req = &pool[which % pool.len()];
        let payload = req.encode();
        let mut bytes = encode_frame(&payload, DEFAULT_MAX_FRAME_LEN).expect("fits");
        let pos = FRAME_HEADER_LEN + pos % payload.len();
        bytes[pos] ^= bits;
        prop_assert!(
            decode_frame(&bytes, DEFAULT_MAX_FRAME_LEN).is_err(),
            "payload flip at byte {} went undetected",
            pos
        );
    }

    /// Every strict prefix of a genuine frame asks for more bytes —
    /// the reader never misparses a half-arrived request.
    #[test]
    fn strict_prefixes_ask_for_more(which in 0usize..12, cut in 0usize..65_536) {
        let pool = request_pool();
        let req = &pool[which % pool.len()];
        let bytes = encode_frame(&req.encode(), DEFAULT_MAX_FRAME_LEN).expect("fits");
        let cut = cut % bytes.len();
        prop_assert!(
            matches!(decode_frame(&bytes[..cut], DEFAULT_MAX_FRAME_LEN), Ok(None)),
            "prefix of {} bytes must request more",
            cut
        );
    }

    /// Wire errors round-trip whole: the typed code, message, and
    /// numeric detail a server reports are exactly what a client sees.
    #[test]
    fn wire_errors_round_trip(code in 0u8..14, detail in 0u64..=u64::MAX, msg_pick in 0usize..4) {
        let msgs = ["", "x", "constraint-name", "a longer diagnostic message"];
        let code = txlog::server::ErrorCode::from_u8(code).expect("0..14 are all valid codes");
        let err = WireError::new(code, msgs[msg_pick]).with_detail(detail);
        let resp = Response::Error(err.clone());
        match Response::decode(&resp.encode()) {
            Ok(Response::Error(back)) => prop_assert_eq!(back, err),
            other => prop_assert!(false, "expected an error response, got {:?}", other),
        }
    }

    /// The property log recovery rests on (`wal::recover_log` walks the
    /// log with this same `decode_frame`): cut a stream of frames at
    /// any offset, or flip a byte at any offset, and the frames that
    /// decode before the scan stops are a prefix of the original
    /// payloads — never a reordered, altered, or invented one. A cut
    /// loses exactly the frames it touches; a flip may lose the rest.
    #[test]
    fn damaged_frame_streams_decode_to_a_prefix(
        picks in prop::collection::vec(0usize..12, 1..6),
        pos in 0usize..65_536,
        bits in 0u8..=255,
    ) {
        let pool = request_pool();
        let payloads: Vec<Vec<u8>> = picks.iter().map(|i| pool[i % pool.len()].encode()).collect();
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            stream.extend(encode_frame(p, u32::MAX).expect("genuine frame fits"));
            ends.push(stream.len());
        }
        let pos = pos % stream.len();
        // bits == 0 cuts the stream at `pos`; anything else flips there
        let intact = ends.iter().filter(|&&e| e <= pos).count();
        if bits == 0 {
            stream.truncate(pos);
        } else {
            stream[pos] ^= bits;
        }
        let mut decoded = Vec::new();
        let mut rest = stream.as_slice();
        while let Ok(Some((payload, consumed))) = decode_frame(rest, u32::MAX) {
            decoded.push(payload.to_vec());
            rest = &rest[consumed..];
        }
        prop_assert!(decoded.len() <= payloads.len());
        prop_assert_eq!(&decoded[..], &payloads[..decoded.len()]);
        // every frame wholly before the damage survives it
        prop_assert!(decoded.len() >= intact);
        if bits == 0 {
            prop_assert_eq!(decoded.len(), intact);
        }
    }
}
