//! Wire-format drift guards.
//!
//! Two layers of protection for the versioned stream format:
//!
//! * **Round-trip properties** — randomized `StreamEvent`s (including
//!   `Trace` passthroughs over all nine `EventKind`s) must survive
//!   binary encode→decode unchanged, alone and inside a capture.
//! * **A pinned golden stream** — the exact bytes `encode_capture`
//!   produces for a fixed synthetic session are committed at
//!   `tests/fixtures/golden.stream`. Any change to the frame layout,
//!   tags, varint packing, or header JSON shows up as a byte diff.
//!
//! * **Decoder equivalence** — on damaged capture bytes (truncated,
//!   bit-flipped, spliced, with lying lengths or over-long varints),
//!   `decode_event`'s fast path must answer exactly what the checked
//!   decoder answers, and nothing may panic.
//!
//! To regenerate the fixture after an *intentional* format change
//! (which must also bump `WIRE_VERSION`):
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test -p cord-obs --test wire_roundtrip
//! ```

use cord_obs::wire::{
    decode_capture, decode_event, decode_event_checked, decode_events, encode_capture,
    encode_events, read_frame, StreamGeometry, WireError, FRAME_EVENTS,
};
use cord_obs::{
    AccessEvent, AccessKind, AccessPath, BusKind, CoreId, EventKind, Level, LineRemoval,
    RemovalCause, StreamEvent, StreamHeader, TraceEvent, NO_THREAD,
};
use cord_trace::types::{Addr, LineAddr, ThreadId, WORD_BYTES};
use proptest::prelude::*;
use std::path::PathBuf;

fn arb_core() -> impl Strategy<Value = CoreId> {
    (0u8..16).prop_map(CoreId)
}

fn arb_level() -> impl Strategy<Value = Level> {
    prop_oneof![Just(Level::L1), Just(Level::L2)]
}

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::DataRead),
        Just(AccessKind::DataWrite),
        Just(AccessKind::SyncRead),
        Just(AccessKind::SyncWrite),
    ]
}

fn arb_path() -> impl Strategy<Value = AccessPath> {
    prop_oneof![
        Just(AccessPath::L1Hit),
        Just(AccessPath::L2Hit),
        Just(AccessPath::UpgradeHit),
        (0u8..16).prop_map(|c| AccessPath::FillFromSibling(CoreId(c))),
        Just(AccessPath::FillFromMemory),
    ]
}

fn arb_addr() -> impl Strategy<Value = Addr> {
    // Word-aligned byte addresses (the codec stores word indices).
    (0u64..1 << 40).prop_map(|w| Addr::new(w * WORD_BYTES))
}

fn arb_line() -> impl Strategy<Value = LineAddr> {
    (0u64..1 << 40).prop_map(LineAddr)
}

/// Every one of the nine `EventKind` payloads a trace entry can carry.
fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (
            prop_oneof![
                Just(BusKind::Data),
                Just(BusKind::Addr),
                Just(BusKind::Ts),
                Just(BusKind::Mem),
            ],
            any::<u64>()
        )
            .prop_map(|(bus, line)| EventKind::Bus { bus, line }),
        (0u8..16, 1u8..3, any::<u64>()).prop_map(|(core, level, line)| EventKind::Fill {
            core,
            level,
            line
        }),
        (0u8..16, 1u8..3, any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
            |(core, level, line, dirty, invalidation)| EventKind::Remove {
                core,
                level,
                line,
                dirty,
                invalidation,
            }
        ),
        (any::<u64>(), any::<u32>())
            .prop_map(|(line, requests)| EventKind::RaceCheck { line, requests }),
        any::<u32>().prop_map(|count| EventKind::MemtsBroadcast { count }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(evicted, bound)| EventKind::WalkerPass { evicted, bound }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(instance, release)| EventKind::Injection { instance, release }),
        (0u8..16, 0u8..16).prop_map(|(from, to)| EventKind::Migration { from, to }),
        (any::<u64>(), 0u8..16).prop_map(|(addr, other_core)| EventKind::Race { addr, other_core }),
    ]
}

fn arb_trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<u64>(),
        prop_oneof![(0u16..64).boxed(), Just(NO_THREAD).boxed()],
        arb_event_kind(),
    )
        .prop_map(|(cycle, thread, kind)| TraceEvent {
            cycle,
            thread,
            kind,
        })
}

fn arb_stream_event() -> impl Strategy<Value = StreamEvent> {
    prop_oneof![
        (
            arb_core(),
            (0u16..64).prop_map(ThreadId),
            arb_addr(),
            arb_kind(),
            arb_path(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(core, thread, addr, kind, path, instr_index, cycle)| {
                StreamEvent::Access(AccessEvent {
                    core,
                    thread,
                    addr,
                    kind,
                    path,
                    instr_index,
                    cycle,
                })
            }),
        (arb_core(), arb_level(), arb_line())
            .prop_map(|(core, level, line)| StreamEvent::LineFilled { core, level, line }),
        (
            arb_core(),
            arb_level(),
            arb_line(),
            prop_oneof![
                Just(RemovalCause::Capacity),
                Just(RemovalCause::Invalidation)
            ],
            any::<bool>(),
        )
            .prop_map(|(core, level, line, cause, dirty)| {
                StreamEvent::LineRemoved(LineRemoval {
                    core,
                    level,
                    line,
                    cause,
                    dirty,
                })
            }),
        ((0u16..64).prop_map(ThreadId), arb_core(), arb_core())
            .prop_map(|(thread, from, to)| StreamEvent::ThreadMigrated { thread, from, to }),
        proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|instr_counts| StreamEvent::RunEnd { instr_counts }),
        arb_trace_event().prop_map(StreamEvent::Trace),
    ]
}

proptest! {
    #[test]
    fn binary_codec_roundtrips(events in proptest::collection::vec(arb_stream_event(), 0..64)) {
        let bytes = encode_events(&events);
        let back = decode_events(&bytes).expect("well-formed encoding decodes");
        prop_assert_eq!(back, events);
    }

    #[test]
    fn capture_roundtrips_with_header(
        events in proptest::collection::vec(arb_stream_event(), 0..40),
        seed in any::<u64>(),
        threads in 1usize..16,
    ) {
        let geometry = StreamGeometry {
            threads: threads as u32,
            cores: 4,
            user_locks: 3,
            user_flags: 2,
            barriers: 1,
            data_words: 1 << 16,
            user_atomics: 0,
        };
        let header = StreamHeader::new("prop", "CORD-D16", seed, geometry);
        let (h, back) = decode_capture(&encode_capture(&header, &events)).expect("decodes");
        prop_assert_eq!(h, header);
        prop_assert_eq!(back, events);
    }
}

// ---------------------------------------------------------------------
// Golden stream fixture
// ---------------------------------------------------------------------

/// A fixed synthetic session touching every event tag and several
/// varint width classes; its encoding is pinned byte-for-byte.
fn golden_session() -> (StreamHeader, Vec<StreamEvent>) {
    let header = StreamHeader::new(
        "golden",
        "CORD-D16",
        0xC02D,
        StreamGeometry {
            threads: 4,
            cores: 4,
            user_locks: 2,
            user_flags: 1,
            barriers: 1,
            data_words: 4096,
            user_atomics: 0,
        },
    );
    let mut events = vec![
        StreamEvent::LineFilled {
            core: CoreId(0),
            level: Level::L2,
            line: LineAddr(0x41),
        },
        StreamEvent::Access(AccessEvent {
            core: CoreId(0),
            thread: ThreadId(0),
            addr: Addr::new(0x1040),
            kind: AccessKind::DataWrite,
            path: AccessPath::FillFromMemory,
            instr_index: 1,
            cycle: 100,
        }),
        StreamEvent::Access(AccessEvent {
            core: CoreId(1),
            thread: ThreadId(1),
            addr: Addr::new(0x1040),
            kind: AccessKind::SyncRead,
            path: AccessPath::FillFromSibling(CoreId(0)),
            instr_index: 128,
            cycle: 0x1_0000,
        }),
        StreamEvent::LineRemoved(LineRemoval {
            core: CoreId(1),
            level: Level::L1,
            line: LineAddr(7),
            cause: RemovalCause::Invalidation,
            dirty: true,
        }),
        StreamEvent::ThreadMigrated {
            thread: ThreadId(3),
            from: CoreId(1),
            to: CoreId(2),
        },
        StreamEvent::Trace(TraceEvent {
            cycle: 0xFFFF_FFFF,
            thread: NO_THREAD,
            kind: EventKind::WalkerPass {
                evicted: 300,
                bound: 1 << 33,
            },
        }),
        StreamEvent::RunEnd {
            instr_counts: vec![128, 1, 0, 1 << 21],
        },
    ];
    // Enough filler to span more than one CAPTURE_BATCH frame.
    for i in 0..600u64 {
        events.push(StreamEvent::LineFilled {
            core: CoreId((i % 4) as u8),
            level: Level::L2,
            line: LineAddr(i * 3),
        });
    }
    (header, events)
}

#[test]
fn geometry_with_atomics_roundtrips_and_rebuilds_the_layout() {
    use cord_json::{FromJson, ToJson};
    let g = StreamGeometry {
        threads: 4,
        cores: 4,
        user_locks: 1,
        user_flags: 0,
        barriers: 0,
        data_words: 256,
        user_atomics: 3,
    };
    let back = StreamGeometry::from_json(&g.to_json()).expect("decodes");
    assert_eq!(back, g);
    assert_eq!(back.layout().user_atomics(), 3);
    let header = StreamHeader::new("atomics", "CORD-D16", 1, g);
    let (h, events) = decode_capture(&encode_capture(&header, &[])).expect("decodes");
    assert_eq!(h, header);
    assert!(events.is_empty());
}

#[test]
fn zero_atomics_geometry_encodes_without_the_field() {
    use cord_json::ToJson;
    let g = StreamGeometry {
        threads: 2,
        cores: 2,
        user_locks: 0,
        user_flags: 0,
        barriers: 0,
        data_words: 16,
        user_atomics: 0,
    };
    // Pre-atomics consumers parse this object field-for-field; the new
    // field must not appear for them (the golden fixture pins the full
    // encoding, this pins the reason it still passes).
    assert!(!g.to_json().to_string_compact().contains("user_atomics"));
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.stream")
}

#[test]
fn golden_stream_matches_fixture() {
    let (header, events) = golden_session();
    let current = encode_capture(&header, &events);
    let path = fixture_path();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &current).expect("write fixture");
        eprintln!("golden stream updated: {}", path.display());
        return;
    }
    let pinned = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden stream {} ({e}); run with GOLDEN_UPDATE=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        current, pinned,
        "wire encoding drifted from the pinned stream; an intentional \
         format change must bump WIRE_VERSION and regenerate with GOLDEN_UPDATE=1"
    );
    // The pinned bytes must also still decode to the same session.
    let (h, back) = decode_capture(&pinned).expect("pinned stream decodes");
    assert_eq!(h, header);
    assert_eq!(back, events);
}

// ---------------------------------------------------------------------
// Decoder equivalence on damaged bytes
// ---------------------------------------------------------------------

/// Accesses with the small counters real captures carry, so most take
/// `decode_event`'s fast path (`arb_stream_event`'s random `u64`s often
/// need 10-byte varints, which it leaves to the checked decoder).
fn arb_small_access() -> impl Strategy<Value = StreamEvent> {
    (
        arb_core(),
        (0u16..64).prop_map(ThreadId),
        (0u64..1 << 20).prop_map(|w| Addr::new(w * WORD_BYTES)),
        arb_kind(),
        arb_path(),
        0u64..1 << 24,
        0u64..1 << 32,
    )
        .prop_map(|(core, thread, addr, kind, path, instr_index, cycle)| {
            StreamEvent::Access(AccessEvent {
                core,
                thread,
                addr,
                kind,
                path,
                instr_index,
                cycle,
            })
        })
}

/// One damage step, applied at offset `at` (modulo the length):
/// truncate; flip bit `arg % 8`; splice in 1–16 bytes copied from
/// offset `arg`; overwrite four bytes with the length `arg`; or make
/// the varint byte there over-long (continuation bit set, then `arg %
/// 12` bytes of `0x80` and a `0x00`).
fn damage(bytes: &mut Vec<u8>, (op, at, arg): (u8, usize, u64)) {
    if bytes.is_empty() {
        return;
    }
    let at = at % bytes.len();
    match op {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << (arg % 8),
        2 => {
            let from = arg as usize % bytes.len();
            let chunk: Vec<u8> = bytes[from..]
                .iter()
                .take(1 + (arg as usize >> 8) % 16)
                .copied()
                .collect();
            bytes.splice(at..at, chunk);
        }
        3 => {
            let lie = (arg as u32).to_le_bytes();
            for (k, b) in lie.iter().enumerate() {
                if let Some(slot) = bytes.get_mut(at + k) {
                    *slot = *b;
                }
            }
        }
        _ => {
            bytes[at] |= 0x80;
            let pad = (arg % 12) as usize;
            let tail: Vec<u8> = std::iter::repeat_n(0x80, pad).chain([0]).collect();
            bytes.splice(at + 1..at + 1, tail);
        }
    }
}

/// What `decode_capture` must return: every frame through `read_frame`,
/// every event through the checked decoder.
fn reference_decode_capture(bytes: &[u8]) -> Result<(StreamHeader, Vec<StreamEvent>), WireError> {
    let mut cursor = std::io::Cursor::new(bytes);
    let first = read_frame(&mut cursor)
        .map_err(|e| WireError::BadValue(e.to_string()))?
        .ok_or(WireError::Truncated)?;
    let header = StreamHeader::decode(&first)?;
    let mut events = Vec::new();
    while let Some(payload) =
        read_frame(&mut cursor).map_err(|e| WireError::BadValue(e.to_string()))?
    {
        match payload.split_first() {
            Some((&FRAME_EVENTS, body)) => {
                let mut pos = 0;
                while pos < body.len() {
                    events.push(decode_event_checked(body, &mut pos)?);
                }
            }
            Some((&tag, _)) => return Err(WireError::BadTag { what: "frame", tag }),
            None => return Err(WireError::Truncated),
        }
    }
    Ok((header, events))
}

/// Both decoders from every offset of `bytes`: the same event or error,
/// and the same position after it.
fn assert_decoders_agree(bytes: &[u8]) {
    for start in 0..=bytes.len() {
        let (mut fast_pos, mut checked_pos) = (start, start);
        let fast = decode_event(bytes, &mut fast_pos);
        let checked = decode_event_checked(bytes, &mut checked_pos);
        assert_eq!(fast, checked, "at offset {start}");
        assert_eq!(fast_pos, checked_pos, "position after offset {start}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn damaged_captures_decode_exactly_as_the_checked_decoder(
        use_golden in any::<bool>(),
        events in proptest::collection::vec(
            prop_oneof![arb_small_access(), arb_small_access(), arb_stream_event()],
            0..300,
        ),
        damages in proptest::collection::vec((0u8..5, any::<usize>(), any::<u64>()), 0..4),
    ) {
        let mut bytes = if use_golden {
            std::fs::read(fixture_path()).expect("golden stream fixture")
        } else {
            let (header, _) = golden_session();
            encode_capture(&header, &events)
        };
        for &step in &damages {
            damage(&mut bytes, step);
        }
        assert_decoders_agree(&bytes);
        prop_assert_eq!(decode_capture(&bytes), reference_decode_capture(&bytes));
    }
}

/// Hand-built `Access` encodings at the fast path's edges, each alone
/// (a short tail) and followed by padding (a full window).
#[test]
fn access_edge_cases_decode_exactly_as_the_checked_decoder() {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }
    let access = |thread: &[u8], addr: &[u8], kind: u8, path: &[u8], instr: &[u8]| {
        let mut out = vec![1, 3];
        out.extend_from_slice(thread);
        out.extend_from_slice(addr);
        out.push(kind);
        out.extend_from_slice(path);
        out.extend_from_slice(instr);
        varint(&mut out, 77);
        out
    };
    let v = |x: u64| {
        let mut out = Vec::new();
        varint(&mut out, x);
        out
    };
    let cases = [
        access(&v(5), &v(0x1040), 1, &[0], &v(9)),
        access(&v(0xFFFF), &v(u64::MAX - 7), 3, &[3, 2], &v(u64::MAX)),
        access(&v(0x1_0000), &v(8), 0, &[1], &v(1)),
        access(&[0x85, 0x80, 0x00], &v(8), 0, &[1], &v(1)),
        access(&[0x85, 0x80, 0x80, 0x00], &v(8), 0, &[1], &v(1)),
        access(&v(1), &v(0x1001), 0, &[0], &v(1)),
        access(&v(1), &v(8), 4, &[0], &v(1)),
        access(&v(1), &v(8), 2, &[5], &v(1)),
        access(&v(1), &v(8), 2, &[4], &[0xff; 11]),
        access(
            &v(1),
            &v(8),
            2,
            &[4],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
        ),
        access(
            &v(1),
            &[0x88, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
            2,
            &[4],
            &v(1),
        ),
    ];
    for case in cases {
        assert_decoders_agree(&case);
        let mut padded = case.clone();
        padded.resize(case.len() + 40, 0);
        assert_decoders_agree(&padded);
    }
}
