//! The versioned wire format for detector event streams.
//!
//! Streaming detection splits *producing* events (the simulator, or any
//! future instrumented runtime) from *checking* them (a
//! `DetectorSink`). This module defines what travels between the two:
//!
//! * [`StreamHeader`] — stream metadata plus the [`StreamGeometry`]
//!   (thread/core counts and the address-space layout) that lets a
//!   consumer resolve dense line/word indices without ever seeing a
//!   `Machine`.
//! * [`StreamEvent`] — the six detector-input events (the five
//!   [`MemoryObserver`](crate::events::MemoryObserver) callbacks plus a
//!   passthrough for [`TraceEvent`] observability records).
//! * A **compact binary codec** (tag byte + LEB128 varints) for every
//!   event, plus length-prefixed frame helpers — the unit a socket or
//!   capture file is made of. The header travels as JSON.
//!
//! The binary encoding is pinned by a golden fixture
//! (`tests/wire_roundtrip.rs`); bump [`WIRE_VERSION`] when it changes.

use crate::events::{
    AccessEvent, AccessKind, AccessPath, CoreId, Level, LineRemoval, RemovalCause,
};
use crate::TraceEvent;
use cord_json::{obj, FromJson, Json, JsonError, ToJson};
use cord_trace::layout::{AddressLayout, DenseLineMap};
use cord_trace::types::{Addr, LineAddr, ThreadId, WORD_BYTES};
use std::fmt;
use std::io::{self, Read, Write};

/// Version of the binary event encoding and frame layout.
pub const WIRE_VERSION: u32 = 1;

/// Frame payload tag: stream header (payload is compact header JSON).
pub const FRAME_HEADER: u8 = b'H';
/// Frame payload tag: a batch of binary-encoded events.
pub const FRAME_EVENTS: u8 = b'E';

/// Events per [`FRAME_EVENTS`] frame in capture files — a fixed batch
/// size keeps capture bytes deterministic for a given event sequence.
pub const CAPTURE_BATCH: usize = 256;

/// Largest frame payload a reader will accept (defends a daemon against
/// a garbage length prefix).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Decoding failure: the stream is truncated, garbled, or from a
/// different wire version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended inside a value.
    Truncated,
    /// An unknown tag byte.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A decoded value violates an invariant (e.g. misaligned address).
    BadValue(String),
    /// The header JSON failed to parse or convert.
    Json(JsonError),
    /// The stream's version is not [`WIRE_VERSION`].
    Version {
        /// Version found in the header.
        found: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire data truncated"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadValue(msg) => write!(f, "bad wire value: {msg}"),
            WireError::Json(e) => write!(f, "wire header: {e}"),
            WireError::Version { found } => {
                write!(f, "wire version {found} (expected {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::Json(e)
    }
}

/// The machine and address-space geometry a stream was produced under —
/// everything a consumer needs to size shadow state and resolve
/// [`dense_line_index`](cord_trace::layout::dense_line_index) bounds
/// without a `Machine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamGeometry {
    /// Number of workload threads.
    pub threads: u32,
    /// Number of cores on the producing machine.
    pub cores: u32,
    /// User-allocated locks in the address layout.
    pub user_locks: u32,
    /// User-allocated flags in the address layout.
    pub user_flags: u32,
    /// Barriers in the address layout.
    pub barriers: u32,
    /// Data-heap size in words.
    pub data_words: u64,
    /// User-allocated atomic RMW words in the address layout. Zero for
    /// every stream produced before the atomic vocabulary existed; the
    /// field is omitted from the wire encoding when zero, so such
    /// streams (and their byte-pinned fixtures) are unchanged.
    pub user_atomics: u32,
}

impl StreamGeometry {
    /// Captures the geometry of a run: thread/core counts plus the
    /// workload's address layout.
    pub fn new(threads: usize, cores: usize, layout: &AddressLayout) -> Self {
        StreamGeometry {
            threads: threads as u32,
            cores: cores as u32,
            user_locks: layout.user_locks(),
            user_flags: layout.user_flags(),
            barriers: layout.barriers(),
            data_words: layout.data_words(),
            user_atomics: layout.user_atomics(),
        }
    }

    /// Reconstructs the address layout the stream was produced under.
    pub fn layout(&self) -> AddressLayout {
        AddressLayout::new(
            self.user_locks,
            self.user_flags,
            self.barriers,
            self.data_words,
        )
        .with_atomics(self.user_atomics)
    }

    /// Dense-index capacity bounds for shadow state (see
    /// [`DenseLineMap`]).
    pub fn dense_map(&self) -> DenseLineMap {
        DenseLineMap::new(&self.layout())
    }
}

impl ToJson for StreamGeometry {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("threads", self.threads.to_json()),
            ("cores", self.cores.to_json()),
            ("user_locks", self.user_locks.to_json()),
            ("user_flags", self.user_flags.to_json()),
            ("barriers", self.barriers.to_json()),
            ("data_words", self.data_words.to_json()),
        ];
        if self.user_atomics != 0 {
            fields.push(("user_atomics", self.user_atomics.to_json()));
        }
        obj(fields)
    }
}

impl FromJson for StreamGeometry {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(StreamGeometry {
            threads: FromJson::from_json(v.field("threads")?)?,
            cores: FromJson::from_json(v.field("cores")?)?,
            user_locks: FromJson::from_json(v.field("user_locks")?)?,
            user_flags: FromJson::from_json(v.field("user_flags")?)?,
            barriers: FromJson::from_json(v.field("barriers")?)?,
            data_words: FromJson::from_json(v.field("data_words")?)?,
            user_atomics: match v.get("user_atomics") {
                Some(j) => FromJson::from_json(j)?,
                None => 0,
            },
        })
    }
}

/// The first frame of every stream: version, provenance, geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// Wire version ([`WIRE_VERSION`] when produced by this build).
    pub version: u32,
    /// Workload name (provenance only).
    pub workload: String,
    /// Detector configuration label the stream should be checked under
    /// (e.g. `"CORD-D16"`); daemons use it to build the sink.
    pub detector: String,
    /// Simulation seed (provenance only).
    pub seed: u64,
    /// Machine/address-space geometry.
    pub geometry: StreamGeometry,
}

impl StreamHeader {
    /// A header for a run at the current wire version.
    pub fn new(workload: &str, detector: &str, seed: u64, geometry: StreamGeometry) -> Self {
        StreamHeader {
            version: WIRE_VERSION,
            workload: workload.to_owned(),
            detector: detector.to_owned(),
            seed,
            geometry,
        }
    }

    /// Serializes the header as a [`FRAME_HEADER`] frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![FRAME_HEADER];
        out.extend_from_slice(self.to_json().to_string_compact().as_bytes());
        out
    }

    /// Decodes a [`FRAME_HEADER`] frame payload, checking the version.
    pub fn decode(payload: &[u8]) -> Result<StreamHeader, WireError> {
        match payload.split_first() {
            Some((&FRAME_HEADER, body)) => {
                let text = std::str::from_utf8(body)
                    .map_err(|_| WireError::BadValue("header is not UTF-8".into()))?;
                let header = StreamHeader::from_json(&Json::parse(text)?)?;
                if header.version != WIRE_VERSION {
                    return Err(WireError::Version {
                        found: header.version,
                    });
                }
                Ok(header)
            }
            Some((&tag, _)) => Err(WireError::BadTag { what: "frame", tag }),
            None => Err(WireError::Truncated),
        }
    }
}

impl ToJson for StreamHeader {
    fn to_json(&self) -> Json {
        obj(vec![
            ("version", self.version.to_json()),
            ("workload", self.workload.to_json()),
            ("detector", self.detector.to_json()),
            ("seed", self.seed.to_json()),
            ("geometry", self.geometry.to_json()),
        ])
    }
}

impl FromJson for StreamHeader {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(StreamHeader {
            version: FromJson::from_json(v.field("version")?)?,
            workload: FromJson::from_json(v.field("workload")?)?,
            detector: FromJson::from_json(v.field("detector")?)?,
            seed: FromJson::from_json(v.field("seed")?)?,
            geometry: FromJson::from_json(v.field("geometry")?)?,
        })
    }
}

/// One detector-input event: the `MemoryObserver` callback vocabulary,
/// reified so it can travel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A memory access retired (`on_access`).
    Access(AccessEvent),
    /// A line was filled into a cache level (`on_line_filled`).
    LineFilled {
        /// Destination core.
        core: CoreId,
        /// Cache level.
        level: Level,
        /// The line filled.
        line: LineAddr,
    },
    /// A line left a cache level (`on_line_removed`).
    LineRemoved(LineRemoval),
    /// A thread moved between cores (`on_thread_migrated`).
    ThreadMigrated {
        /// The migrating thread.
        thread: ThreadId,
        /// Source core.
        from: CoreId,
        /// Destination core.
        to: CoreId,
    },
    /// The run finished (`on_run_end`).
    RunEnd {
        /// Final retired instruction count per thread.
        instr_counts: Vec<u64>,
    },
    /// A passthrough observability record (not a detector input; lets a
    /// stream interleave trace events with the callback stream).
    Trace(TraceEvent),
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

const TAG_ACCESS: u8 = 1;
const TAG_FILL: u8 = 2;
const TAG_REMOVE: u8 = 3;
const TAG_MIGRATE: u8 = 4;
const TAG_RUN_END: u8 = 5;
const TAG_TRACE: u8 = 6;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(WireError::BadValue("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    let &b = buf.get(*pos).ok_or(WireError::Truncated)?;
    *pos += 1;
    Ok(b)
}

fn kind_code(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::DataRead => 0,
        AccessKind::DataWrite => 1,
        AccessKind::SyncRead => 2,
        AccessKind::SyncWrite => 3,
    }
}

fn kind_from_code(code: u8) -> Result<AccessKind, WireError> {
    Ok(match code {
        0 => AccessKind::DataRead,
        1 => AccessKind::DataWrite,
        2 => AccessKind::SyncRead,
        3 => AccessKind::SyncWrite,
        tag => {
            return Err(WireError::BadTag {
                what: "access kind",
                tag,
            })
        }
    })
}

fn level_code(level: Level) -> u8 {
    match level {
        Level::L1 => 1,
        Level::L2 => 2,
    }
}

fn level_from_code(code: u8) -> Result<Level, WireError> {
    Ok(match code {
        1 => Level::L1,
        2 => Level::L2,
        tag => {
            return Err(WireError::BadTag {
                what: "cache level",
                tag,
            })
        }
    })
}

fn decode_addr(raw: u64) -> Result<Addr, WireError> {
    if !raw.is_multiple_of(WORD_BYTES) {
        return Err(WireError::BadValue(format!(
            "address {raw:#x} is not word-aligned"
        )));
    }
    Ok(Addr::new(raw))
}

/// Appends the binary encoding of `ev` to `out`.
pub fn encode_event(ev: &StreamEvent, out: &mut Vec<u8>) {
    match ev {
        StreamEvent::Access(a) => {
            out.push(TAG_ACCESS);
            out.push(a.core.0);
            put_varint(out, u64::from(a.thread.0));
            put_varint(out, a.addr.byte());
            out.push(kind_code(a.kind));
            match a.path {
                AccessPath::L1Hit => out.push(0),
                AccessPath::L2Hit => out.push(1),
                AccessPath::UpgradeHit => out.push(2),
                AccessPath::FillFromSibling(sib) => {
                    out.push(3);
                    out.push(sib.0);
                }
                AccessPath::FillFromMemory => out.push(4),
            }
            put_varint(out, a.instr_index);
            put_varint(out, a.cycle);
        }
        StreamEvent::LineFilled { core, level, line } => {
            out.push(TAG_FILL);
            out.push(core.0);
            out.push(level_code(*level));
            put_varint(out, line.0);
        }
        StreamEvent::LineRemoved(r) => {
            out.push(TAG_REMOVE);
            out.push(r.core.0);
            out.push(level_code(r.level));
            put_varint(out, r.line.0);
            let mut flags = 0u8;
            if r.dirty {
                flags |= 1;
            }
            if r.cause == RemovalCause::Invalidation {
                flags |= 2;
            }
            out.push(flags);
        }
        StreamEvent::ThreadMigrated { thread, from, to } => {
            out.push(TAG_MIGRATE);
            put_varint(out, u64::from(thread.0));
            out.push(from.0);
            out.push(to.0);
        }
        StreamEvent::RunEnd { instr_counts } => {
            out.push(TAG_RUN_END);
            put_varint(out, instr_counts.len() as u64);
            for &c in instr_counts {
                put_varint(out, c);
            }
        }
        StreamEvent::Trace(t) => {
            out.push(TAG_TRACE);
            encode_trace_event(t, out);
        }
    }
}

fn encode_trace_event(t: &TraceEvent, out: &mut Vec<u8>) {
    use crate::{BusKind, EventKind};
    put_varint(out, t.cycle);
    put_varint(out, u64::from(t.thread));
    match &t.kind {
        EventKind::Bus { bus, line } => {
            out.push(0);
            out.push(match bus {
                BusKind::Data => 0,
                BusKind::Addr => 1,
                BusKind::Ts => 2,
                BusKind::Mem => 3,
            });
            put_varint(out, *line);
        }
        EventKind::Fill { core, level, line } => {
            out.push(1);
            out.push(*core);
            out.push(*level);
            put_varint(out, *line);
        }
        EventKind::Remove {
            core,
            level,
            line,
            dirty,
            invalidation,
        } => {
            out.push(2);
            out.push(*core);
            out.push(*level);
            put_varint(out, *line);
            let mut flags = 0u8;
            if *dirty {
                flags |= 1;
            }
            if *invalidation {
                flags |= 2;
            }
            out.push(flags);
        }
        EventKind::RaceCheck { line, requests } => {
            out.push(3);
            put_varint(out, *line);
            put_varint(out, u64::from(*requests));
        }
        EventKind::MemtsBroadcast { count } => {
            out.push(4);
            put_varint(out, u64::from(*count));
        }
        EventKind::WalkerPass { evicted, bound } => {
            out.push(5);
            put_varint(out, *evicted);
            put_varint(out, *bound);
        }
        EventKind::Injection { instance, release } => {
            out.push(6);
            put_varint(out, *instance);
            out.push(u8::from(*release));
        }
        EventKind::Migration { from, to } => {
            out.push(7);
            out.push(*from);
            out.push(*to);
        }
        EventKind::Race { addr, other_core } => {
            out.push(8);
            put_varint(out, *addr);
            out.push(*other_core);
        }
    }
}

fn decode_trace_event(buf: &[u8], pos: &mut usize) -> Result<TraceEvent, WireError> {
    use crate::{BusKind, EventKind};
    let cycle = get_varint(buf, pos)?;
    let thread = u16::try_from(get_varint(buf, pos)?)
        .map_err(|_| WireError::BadValue("trace thread exceeds u16".into()))?;
    let kind = match get_u8(buf, pos)? {
        0 => EventKind::Bus {
            bus: match get_u8(buf, pos)? {
                0 => BusKind::Data,
                1 => BusKind::Addr,
                2 => BusKind::Ts,
                3 => BusKind::Mem,
                tag => return Err(WireError::BadTag { what: "bus", tag }),
            },
            line: get_varint(buf, pos)?,
        },
        1 => EventKind::Fill {
            core: get_u8(buf, pos)?,
            level: get_u8(buf, pos)?,
            line: get_varint(buf, pos)?,
        },
        2 => {
            let core = get_u8(buf, pos)?;
            let level = get_u8(buf, pos)?;
            let line = get_varint(buf, pos)?;
            let flags = get_u8(buf, pos)?;
            EventKind::Remove {
                core,
                level,
                line,
                dirty: flags & 1 != 0,
                invalidation: flags & 2 != 0,
            }
        }
        3 => EventKind::RaceCheck {
            line: get_varint(buf, pos)?,
            requests: u32::try_from(get_varint(buf, pos)?)
                .map_err(|_| WireError::BadValue("race-check requests exceed u32".into()))?,
        },
        4 => EventKind::MemtsBroadcast {
            count: u32::try_from(get_varint(buf, pos)?)
                .map_err(|_| WireError::BadValue("memts count exceeds u32".into()))?,
        },
        5 => EventKind::WalkerPass {
            evicted: get_varint(buf, pos)?,
            bound: get_varint(buf, pos)?,
        },
        6 => EventKind::Injection {
            instance: get_varint(buf, pos)?,
            release: get_u8(buf, pos)? != 0,
        },
        7 => EventKind::Migration {
            from: get_u8(buf, pos)?,
            to: get_u8(buf, pos)?,
        },
        8 => EventKind::Race {
            addr: get_varint(buf, pos)?,
            other_core: get_u8(buf, pos)?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "trace event",
                tag,
            })
        }
    };
    Ok(TraceEvent {
        cycle,
        thread,
        kind,
    })
}

/// The longest binary encoding of an `Access` event: tag, core, a
/// 3-byte thread varint (`u16`), a 10-byte address varint, kind, a
/// 2-byte path, and two 10-byte varints.
const MAX_ACCESS_BYTES: usize = 38;

/// Decodes one event from `buf` at `*pos`, advancing the position.
///
/// `Access` events, most of any stream, take a fast path over a
/// fixed-size window; anything it does not expect falls back to
/// [`decode_event_checked`], so the result, the new position and every
/// error are exactly the checked decoder's.
#[inline]
pub fn decode_event(buf: &[u8], pos: &mut usize) -> Result<StreamEvent, WireError> {
    if let Some((access, len)) = decode_access_fast(buf, *pos) {
        *pos += len;
        return Ok(StreamEvent::Access(access));
    }
    decode_event_checked(buf, pos)
}

/// An `Access` event at `pos` and its encoded length, when at least
/// [`MAX_ACCESS_BYTES`] remain and every field is in range. `None` on
/// anything unusual: a short tail, another tag, a varint longer than
/// this path reads, a misaligned address, a thread id past `u16`, or
/// an unknown kind or path.
#[inline]
fn decode_access_fast(buf: &[u8], pos: usize) -> Option<(AccessEvent, usize)> {
    let w: &[u8; MAX_ACCESS_BYTES] = buf
        .get(pos..pos.checked_add(MAX_ACCESS_BYTES)?)?
        .try_into()
        .ok()?;
    if w[0] != TAG_ACCESS {
        return None;
    }
    let mut i = 2;
    // Field budgets of 3 + 9 + 9 + 9 bytes keep every read inside the
    // window (the fixed fields take 5).
    let thread = u16::try_from(window_varint(w, &mut i, 3)?).ok()?;
    let addr = window_varint(w, &mut i, 9)?;
    if !addr.is_multiple_of(WORD_BYTES) {
        return None;
    }
    let kind = match w[i] {
        0 => AccessKind::DataRead,
        1 => AccessKind::DataWrite,
        2 => AccessKind::SyncRead,
        3 => AccessKind::SyncWrite,
        _ => return None,
    };
    let (path, path_len) = match w[i + 1] {
        0 => (AccessPath::L1Hit, 1),
        1 => (AccessPath::L2Hit, 1),
        2 => (AccessPath::UpgradeHit, 1),
        3 => (AccessPath::FillFromSibling(CoreId(w[i + 2])), 2),
        4 => (AccessPath::FillFromMemory, 1),
        _ => return None,
    };
    i += 1 + path_len;
    let instr_index = window_varint(w, &mut i, 9)?;
    let cycle = window_varint(w, &mut i, 9)?;
    let access = AccessEvent {
        core: CoreId(w[1]),
        thread: ThreadId(thread),
        addr: Addr::new(addr),
        kind,
        path,
        instr_index,
        cycle,
    };
    Some((access, i))
}

/// A varint of at most `max_len` bytes at `w[*i]`, advancing `*i`;
/// `None` if it runs longer. Up to 9 bytes the value is exactly what
/// [`get_varint`] reads.
#[inline]
fn window_varint(w: &[u8; MAX_ACCESS_BYTES], i: &mut usize, max_len: usize) -> Option<u64> {
    let mut v = 0u64;
    for k in 0..max_len {
        let byte = *w.get(*i + k)?;
        v |= u64::from(byte & 0x7f) << (7 * k);
        if byte & 0x80 == 0 {
            *i += k + 1;
            return Some(v);
        }
    }
    None
}

/// Decodes one event from `buf` at `*pos`, advancing the position,
/// checking every byte: the reference [`decode_event`] must agree with.
pub fn decode_event_checked(buf: &[u8], pos: &mut usize) -> Result<StreamEvent, WireError> {
    Ok(match get_u8(buf, pos)? {
        TAG_ACCESS => {
            let core = CoreId(get_u8(buf, pos)?);
            let thread = ThreadId(
                u16::try_from(get_varint(buf, pos)?)
                    .map_err(|_| WireError::BadValue("thread id exceeds u16".into()))?,
            );
            let addr = decode_addr(get_varint(buf, pos)?)?;
            let kind = kind_from_code(get_u8(buf, pos)?)?;
            let path = match get_u8(buf, pos)? {
                0 => AccessPath::L1Hit,
                1 => AccessPath::L2Hit,
                2 => AccessPath::UpgradeHit,
                3 => AccessPath::FillFromSibling(CoreId(get_u8(buf, pos)?)),
                4 => AccessPath::FillFromMemory,
                tag => {
                    return Err(WireError::BadTag {
                        what: "access path",
                        tag,
                    })
                }
            };
            StreamEvent::Access(AccessEvent {
                core,
                thread,
                addr,
                kind,
                path,
                instr_index: get_varint(buf, pos)?,
                cycle: get_varint(buf, pos)?,
            })
        }
        TAG_FILL => StreamEvent::LineFilled {
            core: CoreId(get_u8(buf, pos)?),
            level: level_from_code(get_u8(buf, pos)?)?,
            line: LineAddr(get_varint(buf, pos)?),
        },
        TAG_REMOVE => {
            let core = CoreId(get_u8(buf, pos)?);
            let level = level_from_code(get_u8(buf, pos)?)?;
            let line = LineAddr(get_varint(buf, pos)?);
            let flags = get_u8(buf, pos)?;
            StreamEvent::LineRemoved(LineRemoval {
                core,
                level,
                line,
                cause: if flags & 2 != 0 {
                    RemovalCause::Invalidation
                } else {
                    RemovalCause::Capacity
                },
                dirty: flags & 1 != 0,
            })
        }
        TAG_MIGRATE => StreamEvent::ThreadMigrated {
            thread: ThreadId(
                u16::try_from(get_varint(buf, pos)?)
                    .map_err(|_| WireError::BadValue("thread id exceeds u16".into()))?,
            ),
            from: CoreId(get_u8(buf, pos)?),
            to: CoreId(get_u8(buf, pos)?),
        },
        TAG_RUN_END => {
            let n = get_varint(buf, pos)?;
            if n > (1 << 20) {
                return Err(WireError::BadValue(format!("run-end claims {n} threads")));
            }
            let mut instr_counts = Vec::with_capacity(n as usize);
            for _ in 0..n {
                instr_counts.push(get_varint(buf, pos)?);
            }
            StreamEvent::RunEnd { instr_counts }
        }
        TAG_TRACE => StreamEvent::Trace(decode_trace_event(buf, pos)?),
        tag => {
            return Err(WireError::BadTag {
                what: "stream event",
                tag,
            })
        }
    })
}

/// Encodes a batch of events as one contiguous byte string.
pub fn encode_events(events: &[StreamEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 12);
    for ev in events {
        encode_event(ev, &mut out);
    }
    out
}

/// Decodes a contiguous byte string of events (a [`FRAME_EVENTS`]
/// payload without its leading tag).
pub fn decode_events(buf: &[u8]) -> Result<Vec<StreamEvent>, WireError> {
    let mut events = Vec::new();
    decode_events_into(buf, &mut events)?;
    Ok(events)
}

/// Appends every event of `buf` to `out`.
fn decode_events_into(buf: &[u8], out: &mut Vec<StreamEvent>) -> Result<(), WireError> {
    let mut pos = 0;
    while pos < buf.len() {
        out.push(decode_event(buf, &mut pos)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Access-kind names
// ---------------------------------------------------------------------

/// The canonical wire name of an access kind (`data-read`,
/// `data-write`, `sync-read`, `sync-write`), shared by every JSON
/// surface that serializes accesses or races.
pub fn kind_name(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::DataRead => "data-read",
        AccessKind::DataWrite => "data-write",
        AccessKind::SyncRead => "sync-read",
        AccessKind::SyncWrite => "sync-write",
    }
}

// ---------------------------------------------------------------------
// Frames and capture containers
// ---------------------------------------------------------------------

/// Wraps a payload in its length prefix (u32 little-endian).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF (no bytes
/// of the next frame read), an error on mid-frame EOF or an oversize
/// length prefix. A read interrupted by a signal is retried, in the
/// prefix as in the payload.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = match r.read(&mut len_bytes[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Serializes a whole captured stream: a header frame followed by
/// [`CAPTURE_BATCH`]-sized event frames.
pub fn encode_capture(header: &StreamHeader, events: &[StreamEvent]) -> Vec<u8> {
    let mut out = encode_frame(&header.encode());
    for batch in events.chunks(CAPTURE_BATCH.max(1)) {
        let mut payload = vec![FRAME_EVENTS];
        for ev in batch {
            encode_event(ev, &mut payload);
        }
        out.extend_from_slice(&encode_frame(&payload));
    }
    out
}

/// Parses a capture produced by [`encode_capture`].
pub fn decode_capture(bytes: &[u8]) -> Result<(StreamHeader, Vec<StreamEvent>), WireError> {
    let mut cursor = io::Cursor::new(bytes);
    let first = read_frame(&mut cursor)
        .map_err(|e| WireError::BadValue(e.to_string()))?
        .ok_or(WireError::Truncated)?;
    let header = StreamHeader::decode(&first)?;
    let mut events = Vec::new();
    while let Some(payload) =
        read_frame(&mut cursor).map_err(|e| WireError::BadValue(e.to_string()))?
    {
        match payload.split_first() {
            Some((&FRAME_EVENTS, body)) => decode_events_into(body, &mut events)?,
            Some((&tag, _)) => return Err(WireError::BadTag { what: "frame", tag }),
            None => return Err(WireError::Truncated),
        }
    }
    Ok((header, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusKind, EventKind};

    fn sample_events() -> Vec<StreamEvent> {
        vec![
            StreamEvent::Access(AccessEvent {
                core: CoreId(1),
                thread: ThreadId(2),
                addr: Addr::new(0x1040),
                kind: AccessKind::DataWrite,
                path: AccessPath::FillFromSibling(CoreId(3)),
                instr_index: 1234,
                cycle: 567_890,
            }),
            StreamEvent::LineFilled {
                core: CoreId(0),
                level: Level::L2,
                line: LineAddr(0x41),
            },
            StreamEvent::LineRemoved(LineRemoval {
                core: CoreId(2),
                level: Level::L1,
                line: LineAddr(7),
                cause: RemovalCause::Invalidation,
                dirty: true,
            }),
            StreamEvent::ThreadMigrated {
                thread: ThreadId(3),
                from: CoreId(1),
                to: CoreId(0),
            },
            StreamEvent::Trace(TraceEvent {
                cycle: 99,
                thread: 1,
                kind: EventKind::Bus {
                    bus: BusKind::Ts,
                    line: 42,
                },
            }),
            StreamEvent::RunEnd {
                instr_counts: vec![10, 20, 30, 40],
            },
        ]
    }

    fn sample_header() -> StreamHeader {
        StreamHeader::new(
            "fft-tiny",
            "CORD-D16",
            42,
            StreamGeometry {
                threads: 4,
                cores: 4,
                user_locks: 2,
                user_flags: 1,
                barriers: 1,
                data_words: 4096,
                user_atomics: 0,
            },
        )
    }

    #[test]
    fn binary_roundtrip() {
        let events = sample_events();
        let bytes = encode_events(&events);
        assert_eq!(decode_events(&bytes).expect("decodes"), events);
    }

    #[test]
    fn header_roundtrip_and_version_check() {
        let h = sample_header();
        assert_eq!(StreamHeader::decode(&h.encode()).expect("decodes"), h);
        let mut stale = h.clone();
        stale.version = 999;
        match StreamHeader::decode(&stale.encode()) {
            Err(WireError::Version { found: 999 }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn geometry_reconstructs_layout() {
        let h = sample_header();
        let layout = h.geometry.layout();
        assert_eq!(layout.user_locks(), 2);
        assert_eq!(layout.data_words(), 4096);
        assert!(h.geometry.dense_map().line_capacity() > 0);
    }

    #[test]
    fn capture_roundtrip_across_batches() {
        let mut events = Vec::new();
        for i in 0..(CAPTURE_BATCH as u64 * 2 + 7) {
            events.push(StreamEvent::LineFilled {
                core: CoreId((i % 4) as u8),
                level: Level::L2,
                line: LineAddr(i),
            });
        }
        let header = sample_header();
        let bytes = encode_capture(&header, &events);
        let (h, back) = decode_capture(&bytes).expect("decodes");
        assert_eq!(h, header);
        assert_eq!(back, events);
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let bytes = encode_events(&sample_events());
        assert!(decode_events(&bytes[..bytes.len() - 1]).is_err());
        assert!(matches!(
            decode_events(&[0xff]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write");
        let mut cur = io::Cursor::new(&buf);
        assert_eq!(
            read_frame(&mut cur).expect("frame"),
            Some(b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut cur).expect("frame"), Some(Vec::new()));
        assert_eq!(read_frame(&mut cur).expect("eof"), None);
    }

    /// A reader a signal interrupts before every byte it delivers.
    struct Interrupting<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let Some((&b, rest)) = self.bytes.split_first() else {
                return Ok(0);
            };
            match buf.first_mut() {
                Some(slot) => *slot = b,
                None => return Ok(0),
            }
            self.bytes = rest;
            Ok(1)
        }
    }

    #[test]
    fn frame_reads_retry_interrupted_reads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write");
        let mut r = Interrupting {
            bytes: &buf,
            interrupt: false,
        };
        assert_eq!(read_frame(&mut r).expect("frame"), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).expect("frame"), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn misaligned_address_rejected() {
        // Hand-build an Access event with a misaligned address.
        let mut bytes = Vec::new();
        bytes.push(TAG_ACCESS);
        bytes.push(0); // core
        put_varint(&mut bytes, 0); // thread
        put_varint(&mut bytes, 0x1001); // misaligned address
        bytes.push(0); // kind
        bytes.push(0); // path
        put_varint(&mut bytes, 0);
        put_varint(&mut bytes, 0);
        assert!(matches!(decode_events(&bytes), Err(WireError::BadValue(_))));
    }
}
