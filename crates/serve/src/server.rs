//! The daemon: accept loop, ingest sessions, queries, and snapshots.

use crate::protocol::{encode_response, encode_response_bytes, Query, ServeError, FRAME_QUERY};
use cord_core::{DetectorSink, ObsCtx};
use cord_detectors::{DetectorConfig, DetectorEnum};
use cord_json::durable::{self, RecoveryEvent};
use cord_json::{obj, Json, ToJson};
use cord_obs::wire::StreamGeometry;
use cord_obs::wire::{decode_events, read_frame, write_frame, FRAME_EVENTS, FRAME_HEADER};
use cord_obs::{CoreId, Histogram, MetricsRegistry, StreamEvent, StreamHeader};
use cord_pool::lock_unpoisoned;
use cord_trace::layout::dense_line_index;
use cord_trace::types::{LineAddr, ThreadId};
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Ingest-latency sampling stride: a session's first `Access` and every
/// `INGEST_SAMPLE_STRIDE`-th one after it are timed into the
/// `ingest_latency` histogram; every other event is ingested without a
/// clock read, which would otherwise cost about as much as the ingest.
const INGEST_SAMPLE_STRIDE: u64 = 64;

/// The most threads a stream header may declare. Detectors size their
/// per-thread state from the header before the first event arrives, and
/// the vector-clock sinks allocate `threads × (threads + cores)` clock
/// components up front, so the count must be bounded before a sink is
/// built. The largest producers in this repository run 34 threads (the
/// fuzzer's wide mode, `cores + 2` on 32 cores) and 32 (`figures
/// scaling`); 256 leaves room for wider machines, matches the core
/// limit, and keeps a sink's up-front clocks near a megabyte.
pub const MAX_STREAM_THREADS: u32 = 256;

/// The most cores a stream header may declare: `CoreId` is a `u8`, the
/// same limit `MachineConfig::validate` enforces.
pub const MAX_STREAM_CORES: u32 = 256;

/// The largest data heap, in words, a stream header may declare. A
/// session's shadow state grows to the dense index of the highest line
/// an event names, and the reader bounds those lines by the header's
/// address layout, so the layout itself must be bounded. The largest
/// producers in this repository declare 143,361 words; 2^20 words (4
/// MiB of simulated heap) leaves room for larger inputs and keeps a
/// session's dense line space near 128 Ki lines.
pub const MAX_STREAM_DATA_WORDS: u64 = 1 << 20;

/// The most locks, flags, barriers or atomic words a stream header may
/// declare, each; bounded for the same reason as
/// [`MAX_STREAM_DATA_WORDS`]. The largest producer in this repository
/// declares 514 atomic words (the Michael–Scott queue at Paper scale on
/// 32 threads), and none declares more than 48 of any other kind.
pub const MAX_STREAM_SYNC_OBJECTS: u32 = 1 << 12;

/// How a daemon runs: where it listens, how it snapshots, and how much
/// in-flight work it tolerates.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path. A stale file at this path is removed at
    /// startup.
    pub socket: PathBuf,
    /// Durable snapshot document path; `None` disables snapshots.
    pub snapshot: Option<PathBuf>,
    /// Events between periodic snapshots (a final snapshot is always
    /// written when a session drains); `0` keeps only final snapshots.
    pub snapshot_every: u64,
    /// Bounded depth of each session's frame queue — the backpressure
    /// knob. When the detector lags this many undigested batches, the
    /// reader stops pulling from the socket and the producer stalls.
    pub queue_depth: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("cord-serve.sock"),
            snapshot: None,
            snapshot_every: 100_000,
            queue_depth: 64,
        }
    }
}

/// Daemon-wide state behind the queries.
#[derive(Debug, Default)]
struct DaemonState {
    sessions_started: u64,
    sessions_completed: u64,
    events_ingested: u64,
    races_reported: u64,
    snapshots_written: u64,
    /// Abnormal recoveries: snapshot generations skipped at startup.
    recovery: Vec<RecoveryEvent>,
    /// All races from drained sessions, in drain order.
    races: Vec<Json>,
    /// Merged metrics of drained sessions.
    metrics: MetricsRegistry,
    /// Per-access ingest latency across drained sessions (how long the
    /// sink spent on one Access event, sampled every
    /// [`INGEST_SAMPLE_STRIDE`] accesses), merged pointwise.
    ingest_latency: Histogram,
    /// Header info of the most recent session.
    last_workload: String,
    last_detector: String,
}

struct Shared {
    cfg: DaemonConfig,
    state: Mutex<DaemonState>,
    shutdown: AtomicBool,
}

/// A streaming race-detection daemon on a Unix-domain socket.
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Daemon {
    /// A daemon with the given configuration (not yet listening).
    pub fn new(cfg: DaemonConfig) -> Daemon {
        let mut state = DaemonState::default();
        // Surface prior-snapshot recovery immediately: a corrupt primary
        // generation is a structured status fact, not a stderr line.
        if let Some(path) = &cfg.snapshot {
            let load = durable::load_checkpoint(path);
            state.recovery = load.warnings;
        }
        Daemon {
            shared: Arc::new(Shared {
                cfg,
                state: Mutex::new(state),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Binds the socket and serves until a `shutdown` query arrives.
    /// Each connection gets its own session thread; ingest sessions get
    /// a reader/worker pair with a bounded queue between them.
    pub fn run(&self) -> Result<(), ServeError> {
        let socket = self.shared.cfg.socket.clone();
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)?;
        let mut sessions = Vec::new();
        for conn in listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            reap_finished(&mut sessions);
            let shared = Arc::clone(&self.shared);
            sessions.push(thread::spawn(move || {
                // A failed session must not take the daemon down; the
                // error is the client's problem (their connection drops).
                let _ = handle_connection(stream, &shared);
            }));
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        for s in sessions {
            let _ = s.join();
        }
        let _ = std::fs::remove_file(&socket);
        Ok(())
    }

    /// The daemon's socket path.
    pub fn socket(&self) -> &PathBuf {
        &self.shared.cfg.socket
    }
}

/// Joins the session threads that have finished, so a long-lived daemon
/// keeps a handle, and an unjoined thread's resources, only for the
/// sessions still running.
fn reap_finished(sessions: &mut Vec<JoinHandle<()>>) {
    for done in sessions.extract_if(.., |s| s.is_finished()) {
        let _ = done.join();
    }
}

/// Work items flowing from a session's reader to its worker over the
/// bounded queue.
enum Work {
    /// A decoded batch of events to ingest, in arrival order.
    Events(Vec<StreamEvent>),
    /// Flush + drain; the canonical report bytes go back on the reply
    /// channel.
    Drain(SyncSender<Vec<u8>>),
}

fn handle_connection(stream: UnixStream, shared: &Arc<Shared>) -> Result<(), ServeError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let first = match read_frame(&mut reader)? {
        Some(f) => f,
        None => return Ok(()),
    };
    match first.split_first() {
        Some((&FRAME_HEADER, _)) => {
            let header = StreamHeader::decode(&first)?;
            stream_session(header, reader, stream, shared)
        }
        Some((&FRAME_QUERY, _)) => {
            let q = Query::decode(&first)?;
            let mut writer = BufWriter::new(stream);
            answer_query(q, shared, None, &mut writer)
        }
        Some((&tag, _)) => Err(ServeError::BadFrame { tag }),
        None => Err(ServeError::Protocol("empty first frame".into())),
    }
}

fn stream_session(
    header: StreamHeader,
    mut reader: BufReader<UnixStream>,
    stream: UnixStream,
    shared: &Arc<Shared>,
) -> Result<(), ServeError> {
    let config = DetectorConfig::from_label(&header.detector).ok_or_else(|| {
        ServeError::Protocol(format!("unknown detector label `{}`", header.detector))
    })?;
    check_header_geometry(&header.geometry)?;
    {
        let mut st = lock_unpoisoned(&shared.state);
        st.sessions_started += 1;
        st.last_workload = header.workload.clone();
        st.last_detector = header.detector.clone();
    }

    let (tx, rx) = sync_channel::<Work>(shared.cfg.queue_depth.max(1));
    let worker_shared = Arc::clone(shared);
    let worker_header = header.clone();
    let worker = thread::Builder::new()
        .name("cord-serve-worker".into())
        .spawn(move || session_worker(&worker_header, config, &rx, &worker_shared))
        .map_err(ServeError::Io)?;

    let mut writer = BufWriter::new(stream);
    let result = (|| -> Result<(), ServeError> {
        let mut check = EventCheck::new(&header.geometry);
        while let Some(payload) = read_frame(&mut reader)? {
            match payload.split_first() {
                Some((&FRAME_EVENTS, body)) => {
                    let events = decode_events(body)?;
                    for ev in &events {
                        check.check(ev)?;
                    }
                    // A full queue blocks here — backpressure all the
                    // way to the producer's socket writes.
                    if tx.send(Work::Events(events)).is_err() {
                        return Err(ServeError::Protocol("session worker died".into()));
                    }
                }
                Some((&FRAME_QUERY, _)) => {
                    let q = Query::decode(&payload)?;
                    answer_query(q, shared, Some(&tx), &mut writer)?;
                }
                Some((&tag, _)) => return Err(ServeError::BadFrame { tag }),
                None => return Err(ServeError::Protocol("empty frame".into())),
            }
        }
        Ok(())
    })();
    drop(tx);
    let _ = worker.join();
    result
}

/// The session worker: owns the sink, ingests in order, and snapshots
/// periodically. Returns when the queue
/// closes (client gone) or after serving a drain.
fn session_worker(
    header: &StreamHeader,
    config: DetectorConfig,
    rx: &Receiver<Work>,
    shared: &Arc<Shared>,
) {
    let geometry = &header.geometry;
    let mut sink = config.build_sink(
        geometry.threads as usize,
        geometry.cores as usize,
        header.seed,
        ObsCtx::disabled(),
    );
    let mut ingest_latency = Histogram::new();
    let mut events: u64 = 0;
    let mut accesses: u64 = 0;
    let mut since_snapshot: u64 = 0;
    let mut drained = false;

    for work in rx {
        match work {
            Work::Events(batch) => {
                for ev in &batch {
                    let timed = matches!(ev, StreamEvent::Access(_)) && {
                        let nth = accesses;
                        accesses += 1;
                        nth.is_multiple_of(INGEST_SAMPLE_STRIDE)
                    };
                    if timed {
                        let start = Instant::now();
                        sink.ingest(ev);
                        ingest_latency.record_ns(start.elapsed().as_nanos() as u64);
                    } else {
                        sink.ingest(ev);
                    }
                }
                let n = batch.len() as u64;
                events += n;
                since_snapshot += n;
                {
                    let mut st = lock_unpoisoned(&shared.state);
                    st.events_ingested += n;
                }
                let every = shared.cfg.snapshot_every;
                if every > 0 && since_snapshot >= every {
                    since_snapshot = 0;
                    write_snapshot(header, &mut sink, events, shared);
                }
            }
            Work::Drain(reply) => {
                sink.flush();
                let report = sink.drain();
                let bytes = report.to_bytes();
                record_report(&report, &ingest_latency, shared);
                ingest_latency = Histogram::new();
                drained = true;
                write_snapshot(header, &mut sink, events, shared);
                let _ = reply.send(bytes);
            }
        }
    }
    if !drained {
        // Client vanished without draining: bank the session's findings
        // anyway so daemon-wide queries still see them.
        sink.flush();
        let report = sink.drain();
        record_report(&report, &ingest_latency, shared);
        write_snapshot(header, &mut sink, events, shared);
    }
    let mut st = lock_unpoisoned(&shared.state);
    st.sessions_completed += 1;
}

/// Rejects a header whose thread or core count is zero or above
/// [`MAX_STREAM_THREADS`] / [`MAX_STREAM_CORES`], or whose address
/// layout is above [`MAX_STREAM_DATA_WORDS`] /
/// [`MAX_STREAM_SYNC_OBJECTS`], before the session counts as started or
/// a sink is sized from it.
fn check_header_geometry(g: &StreamGeometry) -> Result<(), ServeError> {
    let bounded = |field, count: u64, min: u64, max: u64| {
        if (min..=max).contains(&count) {
            Ok(())
        } else {
            Err(ServeError::HeaderGeometry {
                field,
                count,
                min,
                max,
            })
        }
    };
    let sync = |field, count: u32| bounded(field, count.into(), 0, MAX_STREAM_SYNC_OBJECTS.into());
    bounded("threads", g.threads.into(), 1, MAX_STREAM_THREADS.into())
        .and(bounded("cores", g.cores.into(), 1, MAX_STREAM_CORES.into()))
        .and(bounded(
            "data_words",
            g.data_words,
            0,
            MAX_STREAM_DATA_WORDS,
        ))
        .and(sync("user_locks", g.user_locks))
        .and(sync("user_flags", g.user_flags))
        .and(sync("barriers", g.barriers))
        .and(sync("user_atomics", g.user_atomics))
}

/// What the reader thread checks of each event before the session
/// worker ingests it. Detectors size their per-thread and per-core
/// state from the header, grow their shadow state to the highest line
/// an event names, and assert in CORD's order log that each thread's
/// instruction indices advance. An event outside the header's geometry,
/// or out of order, would index out of bounds, allocate without bound
/// or panic in the worker; checked here, it fails only its own session,
/// with a typed error.
struct EventCheck {
    threads: u32,
    cores: u32,
    /// One past the largest dense line index the header's layout
    /// produces.
    lines: u64,
    /// Per thread, one past the instruction index of its last access:
    /// the least index its next access, or its `RunEnd` count, may give.
    next_instr: Vec<u64>,
    /// `RunEnd` closes the detector's order log, so it must come last.
    run_ended: bool,
}

impl EventCheck {
    fn new(g: &StreamGeometry) -> Self {
        EventCheck {
            threads: g.threads,
            cores: g.cores,
            lines: g.dense_map().line_capacity() as u64,
            next_instr: vec![0; g.threads as usize],
            run_ended: false,
        }
    }

    fn check(&mut self, ev: &StreamEvent) -> Result<(), ServeError> {
        if self.run_ended {
            return Err(ServeError::EventAfterRunEnd);
        }
        let thread = |t: ThreadId| within("thread", t.0.into(), self.threads.into());
        let core = |c: CoreId| within("core", c.0.into(), self.cores.into());
        let line = |l: LineAddr| within("line", dense_line(l), self.lines);
        match ev {
            StreamEvent::Access(a) => {
                thread(a.thread)?;
                core(a.core)?;
                line(a.addr.line())?;
                let next = &mut self.next_instr[a.thread.index()];
                instr_at_least(a.thread, a.instr_index, *next)?;
                *next = a.instr_index.saturating_add(1);
            }
            StreamEvent::LineFilled {
                core: c, line: l, ..
            } => {
                core(*c)?;
                line(*l)?;
            }
            StreamEvent::LineRemoved(r) => {
                core(r.core)?;
                line(r.line)?;
            }
            StreamEvent::ThreadMigrated {
                thread: t,
                from,
                to,
            } => {
                thread(*t)?;
                core(*from)?;
                core(*to)?;
            }
            // The counts name threads `0..len`. The machine ends each
            // thread's count one past its last access's index: a sync
            // write starts the next order-log segment there.
            StreamEvent::RunEnd { instr_counts } => {
                if let Some(last) = instr_counts.len().checked_sub(1) {
                    within("thread", last as u64, self.threads.into())?;
                }
                for (t, (&count, &next)) in instr_counts.iter().zip(&self.next_instr).enumerate() {
                    instr_at_least(ThreadId(t as u16), count, next)?;
                }
                self.run_ended = true;
            }
            StreamEvent::Trace(_) => {}
        }
        Ok(())
    }
}

/// Rejects an index at or past `limit` with
/// [`ServeError::OutOfGeometry`].
#[inline]
fn within(field: &'static str, index: u64, limit: u64) -> Result<(), ServeError> {
    if index < limit {
        Ok(())
    } else {
        Err(out_of_geometry(field, index, limit))
    }
}

#[cold]
fn out_of_geometry(field: &'static str, index: u64, limit: u64) -> ServeError {
    ServeError::OutOfGeometry {
        field,
        index,
        limit,
    }
}

/// The dense index of `line`, saturated for lines no address names,
/// whose dense index would wrap.
fn dense_line(line: LineAddr) -> u64 {
    if line.0 < 1 << 62 {
        dense_line_index(line) as u64
    } else {
        u64::MAX
    }
}

/// Rejects an instruction index (or a `RunEnd` count) of `thread` below
/// `next`, one past the index of its last access.
#[inline]
fn instr_at_least(thread: ThreadId, index: u64, next: u64) -> Result<(), ServeError> {
    if index >= next {
        Ok(())
    } else {
        Err(instr_order(thread, index, next))
    }
}

#[cold]
fn instr_order(thread: ThreadId, index: u64, next: u64) -> ServeError {
    ServeError::InstrOrder {
        thread: thread.0,
        index,
        last: next - 1,
    }
}

fn record_report(report: &cord_core::SinkReport, ingest_latency: &Histogram, shared: &Arc<Shared>) {
    let mut st = lock_unpoisoned(&shared.state);
    st.races_reported += report.race_count;
    st.races.extend(report.races.iter().cloned());
    st.metrics.merge(&report.metrics);
    st.ingest_latency.merge(ingest_latency);
}

/// Writes the durable snapshot document: session progress and the
/// current race report.
fn write_snapshot(
    header: &StreamHeader,
    sink: &mut DetectorEnum,
    events: u64,
    shared: &Arc<Shared>,
) {
    let Some(path) = shared.cfg.snapshot.clone() else {
        return;
    };
    let report = sink.drain();
    let doc = obj(vec![
        ("workload", Json::Str(header.workload.clone())),
        ("detector", Json::Str(header.detector.clone())),
        ("seed", Json::UInt(header.seed)),
        ("events", Json::UInt(events)),
        ("report", report.to_json()),
    ]);
    if durable::write_checkpoint(&path, &doc).is_ok() {
        let mut st = lock_unpoisoned(&shared.state);
        st.snapshots_written += 1;
    }
}

/// Answers one query. `worker` is the current ingest session's queue
/// (drain needs it); daemon-wide queries work on any connection.
fn answer_query(
    q: Query,
    shared: &Arc<Shared>,
    worker: Option<&SyncSender<Work>>,
    writer: &mut BufWriter<UnixStream>,
) -> Result<(), ServeError> {
    let payload = match q {
        Query::Status => encode_response(&status_doc(shared)),
        Query::Races => {
            let st = lock_unpoisoned(&shared.state);
            encode_response(&Json::Array(st.races.clone()))
        }
        Query::Metrics => {
            let st = lock_unpoisoned(&shared.state);
            // Registry shape (counters/gauges) plus the sampled
            // per-access ingest-latency distribution as a sibling field.
            let mut doc = st.metrics.to_json();
            if let Json::Object(fields) = &mut doc {
                fields.push(("ingest_latency".into(), st.ingest_latency.to_json()));
            }
            encode_response(&doc)
        }
        Query::Drain => {
            let worker = worker
                .ok_or_else(|| ServeError::Protocol("drain outside an ingest session".into()))?;
            let (rtx, rrx) = sync_channel(1);
            worker
                .send(Work::Drain(rtx))
                .map_err(|_| ServeError::Protocol("session worker died".into()))?;
            let bytes = rrx
                .recv()
                .map_err(|_| ServeError::Protocol("session worker died".into()))?;
            encode_response_bytes(&bytes)
        }
        Query::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Nudge the accept loop so it observes the flag.
            let _ = UnixStream::connect(&shared.cfg.socket);
            encode_response(&obj(vec![("ok", Json::Bool(true))]))
        }
    };
    write_frame(writer, &payload)?;
    writer.flush()?;
    Ok(())
}

fn status_doc(shared: &Arc<Shared>) -> Json {
    let st = lock_unpoisoned(&shared.state);
    obj(vec![
        ("sessions_started", Json::UInt(st.sessions_started)),
        ("sessions_completed", Json::UInt(st.sessions_completed)),
        ("events", Json::UInt(st.events_ingested)),
        ("races", Json::UInt(st.races_reported)),
        ("snapshots", Json::UInt(st.snapshots_written)),
        ("workload", Json::Str(st.last_workload.clone())),
        ("detector", Json::Str(st.last_detector.clone())),
        (
            "queue_depth",
            Json::UInt(shared.cfg.queue_depth.max(1) as u64),
        ),
        (
            "recovery",
            Json::Array(st.recovery.iter().map(|e| e.to_json()).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_obs::{AccessEvent, AccessKind, AccessPath, Level, LineRemoval, RemovalCause};
    use cord_trace::layout::AddressLayout;
    use cord_trace::types::{Addr, LINE_BYTES};

    #[test]
    fn reaping_joins_finished_sessions_and_keeps_running_ones() {
        let (release, wait) = std::sync::mpsc::channel::<()>();
        let wait = Arc::new(Mutex::new(wait));
        let mut sessions: Vec<JoinHandle<()>> = (0..3).map(|_| thread::spawn(|| {})).collect();
        let running = thread::spawn(move || {
            let _ = lock_unpoisoned(&wait).recv();
        });
        sessions.insert(1, running);
        while sessions.iter().filter(|s| s.is_finished()).count() < 3 {
            thread::yield_now();
        }
        reap_finished(&mut sessions);
        assert_eq!(sessions.len(), 1, "only the running session is kept");
        assert!(!sessions[0].is_finished());
        release.send(()).expect("the running session waits");
        while !sessions[0].is_finished() {
            thread::yield_now();
        }
        reap_finished(&mut sessions);
        assert!(sessions.is_empty());
    }

    #[test]
    fn geometry_check_rejects_the_first_index_past_each_bound() {
        let geometry = StreamGeometry::new(2, 4, &AddressLayout::new(2, 2, 1, 64));
        let check = |ev: &StreamEvent| EventCheck::new(&geometry).check(ev);
        let access = |thread, core, addr| {
            StreamEvent::Access(AccessEvent {
                core: CoreId(core),
                thread: ThreadId(thread),
                addr,
                kind: AccessKind::DataRead,
                path: AccessPath::L1Hit,
                instr_index: 0,
                cycle: 0,
            })
        };
        let at = |thread, core| access(thread, core, Addr::new(0));
        assert!(check(&at(1, 3)).is_ok());
        assert!(matches!(
            check(&at(2, 0)),
            Err(ServeError::OutOfGeometry {
                field: "thread",
                index: 2,
                limit: 2
            })
        ));
        assert!(matches!(
            check(&at(0, 4)),
            Err(ServeError::OutOfGeometry {
                field: "core",
                index: 4,
                limit: 4
            })
        ));
        // 16 dense lines: the data line at dense index 16 is the first
        // past them, and so is every line whose index would wrap.
        let lines = geometry.dense_map().line_capacity() as u64;
        assert_eq!(lines, 16);
        let line = |l: u64| Addr::new(l * LINE_BYTES);
        assert!(check(&access(0, 0, line(lines / 2 - 1))).is_ok());
        assert!(matches!(
            check(&access(0, 0, line(lines / 2))),
            Err(ServeError::OutOfGeometry {
                field: "line",
                index: 16,
                limit: 16
            })
        ));
        let removed = StreamEvent::LineRemoved(LineRemoval {
            core: CoreId(0),
            level: Level::L2,
            line: LineAddr(u64::MAX),
            cause: RemovalCause::Capacity,
            dirty: false,
        });
        assert!(check(&removed).is_err());
        let migrated = StreamEvent::ThreadMigrated {
            thread: ThreadId(1),
            from: CoreId(3),
            to: CoreId(4),
        };
        assert!(check(&migrated).is_err());
        let run_end = |threads| StreamEvent::RunEnd {
            instr_counts: vec![0; threads],
        };
        assert!(check(&run_end(2)).is_ok());
        assert!(matches!(
            check(&run_end(3)),
            Err(ServeError::OutOfGeometry {
                field: "thread",
                index: 2,
                limit: 2
            })
        ));
    }

    #[test]
    fn instruction_indices_must_advance_per_thread_and_end_past_the_last() {
        let geometry = StreamGeometry::new(2, 2, &AddressLayout::new(0, 0, 0, 64));
        let access = |thread, instr_index| {
            StreamEvent::Access(AccessEvent {
                core: CoreId(0),
                thread: ThreadId(thread),
                addr: Addr::new(0),
                kind: AccessKind::DataRead,
                path: AccessPath::L1Hit,
                instr_index,
                cycle: 0,
            })
        };
        let mut check = EventCheck::new(&geometry);
        // Each thread numbers its own accesses; gaps are allowed.
        for ev in [access(0, 0), access(1, 5), access(0, 1), access(0, 3)] {
            assert!(check.check(&ev).is_ok());
        }
        assert!(matches!(
            check.check(&access(0, 3)),
            Err(ServeError::InstrOrder {
                thread: 0,
                index: 3,
                last: 3
            })
        ));
        assert!(check.check(&access(1, 4)).is_err());
        let run_end = |counts: &[u64]| StreamEvent::RunEnd {
            instr_counts: counts.to_vec(),
        };
        assert!(matches!(
            check.check(&run_end(&[4, 5])),
            Err(ServeError::InstrOrder {
                thread: 1,
                index: 5,
                last: 5
            })
        ));
        assert!(check.check(&run_end(&[4, 6])).is_ok());
    }
}
