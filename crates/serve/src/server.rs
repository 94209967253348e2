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
use cord_trace::types::ThreadId;
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
        // `RunEnd` closes the detector's order log, so it must be the
        // stream's last event.
        let mut run_ended = false;
        while let Some(payload) = read_frame(&mut reader)? {
            match payload.split_first() {
                Some((&FRAME_EVENTS, body)) => {
                    let events = decode_events(body)?;
                    for ev in &events {
                        if run_ended {
                            return Err(ServeError::EventAfterRunEnd);
                        }
                        check_geometry(ev, &header.geometry)?;
                        run_ended = matches!(ev, StreamEvent::RunEnd { .. });
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
/// [`MAX_STREAM_THREADS`] / [`MAX_STREAM_CORES`], before the session
/// counts as started or a sink is sized from it.
fn check_header_geometry(geometry: &StreamGeometry) -> Result<(), ServeError> {
    let bounded = |field, count: u32, max: u32| {
        if (1..=max).contains(&count) {
            Ok(())
        } else {
            Err(ServeError::HeaderGeometry { field, count, max })
        }
    };
    bounded("threads", geometry.threads, MAX_STREAM_THREADS).and(bounded(
        "cores",
        geometry.cores,
        MAX_STREAM_CORES,
    ))
}

/// Rejects an event whose thread or core is at or past the header's
/// geometry — a `RunEnd`'s instruction counts name threads `0..len`.
/// Detectors size their per-thread and per-core state from the header,
/// so such an event would index out of bounds and kill the session
/// worker; checked on the reader thread, it fails only its own session,
/// with a typed error.
fn check_geometry(ev: &StreamEvent, geometry: &StreamGeometry) -> Result<(), ServeError> {
    let within = |field, index: u64, limit: u32| {
        if index < u64::from(limit) {
            Ok(())
        } else {
            Err(ServeError::OutOfGeometry {
                field,
                index,
                limit,
            })
        }
    };
    let thread = |t: ThreadId| within("thread", u64::from(t.0), geometry.threads);
    let core = |c: CoreId| within("core", u64::from(c.0), geometry.cores);
    match ev {
        StreamEvent::Access(a) => thread(a.thread).and(core(a.core)),
        StreamEvent::LineFilled { core: c, .. } => core(*c),
        StreamEvent::LineRemoved(r) => core(r.core),
        StreamEvent::ThreadMigrated {
            thread: t,
            from,
            to,
        } => thread(*t).and(core(*from)).and(core(*to)),
        StreamEvent::RunEnd { instr_counts } => match instr_counts.len().checked_sub(1) {
            Some(last) => within("thread", last as u64, geometry.threads),
            None => Ok(()),
        },
        StreamEvent::Trace(_) => Ok(()),
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
    use cord_obs::{AccessEvent, AccessKind, AccessPath};
    use cord_trace::layout::AddressLayout;
    use cord_trace::types::Addr;

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
        let access = |thread, core| {
            StreamEvent::Access(AccessEvent {
                core: CoreId(core),
                thread: ThreadId(thread),
                addr: Addr::new(0),
                kind: AccessKind::DataRead,
                path: AccessPath::L1Hit,
                instr_index: 0,
                cycle: 0,
            })
        };
        assert!(check_geometry(&access(1, 3), &geometry).is_ok());
        assert!(matches!(
            check_geometry(&access(2, 0), &geometry),
            Err(ServeError::OutOfGeometry {
                field: "thread",
                index: 2,
                limit: 2
            })
        ));
        assert!(matches!(
            check_geometry(&access(0, 4), &geometry),
            Err(ServeError::OutOfGeometry {
                field: "core",
                index: 4,
                limit: 4
            })
        ));
        let migrated = StreamEvent::ThreadMigrated {
            thread: ThreadId(1),
            from: CoreId(3),
            to: CoreId(4),
        };
        assert!(check_geometry(&migrated, &geometry).is_err());
        let run_end = |threads| StreamEvent::RunEnd {
            instr_counts: vec![0; threads],
        };
        assert!(check_geometry(&run_end(2), &geometry).is_ok());
        assert!(matches!(
            check_geometry(&run_end(3), &geometry),
            Err(ServeError::OutOfGeometry {
                field: "thread",
                index: 2,
                limit: 2
            })
        ));
    }
}
