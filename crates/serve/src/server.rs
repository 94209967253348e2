//! The daemon: accept loop, ingest sessions, queries, and snapshots.

use crate::protocol::{encode_response, encode_response_bytes, Query, ServeError, FRAME_QUERY};
use cord_core::{DetectorSink, ObsCtx};
use cord_detectors::{DetectorConfig, DetectorEnum};
use cord_json::durable::{self, RecoveryEvent};
use cord_json::{obj, Json, ToJson};
use cord_obs::wire::{decode_events, read_frame, write_frame, FRAME_EVENTS, FRAME_HEADER};
use cord_obs::{Histogram, MetricsRegistry, StreamEvent, StreamHeader};
use cord_pool::{lock_unpoisoned, Pool};
use cord_trace::layout::dense_line_index;
use cord_trace::types::LineAddr;
use std::io::{BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;

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
    /// Dense-line shards for per-shard accounting and parallel snapshot
    /// serialization.
    pub shards: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            socket: PathBuf::from("cord-serve.sock"),
            snapshot: None,
            snapshot_every: 100_000,
            queue_depth: 64,
            shards: 8,
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
    /// sink spent on each Access event), merged pointwise.
    ingest_latency: Histogram,
    /// Per-shard event counts, summed across sessions.
    shard_events: Vec<u64>,
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
        let shards = cfg.shards.max(1);
        let mut state = DaemonState {
            shard_events: vec![0; shards],
            ..DaemonState::default()
        };
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
        while let Some(payload) = read_frame(&mut reader)? {
            match payload.split_first() {
                Some((&FRAME_EVENTS, body)) => {
                    let events = decode_events(body)?;
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

/// The session worker: owns the sink, ingests in order, keeps shard
/// accounting, and snapshots periodically. Returns when the queue
/// closes (client gone) or after serving a drain.
fn session_worker(
    header: &StreamHeader,
    config: DetectorConfig,
    rx: &Receiver<Work>,
    shared: &Arc<Shared>,
) {
    let geometry = &header.geometry;
    let shards = shared.cfg.shards.max(1);
    let mut sink = config.build_sink(
        geometry.threads as usize,
        geometry.cores as usize,
        header.seed,
        ObsCtx::disabled(),
    );
    let mut shard_events = vec![0u64; shards];
    let mut ingest_latency = Histogram::new();
    let mut events: u64 = 0;
    let mut since_snapshot: u64 = 0;
    let mut drained = false;
    let pool = Pool::new(shards.min(Pool::available_parallelism()));

    for work in rx {
        match work {
            Work::Events(batch) => {
                for ev in &batch {
                    if let Some(line) = event_line(ev) {
                        shard_events[dense_line_index(line) % shards] += 1;
                    }
                    if matches!(ev, StreamEvent::Access(_)) {
                        let start = std::time::Instant::now();
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
                    write_snapshot(header, &mut sink, events, &shard_events, &pool, shared);
                }
            }
            Work::Drain(reply) => {
                sink.flush();
                let report = sink.drain();
                let bytes = report.to_bytes();
                record_report(&report, &shard_events, &ingest_latency, shared);
                ingest_latency = Histogram::new();
                drained = true;
                write_snapshot(header, &mut sink, events, &shard_events, &pool, shared);
                let _ = reply.send(bytes);
            }
        }
    }
    if !drained {
        // Client vanished without draining: bank the session's findings
        // anyway so daemon-wide queries still see them.
        sink.flush();
        let report = sink.drain();
        record_report(&report, &shard_events, &ingest_latency, shared);
        write_snapshot(header, &mut sink, events, &shard_events, &pool, shared);
    }
    let mut st = lock_unpoisoned(&shared.state);
    st.sessions_completed += 1;
}

/// Which cache line an event concerns, for shard accounting.
fn event_line(ev: &StreamEvent) -> Option<LineAddr> {
    match ev {
        StreamEvent::Access(a) => Some(a.addr.line()),
        StreamEvent::LineFilled { line, .. } => Some(*line),
        StreamEvent::LineRemoved(r) => Some(r.line),
        _ => None,
    }
}

fn record_report(
    report: &cord_core::SinkReport,
    shard_events: &[u64],
    ingest_latency: &Histogram,
    shared: &Arc<Shared>,
) {
    let mut st = lock_unpoisoned(&shared.state);
    st.races_reported += report.race_count;
    st.races.extend(report.races.iter().cloned());
    st.metrics.merge(&report.metrics);
    st.ingest_latency.merge(ingest_latency);
    for (acc, n) in st.shard_events.iter_mut().zip(shard_events) {
        *acc += n;
    }
}

/// Writes the durable snapshot document: session progress, the current
/// race report, and per-shard accounting. Shard summaries are
/// serialized in parallel on the pool — the one piece of snapshot work
/// that scales with the address space — then assembled in shard order
/// so the document is deterministic.
fn write_snapshot(
    header: &StreamHeader,
    sink: &mut DetectorEnum,
    events: u64,
    shard_events: &[u64],
    pool: &Pool,
    shared: &Arc<Shared>,
) {
    let Some(path) = shared.cfg.snapshot.clone() else {
        return;
    };
    let report = sink.drain();
    let jobs: Vec<_> = shard_events
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            move || {
                obj(vec![
                    ("shard", Json::UInt(i as u64)),
                    ("events", Json::UInt(n)),
                ])
            }
        })
        .collect();
    let shards: Vec<Json> = pool
        .run_ordered(jobs)
        .into_iter()
        .map(|r| r.unwrap_or(Json::Null))
        .collect();
    let doc = obj(vec![
        ("workload", Json::Str(header.workload.clone())),
        ("detector", Json::Str(header.detector.clone())),
        ("seed", Json::UInt(header.seed)),
        ("events", Json::UInt(events)),
        ("report", report.to_json()),
        ("shards", Json::Array(shards)),
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
            // Registry shape (counters/gauges) plus the per-access
            // ingest-latency distribution as a sibling field.
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
            "shard_events",
            Json::Array(st.shard_events.iter().map(|&n| Json::UInt(n)).collect()),
        ),
        (
            "recovery",
            Json::Array(st.recovery.iter().map(|e| e.to_json()).collect()),
        ),
    ])
}
