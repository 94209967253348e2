//! End-to-end daemon tests: a replayed stream must drain to bytes
//! identical to inline detection, and queries must reflect what was
//! ingested.

use cord_core::{DetectorSink, ObsCtx};
use cord_detectors::DetectorConfig;
use cord_obs::wire;
use cord_obs::{AccessEvent, AccessKind, AccessPath, CoreId, Level, StreamEvent, StreamHeader};
use cord_serve::{
    Daemon, DaemonConfig, Query, ServeClient, MAX_STREAM_CORES, MAX_STREAM_DATA_WORDS,
    MAX_STREAM_SYNC_OBJECTS, MAX_STREAM_THREADS,
};
use cord_trace::layout::AddressLayout;
use cord_trace::types::{Addr, ThreadId, LINE_BYTES, WORD_BYTES};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cord-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// A synthetic but detector-meaningful stream: two threads on two
/// cores racing on word 0 with no synchronization, plus line fills so
/// cache-resident history exists.
fn racy_events() -> Vec<StreamEvent> {
    let w0 = Addr::new(0);
    let line = w0.line();
    let mut events = Vec::new();
    let mut cycle = 0u64;
    let mut retired = [0u64; 2];
    // Numbered from 0 per thread, as the machine numbers accesses.
    let mut access = |core: u8, thread: u16, addr: Addr, kind: AccessKind, path: AccessPath| {
        cycle += 10;
        let instr_index = retired[thread as usize];
        retired[thread as usize] += 1;
        StreamEvent::Access(AccessEvent {
            core: CoreId(core),
            thread: ThreadId(thread),
            addr,
            kind,
            path,
            instr_index,
            cycle,
        })
    };
    events.push(StreamEvent::LineFilled {
        core: CoreId(0),
        level: Level::L2,
        line,
    });
    events.push(access(
        0,
        0,
        w0,
        AccessKind::DataWrite,
        AccessPath::FillFromMemory,
    ));
    events.push(StreamEvent::LineFilled {
        core: CoreId(1),
        level: Level::L2,
        line,
    });
    events.push(access(
        1,
        1,
        w0,
        AccessKind::DataWrite,
        AccessPath::FillFromSibling(CoreId(0)),
    ));
    events.push(access(
        0,
        0,
        Addr::new(WORD_BYTES),
        AccessKind::DataRead,
        AccessPath::L2Hit,
    ));
    events.push(StreamEvent::LineRemoved(cord_obs::LineRemoval {
        core: CoreId(1),
        level: Level::L2,
        line,
        cause: cord_obs::RemovalCause::Capacity,
        dirty: true,
    }));
    events.push(StreamEvent::RunEnd {
        instr_counts: vec![2, 1],
    });
    events
}

/// Two threads on two cores taking turns on one line's words, `n`
/// accesses in all (every third a write), then `RunEnd`. Each thread's
/// accesses are numbered from 0, and its count ends one past its last,
/// as the machine does.
fn access_run(n: u64) -> Vec<StreamEvent> {
    let line = Addr::new(0).line();
    let mut events: Vec<StreamEvent> = (0..2)
        .map(|core| StreamEvent::LineFilled {
            core: CoreId(core),
            level: Level::L2,
            line,
        })
        .collect();
    let mut retired = vec![0u64; 2];
    for i in 0..n {
        let t = (i % 2) as usize;
        let instr_index = retired[t];
        retired[t] += 1;
        events.push(StreamEvent::Access(AccessEvent {
            core: CoreId(t as u8),
            thread: ThreadId(t as u16),
            addr: Addr::new((i % 4) * WORD_BYTES),
            kind: if i % 3 == 0 {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            },
            path: AccessPath::L2Hit,
            instr_index,
            cycle: 10 * (i + 1),
        }));
    }
    events.push(StreamEvent::RunEnd {
        instr_counts: retired,
    });
    events
}

fn header(detector: &str) -> StreamHeader {
    let layout = AddressLayout::new(2, 2, 1, 64);
    let geometry = wire::StreamGeometry::new(2, 2, &layout);
    StreamHeader::new("synthetic", detector, 7, geometry)
}

fn inline_bytes(config: DetectorConfig, events: &[StreamEvent]) -> Vec<u8> {
    let mut sink = config.build_sink(2, 2, 7, ObsCtx::disabled());
    for ev in events {
        sink.ingest(ev);
    }
    sink.flush();
    sink.drain().to_bytes()
}

#[test]
fn daemon_replay_matches_inline_bytes() {
    let dir = tmpdir("roundtrip");
    let socket = dir.join("serve.sock");
    let snapshot = dir.join("snapshot.json");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: Some(snapshot.clone()),
        snapshot_every: 2,
        queue_depth: 2,
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let events = racy_events();
    for label in ["CORD-D16", "Ideal", "L2Cache(VC)"] {
        let config = DetectorConfig::from_label(label).expect("known label");
        let inline = inline_bytes(config, &events);
        let via_daemon = client
            .replay_events(&header(label), &events)
            .expect("daemon replay");
        assert_eq!(
            via_daemon, inline,
            "daemon report for {label} must be byte-identical to inline"
        );
        assert!(
            String::from_utf8_lossy(&inline).contains(label),
            "report names its detector"
        );
    }

    let status = client.query(Query::Status).expect("status");
    let events_seen: u64 =
        cord_json::FromJson::from_json(status.field("events").expect("events field"))
            .expect("uint");
    assert_eq!(events_seen, 3 * events.len() as u64);
    let races = client.query(Query::Races).expect("races");
    assert!(
        !races.as_array().expect("array").is_empty(),
        "the unsynchronized writes race"
    );
    let metrics = client.query(Query::Metrics).expect("metrics");
    assert!(metrics.field("counters").is_ok(), "{metrics:?}");
    assert!(snapshot.exists(), "periodic snapshots landed");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_recovery_surfaces_in_status() {
    let dir = tmpdir("recovery");
    let socket = dir.join("serve.sock");
    let snapshot = dir.join("snapshot.json");
    // Two generations, then a corrupted primary: the daemon must load
    // past it and say so in status, structurally.
    cord_json::durable::write_checkpoint(&snapshot, &cord_json::Json::UInt(1)).expect("gen 1");
    cord_json::durable::write_checkpoint(&snapshot, &cord_json::Json::UInt(2)).expect("gen 2");
    std::fs::write(&snapshot, "garbage{{{").expect("corrupt");

    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: Some(snapshot),
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let status = client.query(Query::Status).expect("status");
    let recovery = status.field("recovery").expect("recovery field");
    let events = recovery.as_array().expect("array");
    assert!(!events.is_empty(), "recovery events surfaced: {status:?}");
    let first: cord_json::durable::RecoveryEvent =
        cord_json::FromJson::from_json(&events[0]).expect("structured");
    assert_eq!(first.kind, "corrupt-primary");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_detector_label_is_rejected_cleanly() {
    let dir = tmpdir("badlabel");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let bad = client.replay_events(&header("NoSuchDetector"), &racy_events());
    assert!(bad.is_err(), "unknown label must not produce a report");
    // A CORD label `build_sink` cannot build (D must be at least 1) is
    // rejected before the session counts as started.
    let bad = client.replay_events(&header("CORD-D0"), &racy_events());
    assert!(bad.is_err(), "CORD-D0 must not produce a report");

    // The daemon survives the bad session and still answers.
    let status = client
        .query(Query::Status)
        .expect("status after bad session");
    let started: u64 = cord_json::FromJson::from_json(
        status
            .field("sessions_started")
            .expect("sessions_started field"),
    )
    .expect("uint");
    assert_eq!(started, 0, "rejected headers start no session");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_latency_samples_every_64th_access() {
    let dir = tmpdir("sampling");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let label = "CORD-D16";
    let events = access_run(130);
    let config = DetectorConfig::from_label(label).expect("known label");
    let via_daemon = client
        .replay_events(&header(label), &events)
        .expect("daemon replay");
    assert_eq!(via_daemon, inline_bytes(config, &events));

    // Accesses 0, 64 and 128 are timed; the other 127 are not.
    let metrics = client.query(Query::Metrics).expect("metrics");
    let latency = metrics.field("ingest_latency").expect("ingest_latency");
    let count: u64 =
        cord_json::FromJson::from_json(latency.field("count").expect("count field")).expect("uint");
    assert_eq!(count, 3, "{latency:?}");

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_geometry_events_fail_only_their_sessions() {
    let dir = tmpdir("bounds");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    // The header declares two threads; this Access names thread 2.
    let label = "CORD-D16";
    let geometry = header(label).geometry;
    let mut bad_thread = racy_events();
    if let StreamEvent::Access(a) = &mut bad_thread[1] {
        a.thread = ThreadId(geometry.threads as u16);
    }
    // This Access names the data line just past the header's dense line
    // space, which a session would otherwise grow its shadow state to.
    let mut bad_line = racy_events();
    if let StreamEvent::Access(a) = &mut bad_line[1] {
        let past = geometry.dense_map().line_capacity() as u64 / 2;
        a.addr = Addr::new(past * LINE_BYTES);
    }
    let count = |field: &str| -> u64 {
        let status = client.query(Query::Status).expect("status");
        cord_json::FromJson::from_json(status.field(field).expect("status field")).expect("uint")
    };
    for (case, bad_events) in [("thread", &bad_thread), ("line", &bad_line)] {
        let bad = client.replay_events(&header(label), bad_events);
        assert!(
            bad.is_err(),
            "{case}: an out-of-geometry event must not produce a report"
        );
        // The daemon still answers, and the bad session ended without a
        // worker panic.
        assert_eq!(count("sessions_started"), count("sessions_completed"));
    }

    // A following good session replays byte-identically.
    let events = racy_events();
    let config = DetectorConfig::from_label(label).expect("known label");
    let via_daemon = client
        .replay_events(&header(label), &events)
        .expect("good session after a bad one");
    assert_eq!(via_daemon, inline_bytes(config, &events));

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_run_end_fails_only_its_session() {
    let dir = tmpdir("run-end");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    let label = "CORD-D16";
    let good = access_run(40);
    // Each of these would kill the session worker inside the order
    // log's flush if it reached the detector: a count for a thread the
    // header never declared, a second flush, and an event after it.
    let mut too_many_counts = good.clone();
    if let Some(StreamEvent::RunEnd { instr_counts }) = too_many_counts.last_mut() {
        instr_counts.push(0);
    }
    let mut twice = good.clone();
    twice.push(good.last().expect("run end").clone());
    let mut after = good.clone();
    after.push(good[0].clone());
    // And each of these inside the order log: an access that does not
    // advance its thread's instruction index, and a count that ends a
    // thread at its last access's index rather than one past it.
    let mut repeated = good.clone();
    repeated.insert(4, good[3].clone());
    let mut short_count = good.clone();
    if let Some(StreamEvent::RunEnd { instr_counts }) = short_count.last_mut() {
        instr_counts[1] -= 1;
    }

    let status_counts = || {
        let status = client.query(Query::Status).expect("status");
        let count = |field: &str| -> u64 {
            cord_json::FromJson::from_json(status.field(field).expect("status field"))
                .expect("uint")
        };
        (count("sessions_started"), count("sessions_completed"))
    };
    for (case, events) in [
        ("extra instruction count", &too_many_counts),
        ("second run end", &twice),
        ("event after run end", &after),
        ("repeated instruction index", &repeated),
        ("count at the last index", &short_count),
    ] {
        assert!(
            client.replay_events(&header(label), events).is_err(),
            "{case}: a malformed stream must not produce a report"
        );
        let (started, completed) = status_counts();
        assert_eq!(started, completed, "{case}: the session worker survived");
    }

    let config = DetectorConfig::from_label(label).expect("known label");
    let via_daemon = client
        .replay_events(&header(label), &good)
        .expect("good session after bad ones");
    assert_eq!(via_daemon, inline_bytes(config, &good));
    assert_eq!(status_counts(), (6, 6));

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_geometry_past_the_caps_fails_only_its_session() {
    let dir = tmpdir("header-caps");
    let socket = dir.join("serve.sock");
    let daemon = Daemon::new(DaemonConfig {
        socket: socket.clone(),
        snapshot: None,
        ..DaemonConfig::default()
    });
    let handle = std::thread::spawn(move || daemon.run());
    let client = ServeClient::new(&socket);
    assert!(client.wait_ready(250), "daemon came up");

    // One past each cap, and an empty machine: each header is refused
    // before a sink is sized from it, so no session starts.
    let label = "CORD-D16";
    let events = racy_events();
    let mut too_many_threads = header(label);
    too_many_threads.geometry.threads = MAX_STREAM_THREADS + 1;
    let mut too_many_cores = header(label);
    too_many_cores.geometry.cores = MAX_STREAM_CORES + 1;
    let mut no_threads = header(label);
    no_threads.geometry.threads = 0;
    let mut no_cores = header(label);
    no_cores.geometry.cores = 0;
    let mut too_many_words = header(label);
    too_many_words.geometry.data_words = MAX_STREAM_DATA_WORDS + 1;
    let mut too_many_locks = header(label);
    too_many_locks.geometry.user_locks = MAX_STREAM_SYNC_OBJECTS + 1;
    let mut too_many_barriers = header(label);
    too_many_barriers.geometry.barriers = MAX_STREAM_SYNC_OBJECTS + 1;
    for (case, bad) in [
        ("threads past the cap", &too_many_threads),
        ("cores past the cap", &too_many_cores),
        ("zero threads", &no_threads),
        ("zero cores", &no_cores),
        ("heap past the cap", &too_many_words),
        ("locks past the cap", &too_many_locks),
        ("barriers past the cap", &too_many_barriers),
    ] {
        assert!(
            client.replay_events(bad, &events).is_err(),
            "{case}: the header must not produce a report"
        );
    }
    let status = client
        .query(Query::Status)
        .expect("status after bad headers");
    let started: u64 = cord_json::FromJson::from_json(
        status
            .field("sessions_started")
            .expect("sessions_started field"),
    )
    .expect("uint");
    assert_eq!(started, 0, "rejected headers start no session");

    // A following good session replays byte-identically.
    let config = DetectorConfig::from_label(label).expect("known label");
    let via_daemon = client
        .replay_events(&header(label), &events)
        .expect("good session after bad headers");
    assert_eq!(via_daemon, inline_bytes(config, &events));

    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}
