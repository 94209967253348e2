//! Command-line driver for streaming detection (`cord-serve`).
//!
//! ```text
//! cargo run --release -p cord-bench --bin serve -- daemon --socket /tmp/cord.sock
//! cargo run --release -p cord-bench --bin serve -- capture --app fft --config CORD-D16 --out fft.stream
//! cargo run --release -p cord-bench --bin serve -- replay --socket /tmp/cord.sock --capture fft.stream
//! cargo run --release -p cord-bench --bin serve -- status --socket /tmp/cord.sock
//! cargo run --release -p cord-bench --bin serve -- smoke
//! ```
//!
//! * `daemon` runs the detection service in the foreground until a
//!   `shutdown` query arrives.
//! * `capture` simulates a workload with a capture tee and writes the
//!   wire-encoded event stream; the file is exactly what a daemon
//!   session consumes.
//! * `replay` streams a capture through a running daemon and prints the
//!   drained race report (canonical bytes) to stdout.
//! * `status` / `races` / `metrics` / `shutdown` are one-shot queries.
//! * `smoke` is the CI gate: it spawns a daemon as a child process,
//!   captures a small workload matrix, replays every capture, and
//!   byte-compares each daemon report against inline detection,
//!   exiting non-zero on any divergence.

use cord_core::{CaptureObserver, DetectorSink, ObsCtx, SinkObserver};
use cord_detectors::DetectorConfig;
use cord_obs::wire::{encode_capture, StreamGeometry};
use cord_obs::{StreamEvent, StreamHeader};
use cord_serve::{Daemon, DaemonConfig, Query, ServeClient};
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine};
use cord_trace::program::Workload;
use cord_workloads::{all_apps, kernel, ScaleClass};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(2);
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn socket_arg(args: &[String]) -> PathBuf {
    PathBuf::from(flag_value(args, "--socket").unwrap_or_else(|| fail("--socket PATH is required")))
}

fn workload_for(app_name: &str, threads: usize, seed: u64) -> Workload {
    let app = all_apps()
        .into_iter()
        .find(|a| a.name() == app_name)
        .unwrap_or_else(|| fail(format!("unknown app `{app_name}`")));
    kernel(app, ScaleClass::Small, threads, seed)
}

/// Runs `workload` under `config` with a capture tee; returns the
/// captured events and the inline report's canonical bytes.
fn capture_run(
    workload: &Workload,
    machine: &MachineConfig,
    config: DetectorConfig,
    seed: u64,
) -> Result<(Vec<StreamEvent>, Vec<u8>), Box<dyn Error>> {
    let threads = workload.num_threads();
    let sink = config.build_sink(threads, machine.cores, seed, ObsCtx::disabled());
    let obs = CaptureObserver::new(SinkObserver::new(sink));
    let m = Machine::new(machine.clone(), workload, obs, seed, InjectionPlan::none());
    let (_, obs) = m.run_stats()?;
    let (mut adapter, events) = obs.into_parts();
    let inline = adapter.sink_mut().drain().to_bytes();
    Ok((events, inline))
}

fn encode_run(
    workload: &Workload,
    machine: &MachineConfig,
    config: DetectorConfig,
    seed: u64,
    events: &[StreamEvent],
) -> Vec<u8> {
    let geometry = StreamGeometry::new(workload.num_threads(), machine.cores, workload.layout());
    let header = StreamHeader::new(workload.name(), &config.label(), seed, geometry);
    encode_capture(&header, events)
}

fn cmd_daemon(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut cfg = DaemonConfig {
        socket: socket_arg(args),
        snapshot: flag_value(args, "--snapshot").map(PathBuf::from),
        ..DaemonConfig::default()
    };
    if let Some(n) = flag_value(args, "--snapshot-every") {
        cfg.snapshot_every = n.parse()?;
    }
    if let Some(n) = flag_value(args, "--queue-depth") {
        cfg.queue_depth = n.parse()?;
    }
    eprintln!("serve: listening on {}", cfg.socket.display());
    Daemon::new(cfg).run()?;
    Ok(())
}

fn cmd_capture(args: &[String]) -> Result<(), Box<dyn Error>> {
    let app = flag_value(args, "--app").unwrap_or_else(|| "fft".to_owned());
    let label = flag_value(args, "--config").unwrap_or_else(|| "CORD-D16".to_owned());
    let seed = flag_value(args, "--seed").map_or(Ok(42), |s| s.parse())?;
    let threads = flag_value(args, "--threads").map_or(Ok(4), |s| s.parse())?;
    let out = flag_value(args, "--out").unwrap_or_else(|| fail("--out FILE is required"));
    let config = DetectorConfig::from_label(&label)
        .unwrap_or_else(|| fail(format!("unknown detector label `{label}`")));

    let workload = workload_for(&app, threads, seed);
    let machine = MachineConfig::paper_4core();
    let (events, inline) = capture_run(&workload, &machine, config, seed)?;
    let bytes = encode_run(&workload, &machine, config, seed, &events);
    std::fs::write(&out, &bytes)?;
    eprintln!(
        "serve: {app} under {label}: {} events, {} bytes -> {out} (inline report {} bytes)",
        events.len(),
        bytes.len(),
        inline.len()
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), Box<dyn Error>> {
    let client = ServeClient::new(socket_arg(args));
    let path = flag_value(args, "--capture").unwrap_or_else(|| fail("--capture FILE is required"));
    let capture = std::fs::read(&path)?;
    let report = client.replay_capture(&capture)?;
    std::io::stdout().write_all(&report)?;
    println!();
    Ok(())
}

fn cmd_query(args: &[String], q: Query) -> Result<(), Box<dyn Error>> {
    let client = ServeClient::new(socket_arg(args));
    println!("{}", client.query(q)?);
    Ok(())
}

/// The CI gate: a daemon child process must reproduce inline detection
/// byte-for-byte across a small (app × config × seed) matrix.
fn cmd_smoke(args: &[String]) -> Result<(), Box<dyn Error>> {
    let apps: Vec<String> = flag_value(args, "--apps")
        .unwrap_or_else(|| "fft,lu".to_owned())
        .split(',')
        .map(str::to_owned)
        .collect();
    let labels = ["CORD-D16", "Ideal", "L2Cache(VC)"];
    let seeds = [42u64, 1007];
    let socket = std::env::temp_dir().join(format!("cord-serve-smoke-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let exe = std::env::current_exe()?;
    let mut child = std::process::Command::new(&exe)
        .args(["daemon", "--socket"])
        .arg(&socket)
        .stderr(std::process::Stdio::null())
        .spawn()?;
    let client = ServeClient::new(&socket);
    if !client.wait_ready(500) {
        let _ = child.kill();
        fail("daemon child never came up");
    }

    let machine = MachineConfig::paper_4core();
    let mut checked = 0;
    let mut failed = 0;
    for app in &apps {
        for label in labels {
            for seed in seeds {
                let config = DetectorConfig::from_label(label).expect("known label");
                let workload = workload_for(app, 4, seed);
                let (events, inline) = capture_run(&workload, &machine, config, seed)?;
                let capture = encode_run(&workload, &machine, config, seed, &events);
                let via_daemon = client.replay_capture(&capture)?;
                checked += 1;
                if via_daemon == inline {
                    eprintln!(
                        "serve: ok {app} {label} seed={seed} ({} bytes)",
                        inline.len()
                    );
                } else {
                    failed += 1;
                    eprintln!(
                        "serve: MISMATCH {app} {label} seed={seed}: daemon {} bytes vs inline {} bytes",
                        via_daemon.len(),
                        inline.len()
                    );
                }
            }
        }
    }
    client.shutdown()?;
    let _ = child.wait();
    let _ = std::fs::remove_file(&socket);
    println!("serve smoke: {checked} replays, {failed} mismatches");
    if failed > 0 {
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = if args.is_empty() {
        &args[..]
    } else {
        &args[1..]
    };
    let result = match cmd {
        "daemon" => cmd_daemon(rest),
        "capture" => cmd_capture(rest),
        "replay" => cmd_replay(rest),
        "status" => cmd_query(rest, Query::Status),
        "races" => cmd_query(rest, Query::Races),
        "metrics" => cmd_query(rest, Query::Metrics),
        "shutdown" => cmd_query(rest, Query::Shutdown),
        "smoke" => cmd_smoke(rest),
        _ => {
            eprintln!(
                "usage: serve <daemon|capture|replay|status|races|metrics|shutdown|smoke> [flags]\n\
                 see the module docs at the top of crates/bench/src/bin/serve.rs"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        fail(e);
    }
}
