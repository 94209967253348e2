//! Calls into the simulator and detector crates that several workloads
//! and the layer probe share, plus the in-process daemon they replay
//! through.

use cord_bench::DetectorConfig;
use cord_core::{CaptureObserver, DetectorSink, ObsCtx, SinkObserver};
use cord_detectors::DetectorEnum;
use cord_obs::wire::{encode_capture, StreamGeometry};
use cord_obs::{StreamEvent, StreamHeader};
use cord_serve::{Daemon, DaemonConfig, ServeClient, ServeError};
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine, RunOutput, SimError};
use cord_sim::observer::NullObserver;
use cord_trace::program::Workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;

/// The seed whose results digests are recorded in `digests.json`, and
/// the inputs the deterministic simulated metrics are measured on.
pub const REFERENCE_SEED: u64 = 2006;

/// The eight detector configurations the per-detector metrics cover:
/// the sweep's seven plus the Ideal oracle.
pub fn all_configs() -> Vec<DetectorConfig> {
    let mut v = DetectorConfig::all_for_sweep();
    v.push(DetectorConfig::Ideal);
    v
}

/// A configuration's name in metric names. Figure labels such as
/// `L2Cache(VC)` are not valid metric names.
pub fn slug(config: DetectorConfig) -> String {
    match config {
        DetectorConfig::Cord { d } => format!("cord-d{d}"),
        DetectorConfig::VcInfCache => "vc-inf".into(),
        DetectorConfig::VcL2Cache => "vc-l2".into(),
        DetectorConfig::VcL1Cache => "vc-l1".into(),
        DetectorConfig::Ideal => "ideal".into(),
        DetectorConfig::PanicProbe => "panic-probe".into(),
    }
}

/// A run of `workload` on `machine` with no detector attached.
pub fn null_run(
    machine: &MachineConfig,
    workload: &Workload,
    seed: u64,
    plan: InjectionPlan,
) -> Result<RunOutput, SimError> {
    Machine::new(machine.clone(), workload, NullObserver, seed, plan)
        .run()
        .map(|(out, _)| out)
}

/// A run with `config`'s detector attached inline, built and driven the
/// way the sweep runs every cell: `Machine<SinkObserver<DetectorEnum>>`.
pub fn detector_run(
    config: DetectorConfig,
    machine: &MachineConfig,
    workload: &Workload,
    seed: u64,
    plan: InjectionPlan,
) -> Result<(RunOutput, DetectorEnum), SimError> {
    let sink = config.build_sink(
        workload.num_threads(),
        machine.cores,
        seed,
        ObsCtx::disabled(),
    );
    let m = Machine::new(
        machine.clone(),
        workload,
        SinkObserver::new(sink),
        seed,
        plan,
    );
    m.run().map(|(out, obs)| (out, obs.into_inner()))
}

/// A captured run: the wire bytes a daemon session consumes and the
/// inline report they must reproduce.
#[derive(Debug, Clone)]
pub struct Capture {
    pub config: DetectorConfig,
    pub bytes: Vec<u8>,
    pub inline_report: Vec<u8>,
    pub races: u64,
}

/// Runs `config` inline with a capture tee and returns the captured
/// events with the drained inline report.
pub fn capture_run(
    config: DetectorConfig,
    machine: &MachineConfig,
    workload: &Workload,
    seed: u64,
    plan: InjectionPlan,
) -> Result<(Vec<StreamEvent>, cord_core::SinkReport), SimError> {
    let sink = config.build_sink(
        workload.num_threads(),
        machine.cores,
        seed,
        ObsCtx::disabled(),
    );
    let obs = CaptureObserver::new(SinkObserver::new(sink));
    let (_, obs) = Machine::new(machine.clone(), workload, obs, seed, plan).run()?;
    let (mut adapter, events) = obs.into_parts();
    Ok((events, adapter.sink_mut().drain()))
}

/// The stream header a capture of `workload` under `config` carries.
pub fn header(
    config: DetectorConfig,
    machine: &MachineConfig,
    workload: &Workload,
    seed: u64,
) -> StreamHeader {
    let geometry = StreamGeometry::new(workload.num_threads(), machine.cores, workload.layout());
    StreamHeader::new(workload.name(), &config.label(), seed, geometry)
}

/// Captures and wire-encodes one run (see [`capture_run`]).
pub fn capture(
    config: DetectorConfig,
    machine: &MachineConfig,
    workload: &Workload,
    seed: u64,
    plan: InjectionPlan,
) -> Result<Capture, SimError> {
    let (events, report) = capture_run(config, machine, workload, seed, plan)?;
    Ok(Capture {
        config,
        bytes: encode_capture(&header(config, machine, workload, seed), &events),
        inline_report: report.to_bytes(),
        races: report.race_count,
    })
}

/// Figure 11's measure on `programs`: the mean over programs of
/// CORD-D16's simulated cycles as a percentage of the same run's with no
/// detector attached.
pub fn sim_time_pct(
    programs: &[Workload],
    machine: &MachineConfig,
    seed: u64,
) -> Result<f64, SimError> {
    let mut sum = 0.0;
    for w in programs {
        let base = null_run(machine, w, seed, InjectionPlan::none())?
            .stats
            .cycles;
        let (cord, _) = detector_run(
            DetectorConfig::Cord { d: 16 },
            machine,
            w,
            seed,
            InjectionPlan::none(),
        )?;
        sum += cord.stats.cycles as f64 / base as f64;
    }
    Ok(100.0 * sum / programs.len().max(1) as f64)
}

/// The directory this process keeps its daemon sockets in, relative to
/// the working directory: socket paths must stay short, and the
/// benchmark writes nothing outside the checkout it runs in.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_build/benchmark").join(format!("run-{}", std::process::id()))
}

/// A `cord_serve::Daemon` serving on a socket in [`run_dir`] from a
/// thread of this process. Dropping it shuts the daemon down and joins
/// the thread, whatever state the sessions were left in.
pub struct LiveDaemon {
    client: ServeClient,
    thread: Option<JoinHandle<Result<(), ServeError>>>,
}

impl LiveDaemon {
    pub fn start() -> Result<LiveDaemon, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = run_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join(format!(
            "daemon-{}.sock",
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let daemon = Daemon::new(DaemonConfig {
            socket: socket.clone(),
            ..DaemonConfig::default()
        });
        let thread = std::thread::Builder::new()
            .name("cord-serve-daemon".into())
            .spawn(move || daemon.run())
            .map_err(|e| format!("spawning the daemon thread: {e}"))?;
        let live = LiveDaemon {
            client: ServeClient::new(&socket),
            thread: Some(thread),
        };
        if live.client.wait_ready(500) {
            Ok(live)
        } else {
            Err(format!("daemon on {} never came up", socket.display()))
        }
    }

    pub fn client(&self) -> &ServeClient {
        &self.client
    }
}

impl Drop for LiveDaemon {
    fn drop(&mut self) {
        // A daemon that already died refuses the query; joining is
        // still what ends its thread.
        let _ = self.client.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(self.client.socket());
    }
}
