//! The §3.4 injection sweep: the data source for Figures 10 and 12–17.
//!
//! Injection campaigns are *fault-tolerant*: every injected run executes
//! under a panic boundary with a watchdog-configured machine, so a run
//! that deadlocks, livelocks, exceeds its cycle budget, or panics inside
//! a detector is recorded with its [`RunStatus`] and the sweep moves on
//! to the next run. Rates are computed over completed runs only;
//! non-completed runs are surfaced separately (see
//! [`failure_summary`](crate::figures::failure_summary)).

use crate::obs::ObsSink;
use cord_core::{DetectorSink, FanOutObserver, LatencyObserver, ObsCtx, SinkObserver};
use cord_detectors::{DetectorConfig, DetectorEnum};
use cord_inject::{Campaign, InjectionTarget};
use cord_json::{obj, FromJson, Json, JsonError, ToJson};
use cord_obs::{Histogram, MetricsRegistry, TraceHandle};
use cord_pool::{panic_message, BatchProgress, Pool};
use cord_sim::config::{CoherenceKind, MachineConfig, Watchdog};
use cord_sim::engine::{InjectionPlan, Machine, SimError};
use cord_sim::observer::NullObserver;
use cord_sim::stats::SimStats;
use cord_trace::program::Workload;
use cord_workloads::{kernel, AppKind, ScaleClass};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Injection runs per application (the paper uses 20–100).
    pub injections_per_app: usize,
    /// Workload scale.
    pub scale: ScaleClassOpt,
    /// Threads (= cores on the paper machine).
    pub threads: usize,
    /// Processor cores of the simulated machine — the scaling sweep
    /// axis (4/8/16/32). Defaults to the paper's 4.
    pub cores: usize,
    /// Coherence backend of the simulated machine.
    pub backend: CoherenceOpt,
    /// Master seed.
    pub seed: u64,
    /// Also draw release-side removals (flag sets). These strand the
    /// waiters — deadlocks under blocking waits, livelocks under spin
    /// waits — and are how the watchdog machinery gets exercised. The
    /// paper's protocol removes acquire-side instances only.
    pub include_releases: bool,
    /// Execute flag waits as bounded spins of this many cycles instead
    /// of blocking. Turns stranded waiters into livelocks the progress
    /// watchdog catches. `None` keeps the paper's blocking semantics.
    pub spin_waits: Option<u64>,
}

/// Serializable mirror of [`ScaleClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleClassOpt {
    /// Maps to [`ScaleClass::Tiny`].
    Tiny,
    /// Maps to [`ScaleClass::Small`].
    Small,
    /// Maps to [`ScaleClass::Paper`].
    Paper,
}

impl From<ScaleClassOpt> for ScaleClass {
    fn from(s: ScaleClassOpt) -> ScaleClass {
        match s {
            ScaleClassOpt::Tiny => ScaleClass::Tiny,
            ScaleClassOpt::Small => ScaleClass::Small,
            ScaleClassOpt::Paper => ScaleClass::Paper,
        }
    }
}

/// Serializable mirror of
/// [`CoherenceKind`](cord_sim::config::CoherenceKind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceOpt {
    /// Broadcast snooping over shared buses (the paper's machine).
    Snooping,
    /// Directory-based MESI with per-home occupancy.
    Directory,
}

impl From<CoherenceOpt> for CoherenceKind {
    fn from(c: CoherenceOpt) -> CoherenceKind {
        match c {
            CoherenceOpt::Snooping => CoherenceKind::SnoopingBus,
            CoherenceOpt::Directory => CoherenceKind::Directory,
        }
    }
}

impl CoherenceOpt {
    /// Short machine-readable name (CLI flag values and JSON).
    pub fn name(self) -> &'static str {
        match self {
            CoherenceOpt::Snooping => "snooping",
            CoherenceOpt::Directory => "directory",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "snooping" => Some(CoherenceOpt::Snooping),
            "directory" => Some(CoherenceOpt::Directory),
            _ => None,
        }
    }
}

impl ScaleClassOpt {
    /// Default watchdog for sweep runs at this scale: a cycle budget two
    /// to three orders of magnitude above a healthy run plus a
    /// no-progress window, so sweeps never hang on a wedged run but
    /// never clip a slow healthy one.
    pub fn watchdog(self) -> Watchdog {
        match self {
            ScaleClassOpt::Tiny => Watchdog::new(10_000_000, 1_000_000),
            ScaleClassOpt::Small => Watchdog::new(100_000_000, 5_000_000),
            ScaleClassOpt::Paper => Watchdog::new(4_000_000_000, 50_000_000),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ScaleClassOpt::Tiny => "tiny",
            ScaleClassOpt::Small => "small",
            ScaleClassOpt::Paper => "paper",
        }
    }
}

impl Default for SweepOptions {
    /// 24 injections per app at Small scale on 4 threads — enough for
    /// stable averages in seconds of wall time.
    fn default() -> Self {
        SweepOptions {
            injections_per_app: 24,
            scale: ScaleClassOpt::Small,
            threads: 4,
            cores: 4,
            backend: CoherenceOpt::Snooping,
            seed: 2006,
            include_releases: false,
            spin_waits: None,
        }
    }
}

impl SweepOptions {
    /// The watchdog every `Machine::run` in this sweep executes under
    /// (derived from the scale; sweeps never run unbounded).
    pub fn watchdog(&self) -> Watchdog {
        self.scale.watchdog()
    }

    /// Applies the sweep's run environment (core count, coherence
    /// backend, watchdog, wait mode) to a detector configuration's
    /// machine. The defaults reproduce each configuration's machine
    /// unchanged — 4-core snooping stays bit-identical.
    pub fn machine_for(&self, config: DetectorConfig) -> MachineConfig {
        let mut mc = config
            .machine()
            .with_cores(self.cores)
            .with_coherence(self.backend.into())
            .with_watchdog(self.watchdog());
        if let Some(spin) = self.spin_waits {
            mc = mc.with_spin_waits(spin);
        }
        mc
    }
}

/// What one detector saw in one injected run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Data races reported.
    pub races: u64,
}

impl Detection {
    /// At least one data race found — the problem was *detected*.
    pub fn found(&self) -> bool {
        self.races > 0
    }
}

/// How one injected run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every configuration ran to completion.
    Completed,
    /// The machine reported a deadlock (all threads blocked).
    Deadlocked,
    /// The watchdog fired: no forward progress (livelock) or the cycle
    /// budget was exceeded.
    TimedOut,
    /// A detector or the simulator panicked; the payload is the panic
    /// message.
    Panicked {
        /// The panic message, when it carried one.
        msg: String,
    },
    /// The run never executed: its shard was abandoned by the
    /// distributed supervisor after exhausting its retry budget. The
    /// payload carries the supervisor's diagnosis. Like the other
    /// non-completed statuses, abandoned runs are excluded from every
    /// rate denominator.
    Abandoned {
        /// Why the owning shard was given up on.
        reason: String,
    },
}

impl RunStatus {
    /// Short machine-readable name for tables and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::Deadlocked => "deadlocked",
            RunStatus::TimedOut => "timed-out",
            RunStatus::Panicked { .. } => "panicked",
            RunStatus::Abandoned { .. } => "abandoned",
        }
    }

    /// `true` for [`RunStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }

    fn from_sim_error(e: &SimError) -> RunStatus {
        match e {
            SimError::Deadlock { .. } => RunStatus::Deadlocked,
            SimError::Livelock { .. } | SimError::CycleBudgetExceeded { .. } => RunStatus::TimedOut,
        }
    }
}

/// One injected run: the removed instance, how the run ended, and what
/// every configuration detected (empty unless the run completed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// The removed dynamic sync instance.
    pub target: InjectionTarget,
    /// How the run ended.
    pub status: RunStatus,
    /// Failure diagnostics (the [`SimError`] rendering, with per-thread
    /// stuck states) for non-completed runs.
    pub detail: Option<String>,
    /// The Ideal oracle's verdict (defines manifestation); `None` when
    /// the run did not complete.
    pub ideal: Option<Detection>,
    /// Per-configuration detections, keyed by label.
    pub detections: BTreeMap<String, Detection>,
}

impl RunRecord {
    /// The record of a run that did not complete: no Ideal verdict and
    /// no detections, only how it ended.
    pub fn failed(target: InjectionTarget, status: RunStatus, detail: Option<String>) -> RunRecord {
        RunRecord {
            target,
            status,
            detail,
            ideal: None,
            detections: BTreeMap::new(),
        }
    }
}

/// All injected runs of one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSweep {
    /// Application name.
    pub app: String,
    /// Acquire-side removable instances in the dry run.
    pub acquire_instances: u64,
    /// Release-side instances in the dry run.
    pub release_instances: u64,
    /// Set when the fault-free dry run itself failed (the campaign is
    /// then empty).
    pub dry_run_error: Option<String>,
    /// The injected runs.
    pub runs: Vec<RunRecord>,
}

impl AppSweep {
    /// Runs that completed (the denominator of every rate).
    pub fn completed(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.iter().filter(|r| r.status.is_completed())
    }

    /// Runs that deadlocked, timed out, or panicked.
    pub fn non_completed(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.iter().filter(|r| !r.status.is_completed())
    }

    /// Completed runs where the Ideal oracle found at least one data
    /// race.
    pub fn manifested(&self) -> impl Iterator<Item = &RunRecord> {
        self.completed()
            .filter(|r| r.ideal.is_some_and(|d| d.found()))
    }

    /// Fraction of *completed* injections that manifested (Figure 10's
    /// metric). Non-completed runs crashed the simulated program rather
    /// than racing it; they are reported separately, not averaged in.
    pub fn manifestation_rate(&self) -> f64 {
        let completed = self.completed().count();
        if completed == 0 {
            return 0.0;
        }
        self.manifested().count() as f64 / completed as f64
    }

    /// Problem detection count for a configuration over completed runs
    /// (a config may also fire on non-manifested runs — different
    /// interleavings, like the paper's volrend anomaly — so the rate can
    /// exceed 1).
    pub fn problems_found(&self, label: &str) -> usize {
        self.completed()
            .filter(|r| r.detections.get(label).is_some_and(Detection::found))
            .count()
    }

    /// Problem detection rate of `label` relative to `base` (both
    /// counted over completed runs; the denominator is `base`'s
    /// detections).
    pub fn problem_rate_vs(&self, label: &str, base: &str) -> Option<f64> {
        let base_found = if base == "Ideal" {
            self.manifested().count()
        } else {
            self.problems_found(base)
        };
        if base_found == 0 {
            return None;
        }
        Some(self.problems_found(label) as f64 / base_found as f64)
    }

    /// Total raw data races reported by `label` across completed runs.
    pub fn races_found(&self, label: &str) -> u64 {
        self.completed()
            .filter_map(|r| r.detections.get(label))
            .map(|d| d.races)
            .sum()
    }

    /// Total raw races the Ideal oracle reported across completed runs.
    pub fn ideal_races(&self) -> u64 {
        self.completed()
            .filter_map(|r| r.ideal)
            .map(|d| d.races)
            .sum()
    }

    /// Raw race detection rate of `label` relative to `base`.
    pub fn race_rate_vs(&self, label: &str, base: &str) -> Option<f64> {
        let base_races = if base == "Ideal" {
            self.ideal_races()
        } else {
            self.races_found(base)
        };
        if base_races == 0 {
            return None;
        }
        Some(self.races_found(label) as f64 / base_races as f64)
    }
}

/// Results of the full sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepResults {
    /// The options the sweep ran with.
    pub options: SweepOptions,
    /// Per-application results, in figure order.
    pub apps: Vec<AppSweep>,
}

impl SweepResults {
    /// Average of a per-app metric over apps where it is defined
    /// (paper averages are "based on more than a hundred manifested
    /// errors per configuration").
    pub fn average<F: Fn(&AppSweep) -> Option<f64>>(&self, f: F) -> Option<f64> {
        let vals: Vec<f64> = self.apps.iter().filter_map(f).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Total non-completed runs across all apps, by status kind.
    pub fn failure_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for app in &self.apps {
            for r in app.non_completed() {
                *counts.entry(r.status.kind()).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// Observability context for one sweep cell: where traces and metrics
/// from this (app, run) land, threaded from the runner down into
/// [`run_group`]. `None` everywhere keeps the zero-overhead disabled
/// path (no trace ring, no registry work).
#[derive(Clone, Copy)]
pub(crate) struct RunObsCtx<'a> {
    /// The sweep-wide sink.
    pub sink: &'a ObsSink,
    /// Application name, used for trace file naming.
    pub app: &'a str,
    /// Run index within the app's campaign.
    pub run_index: usize,
}

/// Runs one group of configurations on one `Machine` and counts what
/// each found — the run path of
/// [`SweepRunner::run_detector`](crate::runner::SweepRunner::run_detector)
/// and the lock-free table, and (through [`run_machine`]) of every sweep
/// cell. Each member's detector is built through
/// [`DetectorConfig::build_sink`] and observes the run through a
/// leader-led [`FanOutObserver`]: `group[0]` leads and may act (its
/// outcome reaches the machine), and every later member must be passive,
/// so it sees exactly the run the leader would have had alone.
pub(crate) fn run_group(
    group: &[DetectorConfig],
    machine: MachineConfig,
    workload: &Workload,
    seed: u64,
    plan: InjectionPlan,
    obs: Option<RunObsCtx<'_>>,
) -> Result<Vec<Detection>, SimError> {
    let mut out = None;
    run_machine(&[group], machine, workload, seed, plan, obs, |_, r| {
        out = Some(r);
    });
    Ok(out
        .expect("a machine run hands back its cell")?
        .publish(obs))
}

/// Runs several cells — groups of configurations, one [`FanOutObserver`]
/// each — on one machine through [`Machine::run_cells`], which simulates
/// them together while the retirement stalls their bus charges cause
/// agree and forks where they differ, and calls `done(i, result)` as
/// cell `i`'s machine ends. Each cell sees exactly the run its group
/// would have had alone. The machine
/// is monomorphized over `FanOutObserver<SinkObserver<DetectorEnum>>`:
/// no virtual dispatch per access, and inline detection exercises the
/// very ingestion path a capture replay or the daemon uses.
///
/// With `obs` set, every member keeps its own [`LatencyObserver`], and
/// its run's statistics and counters are held in the cell's
/// [`CellOut`] until it is published. A tracing sink shares a bounded
/// trace ring between the machine and the detectors, so a traced
/// machine runs one cell of one configuration (see
/// [`machine_groups`]).
fn run_machine(
    cells: &[&[DetectorConfig]],
    machine: MachineConfig,
    workload: &Workload,
    seed: u64,
    plan: InjectionPlan,
    obs: Option<RunObsCtx<'_>>,
    mut done: impl FnMut(usize, Result<CellOut, SimError>),
) {
    let trace = match obs {
        Some(o) if o.sink.tracing() => Some(TraceHandle::bounded(o.sink.trace_capacity())),
        _ => None,
    };
    let ctx = match &trace {
        Some(h) => ObsCtx::with_trace(h.clone()),
        None => ObsCtx::disabled(),
    };
    let (threads, cores) = (workload.num_threads(), machine.cores);
    let sinks = |group: &[DetectorConfig]| -> Vec<SinkObserver<DetectorEnum>> {
        group
            .iter()
            .map(|c| SinkObserver::new(c.build_sink(threads, cores, seed, ctx.clone())))
            .collect()
    };
    let mut m = Machine::new(machine, workload, NullObserver, seed, plan);
    if let Some(h) = &trace {
        m = m.with_trace(h.clone());
    }
    // Two machine instantiations, not a runtime flag: the disabled path
    // is the plain `FanOutObserver<SinkObserver<_>>` with no timing code
    // in it at all, so observability stays provably free when off. The
    // obs-enabled path wraps each member in a LatencyObserver that times
    // every on_access into a histogram.
    if obs.is_some() {
        let fans = cells
            .iter()
            .map(|g| FanOutObserver::new(sinks(g).into_iter().map(LatencyObserver::new).collect()));
        m.run_cells(fans.collect(), |i, r| {
            done(
                i,
                r.map(|(stats, fan)| {
                    let members = fan.into_members().into_iter().map(|lat| {
                        let (det, hist) = lat.into_parts();
                        (det, Some(hist))
                    });
                    CellOut::harvest(cells[i], &stats, members, trace.clone())
                }),
            );
        });
    } else {
        let fans = cells.iter().map(|g| FanOutObserver::new(sinks(g)));
        m.run_cells(fans.collect(), |i, r| {
            done(
                i,
                r.map(|(stats, fan)| {
                    let members = fan.into_members().into_iter().map(|det| (det, None));
                    CellOut::harvest(cells[i], &stats, members, None)
                }),
            );
        });
    }
}

/// What one cell's members found, with the cell's observability output
/// held back until [`CellOut::publish`]: a shared run may end cells of
/// later groups before an earlier group fails, and only the groups that
/// running one after another would reach may count.
struct CellOut {
    found: Vec<Detection>,
    /// Per member, with `obs` set: its label, its run's statistics and
    /// detector counters, and its access-latency histogram.
    metrics: Vec<(String, MetricsRegistry, Histogram)>,
    trace: Option<TraceHandle>,
}

impl CellOut {
    /// Counts what each member found as soon as the cell's machine ends,
    /// dropping the detectors.
    fn harvest(
        group: &[DetectorConfig],
        stats: &SimStats,
        members: impl Iterator<Item = (SinkObserver<DetectorEnum>, Option<Histogram>)>,
        trace: Option<TraceHandle>,
    ) -> CellOut {
        let mut cell = CellOut {
            found: Vec::with_capacity(group.len()),
            metrics: Vec::new(),
            trace,
        };
        for (config, (mut det, hist)) in group.iter().zip(members) {
            if let Some(hist) = hist {
                let mut reg = MetricsRegistry::default();
                stats.record_into(&mut reg);
                reg.merge(&det.sink_mut().drain().metrics);
                cell.metrics.push((config.label(), reg, hist));
            }
            cell.found.push(Detection {
                races: det.sink().race_count(),
            });
        }
        cell
    }

    /// Folds the cell's statistics, detector counters, access-latency
    /// histograms and trace snapshot into the sweep's sink, and returns
    /// what each member found.
    fn publish(self, obs: Option<RunObsCtx<'_>>) -> Vec<Detection> {
        if let Some(o) = obs {
            for (label, reg, hist) in &self.metrics {
                o.sink.merge(reg);
                if let Some(h) = &self.trace {
                    o.sink.write_trace(o.app, o.run_index, label, h);
                }
                o.sink.record_access_latency(hist);
            }
        }
        self.found
    }
}

/// Splits `[Ideal] ++ configs` into the cells one injected run needs,
/// in order: each group is one [`FanOutObserver`]. A passive configuration
/// ([`DetectorConfig::is_passive`]) joins the first earlier group whose
/// leader is passive and runs an equal machine; any other configuration
/// starts a group of its own, and so does every configuration when
/// `share` is off. A configuration listed twice runs once.
///
/// The fan-out would let an acting leader such as CORD carry passive
/// followers, but then they would see CORD's interleaving rather than
/// the run each has alone. The sweep compares every configuration on
/// its own run, so only a passive leader is shared here.
fn machine_groups(
    configs: &[DetectorConfig],
    opts: &SweepOptions,
    share: bool,
) -> Vec<Vec<DetectorConfig>> {
    let mut groups: Vec<Vec<DetectorConfig>> = Vec::new();
    for cfg in std::iter::once(DetectorConfig::Ideal).chain(configs.iter().copied()) {
        if groups.iter().flatten().any(|&c| c == cfg) {
            continue;
        }
        let joins = |g: &&mut Vec<DetectorConfig>| {
            share
                && cfg.is_passive()
                && g[0].is_passive()
                && opts.machine_for(g[0]) == opts.machine_for(cfg)
        };
        match groups.iter_mut().find(joins) {
            Some(group) => group.push(cfg),
            None => groups.push(vec![cfg]),
        }
    }
    groups
}

/// Puts the groups from [`machine_groups`] on machine runs, in group
/// order: with `share` on, groups whose leaders run an equal machine
/// share one [`run_machine`] run. The panic probe keeps a machine of its
/// own: its panic would unwind a shared run before an earlier group's
/// failure (a watchdog timeout, say), which running the groups one
/// after another reports first.
fn machine_runs(
    groups: &[Vec<DetectorConfig>],
    opts: &SweepOptions,
    share: bool,
) -> Vec<Vec<usize>> {
    let alone = |g: usize| !share || groups[g].contains(&DetectorConfig::PanicProbe);
    let mut runs: Vec<Vec<usize>> = Vec::new();
    for g in 0..groups.len() {
        let joins = |run: &&mut Vec<usize>| {
            !alone(g)
                && !alone(run[0])
                && opts.machine_for(groups[run[0]][0]) == opts.machine_for(groups[g][0])
        };
        match runs.iter_mut().find(joins) {
            Some(run) => run.push(g),
            None => runs.push(vec![g]),
        }
    }
    runs
}

/// Runs the Ideal oracle and every configuration on one injected run
/// behind a panic boundary, producing the run's record. Each group from
/// [`machine_groups`] is one cell on its leader's machine, and the cells
/// of one machine share a run ([`machine_runs`]). The record is the one
/// running the groups one after another produces: groups are taken in
/// order, a machine's shared run starts the first time one of its groups
/// is needed, and the first group that fails ends the record with its
/// error. A sweep that writes per-cell traces runs every configuration
/// alone, because a cell's trace interleaves the machine's own events
/// with its detector's.
pub(crate) fn run_injection(
    target: InjectionTarget,
    configs: &[DetectorConfig],
    workload: &Workload,
    seed: u64,
    opts: &SweepOptions,
    obs: Option<RunObsCtx<'_>>,
) -> RunRecord {
    type RunOk = (Detection, BTreeMap<String, Detection>);
    let plan = target.plan();
    let share = !obs.is_some_and(|o| o.sink.tracing());
    let outcome: Result<Result<RunOk, SimError>, _> = catch_unwind(AssertUnwindSafe(|| {
        let groups = machine_groups(configs, opts, share);
        let runs = machine_runs(&groups, opts, share);
        let mut cells: Vec<Option<Result<CellOut, SimError>>> =
            groups.iter().map(|_| None).collect();
        let mut detections = BTreeMap::new();
        for (g, group) in groups.iter().enumerate() {
            if cells[g].is_none() {
                let run = runs
                    .iter()
                    .find(|run| run[0] == g)
                    .expect("a group whose cell is pending leads its machine run");
                let members: Vec<&[DetectorConfig]> =
                    run.iter().map(|&k| groups[k].as_slice()).collect();
                let machine = opts.machine_for(group[0]);
                run_machine(&members, machine, workload, seed, plan, obs, |i, r| {
                    cells[run[i]] = Some(r);
                });
            }
            let found = cells[g].take().expect("its machine ran")?.publish(obs);
            for (config, det) in group.iter().zip(found) {
                detections.insert(config.label(), det);
            }
        }
        let ideal_label = DetectorConfig::Ideal.label();
        let ideal = detections[&ideal_label];
        if !configs.contains(&DetectorConfig::Ideal) {
            detections.remove(&ideal_label);
        }
        Ok((ideal, detections))
    }));
    match outcome {
        Ok(Ok((ideal, detections))) => RunRecord {
            target,
            status: RunStatus::Completed,
            detail: None,
            ideal: Some(ideal),
            detections,
        },
        Ok(Err(sim)) => RunRecord::failed(
            target,
            RunStatus::from_sim_error(&sim),
            Some(sim.to_string()),
        ),
        Err(payload) => RunRecord::failed(
            target,
            RunStatus::Panicked {
                msg: panic_message(payload.as_ref()),
            },
            None,
        ),
    }
}

/// The deterministic per-run seed of run `i` in a sweep.
pub fn run_seed(opts: &SweepOptions, i: usize) -> u64 {
    opts.seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Builds the workload one sweep run of `app` executes (scale, threads,
/// and base seed from the options).
pub(crate) fn sweep_workload(app: AppKind, opts: &SweepOptions) -> Workload {
    kernel(app, opts.scale.into(), opts.threads, opts.seed)
}

/// One app's planned injection campaign: what its dry run counted and
/// the targets it drew. The in-process sweep and the sharded sweep's
/// `plan.json` both hold campaigns as this type.
#[derive(Debug, Clone)]
pub struct PlannedApp {
    /// Application name.
    pub app: String,
    /// Removable acquire-site instances counted by the dry run.
    pub acquires: u64,
    /// Removable release-site instances counted by the dry run.
    pub releases: u64,
    /// The dry-run failure, if planning failed (no targets then).
    pub dry_run_error: Option<String>,
    /// The drawn injection targets, in run order.
    pub targets: Vec<InjectionTarget>,
}

impl PlannedApp {
    /// A campaign whose planning failed: no instances, no targets.
    fn failed(app: &str, error: String) -> PlannedApp {
        PlannedApp {
            app: app.to_string(),
            acquires: 0,
            releases: 0,
            dry_run_error: Some(error),
            targets: Vec::new(),
        }
    }

    /// The app's sweep, given its runs in target order.
    pub fn sweep(&self, runs: Vec<RunRecord>) -> AppSweep {
        AppSweep {
            app: self.app.clone(),
            acquire_instances: self.acquires,
            release_instances: self.releases,
            dry_run_error: self.dry_run_error.clone(),
            runs,
        }
    }
}

/// Plans an app's injection campaign: the watchdogged dry run that
/// counts removable instances and draws the target set. The dry run
/// executes on the paper machine, watchdogged like every other run in
/// the sweep. Errors are rendered to strings (they become the
/// [`AppSweep::dry_run_error`]).
fn plan_campaign(workload: &Workload, app: AppKind, opts: &SweepOptions) -> PlannedApp {
    let dry_machine = opts.machine_for(DetectorConfig::Cord { d: 16 });
    let campaign_seed = opts.seed ^ app as u64;
    let campaign = if opts.include_releases {
        Campaign::plan_mixed(
            &dry_machine,
            workload,
            opts.injections_per_app,
            campaign_seed,
        )
    } else {
        Campaign::plan(
            &dry_machine,
            workload,
            opts.injections_per_app,
            campaign_seed,
        )
    };
    match campaign {
        Ok(c) => PlannedApp {
            app: workload.name().to_string(),
            acquires: c.counts.acquires,
            releases: c.counts.releases,
            dry_run_error: None,
            targets: c.targets,
        },
        Err(e) => PlannedApp::failed(workload.name(), e.to_string()),
    }
}

/// The (app index, run index, target) cells of planned campaigns, in
/// global index order: the sweep's run matrix, and the unit a sharded
/// sweep partitions.
pub(crate) fn run_matrix<'a>(
    apps: impl IntoIterator<Item = &'a PlannedApp>,
) -> Vec<(usize, usize, InjectionTarget)> {
    apps.into_iter()
        .enumerate()
        .flat_map(|(ai, app)| {
            app.targets
                .iter()
                .enumerate()
                .map(move |(ri, &target)| (ai, ri, target))
        })
        .collect()
}

/// Builds each app's sweep workload and plans its campaign, one dry run
/// per app fanned across `pool`, with `progress` called as each plan
/// lands. A panic while planning is an app-level failure, recorded the
/// same way as a failed dry run. Planning is deterministic, so every
/// caller that plans the same apps draws the same targets.
pub(crate) fn plan_apps(
    apps: &[AppKind],
    opts: &SweepOptions,
    pool: &Pool,
    progress: impl Fn(&BatchProgress) + Sync,
) -> (Vec<Workload>, Vec<PlannedApp>) {
    let workloads: Vec<Workload> = apps.iter().map(|&a| sweep_workload(a, opts)).collect();
    let jobs: Vec<_> = apps
        .iter()
        .zip(&workloads)
        .map(|(&app, workload)| move || plan_campaign(workload, app, opts))
        .collect();
    let planned = pool
        .run_ordered_with(jobs, progress)
        .into_iter()
        .zip(&workloads)
        .map(|(outcome, workload)| {
            outcome.unwrap_or_else(|p| {
                PlannedApp::failed(workload.name(), format!("campaign planning panicked: {p}"))
            })
        })
        .collect();
    (workloads, planned)
}

// ---------------------------------------------------------------------
// JSON codecs (checkpoint files and --json dumps).

impl ToJson for ScaleClassOpt {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for ScaleClassOpt {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str()? {
            "tiny" => Ok(ScaleClassOpt::Tiny),
            "small" => Ok(ScaleClassOpt::Small),
            "paper" => Ok(ScaleClassOpt::Paper),
            other => Err(JsonError::new(format!("unknown scale class {other:?}"))),
        }
    }
}

impl ToJson for CoherenceOpt {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for CoherenceOpt {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v.as_str()?;
        CoherenceOpt::from_name(s)
            .ok_or_else(|| JsonError::new(format!("unknown coherence backend {s:?}")))
    }
}

impl ToJson for SweepOptions {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("injections_per_app", self.injections_per_app.to_json()),
            ("scale", self.scale.to_json()),
            ("threads", self.threads.to_json()),
            ("seed", self.seed.to_json()),
            ("include_releases", self.include_releases.to_json()),
            ("spin_waits", self.spin_waits.to_json()),
        ];
        // The scaling axes serialize only at non-default values: the
        // default encoding (and therefore checkpoint bytes and
        // options hashes of every pre-existing sweep) is unchanged.
        if self.cores != 4 {
            fields.push(("cores", self.cores.to_json()));
        }
        if self.backend != CoherenceOpt::Snooping {
            fields.push(("backend", self.backend.to_json()));
        }
        obj(fields)
    }
}

impl FromJson for SweepOptions {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SweepOptions {
            injections_per_app: usize::from_json(v.field("injections_per_app")?)?,
            scale: ScaleClassOpt::from_json(v.field("scale")?)?,
            threads: usize::from_json(v.field("threads")?)?,
            cores: match v.field("cores") {
                Ok(f) => usize::from_json(f)?,
                Err(_) => 4,
            },
            backend: match v.field("backend") {
                Ok(f) => CoherenceOpt::from_json(f)?,
                Err(_) => CoherenceOpt::Snooping,
            },
            seed: u64::from_json(v.field("seed")?)?,
            include_releases: bool::from_json(v.field("include_releases")?)?,
            spin_waits: Option::<u64>::from_json(v.field("spin_waits")?)?,
        })
    }
}

impl ToJson for Detection {
    fn to_json(&self) -> Json {
        obj(vec![("races", self.races.to_json())])
    }
}

impl FromJson for Detection {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Detection {
            races: u64::from_json(v.field("races")?)?,
        })
    }
}

impl ToJson for RunStatus {
    fn to_json(&self) -> Json {
        let mut fields = vec![("status", Json::Str(self.kind().to_string()))];
        if let RunStatus::Panicked { msg } = self {
            fields.push(("msg", msg.to_json()));
        }
        if let RunStatus::Abandoned { reason } = self {
            fields.push(("reason", reason.to_json()));
        }
        obj(fields)
    }
}

impl FromJson for RunStatus {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.field("status")?.as_str()? {
            "completed" => Ok(RunStatus::Completed),
            "deadlocked" => Ok(RunStatus::Deadlocked),
            "timed-out" => Ok(RunStatus::TimedOut),
            "panicked" => Ok(RunStatus::Panicked {
                msg: String::from_json(v.field("msg")?)?,
            }),
            "abandoned" => Ok(RunStatus::Abandoned {
                reason: String::from_json(v.field("reason")?)?,
            }),
            other => Err(JsonError::new(format!("unknown run status {other:?}"))),
        }
    }
}

fn target_to_json(t: &InjectionTarget) -> Json {
    obj(vec![
        ("kind", Json::Str(t.kind().to_string())),
        ("instance", t.instance().to_json()),
    ])
}

fn target_from_json(v: &Json) -> Result<InjectionTarget, JsonError> {
    let n = u64::from_json(v.field("instance")?)?;
    match v.field("kind")?.as_str()? {
        "acquire" => Ok(InjectionTarget::Acquire(n)),
        "release" => Ok(InjectionTarget::Release(n)),
        other => Err(JsonError::new(format!("unknown target kind {other:?}"))),
    }
}

impl ToJson for RunRecord {
    fn to_json(&self) -> Json {
        let detections = Json::Object(
            self.detections
                .iter()
                .map(|(label, d)| (label.clone(), d.to_json()))
                .collect(),
        );
        obj(vec![
            ("target", target_to_json(&self.target)),
            ("status", self.status.to_json()),
            ("detail", self.detail.to_json()),
            ("ideal", self.ideal.to_json()),
            ("detections", detections),
        ])
    }
}

impl FromJson for RunRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut detections = BTreeMap::new();
        for (label, d) in v.field("detections")?.as_object()? {
            detections.insert(label.clone(), Detection::from_json(d)?);
        }
        let ideal = match v.field("ideal")? {
            Json::Null => None,
            d => Some(Detection::from_json(d)?),
        };
        Ok(RunRecord {
            target: target_from_json(v.field("target")?)?,
            status: RunStatus::from_json(v.field("status")?)?,
            detail: Option::<String>::from_json(v.field("detail")?)?,
            ideal,
            detections,
        })
    }
}

impl ToJson for PlannedApp {
    fn to_json(&self) -> Json {
        obj(vec![
            ("app", self.app.to_json()),
            ("acquires", self.acquires.to_json()),
            ("releases", self.releases.to_json()),
            ("dry_run_error", self.dry_run_error.to_json()),
            (
                "targets",
                Json::Array(self.targets.iter().map(target_to_json).collect()),
            ),
        ])
    }
}

impl FromJson for PlannedApp {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(PlannedApp {
            app: String::from_json(v.field("app")?)?,
            acquires: u64::from_json(v.field("acquires")?)?,
            releases: u64::from_json(v.field("releases")?)?,
            dry_run_error: Option::<String>::from_json(v.field("dry_run_error")?)?,
            targets: v
                .field("targets")?
                .as_array()?
                .iter()
                .map(target_from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for AppSweep {
    fn to_json(&self) -> Json {
        obj(vec![
            ("app", self.app.to_json()),
            ("acquire_instances", self.acquire_instances.to_json()),
            ("release_instances", self.release_instances.to_json()),
            ("dry_run_error", self.dry_run_error.to_json()),
            ("runs", self.runs.to_json()),
        ])
    }
}

impl FromJson for AppSweep {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(AppSweep {
            app: String::from_json(v.field("app")?)?,
            acquire_instances: u64::from_json(v.field("acquire_instances")?)?,
            release_instances: u64::from_json(v.field("release_instances")?)?,
            dry_run_error: Option::<String>::from_json(v.field("dry_run_error")?)?,
            runs: Vec::<RunRecord>::from_json(v.field("runs")?)?,
        })
    }
}

impl ToJson for SweepResults {
    fn to_json(&self) -> Json {
        obj(vec![
            ("options", self.options.to_json()),
            ("apps", self.apps.to_json()),
        ])
    }
}

impl FromJson for SweepResults {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(SweepResults {
            options: SweepOptions::from_json(v.field("options")?)?,
            apps: Vec::<AppSweep>::from_json(v.field("apps")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SweepRunner;

    fn quick_opts() -> SweepOptions {
        SweepOptions {
            injections_per_app: 4,
            scale: ScaleClassOpt::Tiny,
            threads: 4,
            seed: 7,
            ..SweepOptions::default()
        }
    }

    fn runner() -> SweepRunner {
        SweepRunner::new(quick_opts())
    }

    fn sweep_app(app: AppKind, configs: &[DetectorConfig]) -> AppSweep {
        let results = runner().apps(&[app]).run(configs).expect("no checkpoint");
        results.apps.into_iter().next().expect("one app")
    }

    #[test]
    fn sweep_one_app_produces_records() {
        let configs = [DetectorConfig::Cord { d: 16 }];
        let s = sweep_app(AppKind::WaterN2, &configs);
        assert_eq!(s.app, "water-n2");
        assert_eq!(s.runs.len(), 4);
        assert!(s.acquire_instances > 0);
        assert!(s.dry_run_error.is_none());
        for r in &s.runs {
            assert_eq!(r.status, RunStatus::Completed);
            assert!(r.detections.contains_key("CORD-D16"));
        }
    }

    #[test]
    fn rates_are_well_defined() {
        let configs = [DetectorConfig::Cord { d: 16 }, DetectorConfig::VcL2Cache];
        let s = sweep_app(AppKind::Cholesky, &configs);
        let m = s.manifestation_rate();
        assert!((0.0..=1.0).contains(&m));
        if s.manifested().count() > 0 {
            assert!(s.problem_rate_vs("CORD-D16", "Ideal").is_some());
        }
    }

    #[test]
    fn cord_never_fires_on_clean_runs_in_sweep_apps() {
        // No-injection sanity for a couple of apps through the sweep's
        // run_detector path.
        let r = runner();
        for app in [AppKind::Fft, AppKind::Radiosity] {
            let w = kernel(app, ScaleClass::Tiny, 4, 7);
            let d = r
                .run_detector(DetectorConfig::Cord { d: 16 }, &w, 1, InjectionPlan::none())
                .expect("clean run completes");
            assert_eq!(d.races, 0, "{} clean run fired", w.name());
            let i = r
                .run_detector(DetectorConfig::Ideal, &w, 1, InjectionPlan::none())
                .expect("clean run completes");
            assert_eq!(i.races, 0);
        }
    }

    #[test]
    fn ideal_in_configs_is_not_simulated_twice() {
        // With Ideal listed, the detections table carries its label and
        // the value equals the manifestation verdict (one simulation,
        // reused).
        let configs = [DetectorConfig::Ideal, DetectorConfig::Cord { d: 16 }];
        let s = sweep_app(AppKind::Lu, &configs);
        for r in &s.runs {
            assert_eq!(r.detections.get("Ideal").copied(), r.ideal);
        }
    }

    #[test]
    fn passive_configs_on_equal_machines_share_a_run() {
        let labels = |groups: Vec<Vec<DetectorConfig>>| -> Vec<Vec<String>> {
            groups
                .into_iter()
                .map(|g| g.into_iter().map(DetectorConfig::label).collect())
                .collect()
        };
        let mut configs = DetectorConfig::all_for_sweep();
        configs.push(DetectorConfig::PanicProbe);
        configs.push(DetectorConfig::Ideal);
        assert_eq!(
            labels(machine_groups(&configs, &quick_opts(), true)),
            [
                vec!["Ideal", "InfCache"],
                vec!["CORD-D1"],
                vec!["CORD-D4"],
                vec!["CORD-D16"],
                vec!["CORD-D256"],
                vec!["L2Cache(VC)", "L1Cache(VC)"],
                vec!["PanicProbe"],
            ]
        );
        // Unshared (per-cell traces): one run per configuration, still
        // in order and with Ideal first and once.
        let alone = labels(machine_groups(&configs, &quick_opts(), false));
        assert_eq!(alone.len(), 9);
        assert!(alone.iter().all(|g| g.len() == 1));
        assert_eq!(alone[0], ["Ideal"]);

        // Cells of an equal machine share one run, except the probe.
        let groups = machine_groups(&configs, &quick_opts(), true);
        assert_eq!(
            machine_runs(&groups, &quick_opts(), true),
            [vec![0], vec![1, 2, 3, 4, 5], vec![6]]
        );
        let groups = machine_groups(&configs, &quick_opts(), false);
        let runs = machine_runs(&groups, &quick_opts(), false);
        assert_eq!(runs, (0..9).map(|g| vec![g]).collect::<Vec<_>>());
    }

    #[test]
    fn results_serialize_roundtrip() {
        let configs = [DetectorConfig::Cord { d: 16 }];
        let s = SweepResults {
            options: quick_opts(),
            apps: vec![sweep_app(AppKind::Lu, &configs)],
        };
        let json = s.to_json().to_string_pretty();
        let back = SweepResults::from_json(&Json::parse(&json).expect("parses")).expect("decodes");
        assert_eq!(s, back);
        // Byte-stable re-serialization (what checkpoint resume relies on).
        assert_eq!(json, back.to_json().to_string_pretty());
    }

    #[test]
    fn default_scaling_axes_leave_encoding_unchanged() {
        // Checkpoint compatibility: at the default 4-core snooping
        // setting the options JSON must not mention the new axes at
        // all (options hashes and fixture bytes are pinned to it).
        let json = SweepOptions::default().to_json().to_string_compact();
        assert!(!json.contains("cores"));
        assert!(!json.contains("backend"));
        // And a pre-scaling-era encoding still decodes (to defaults).
        let back = SweepOptions::from_json(&Json::parse(&json).expect("parses")).expect("decodes");
        assert_eq!(back, SweepOptions::default());
    }

    #[test]
    fn scaling_axes_roundtrip_at_non_default_values() {
        let opts = SweepOptions {
            cores: 16,
            backend: CoherenceOpt::Directory,
            ..quick_opts()
        };
        let json = opts.to_json().to_string_compact();
        assert!(json.contains("\"cores\": 16") || json.contains("\"cores\":16"));
        let back = SweepOptions::from_json(&Json::parse(&json).expect("parses")).expect("decodes");
        assert_eq!(back, opts);
        let mc = opts.machine_for(DetectorConfig::Cord { d: 16 });
        assert_eq!(mc.cores, 16);
        assert_eq!(mc.coherence, CoherenceKind::Directory);
    }

    #[test]
    fn failure_statuses_roundtrip() {
        let r = RunRecord {
            target: cord_inject::InjectionTarget::Release(3),
            status: RunStatus::Panicked { msg: "boom".into() },
            detail: Some("diag".into()),
            ideal: None,
            detections: BTreeMap::new(),
        };
        let back = RunRecord::from_json(&r.to_json()).expect("decodes");
        assert_eq!(r, back);
        assert_eq!(back.status.kind(), "panicked");
    }
}
