//! The layer probe: every crate on the host pipeline, timed on one
//! workload's own programs.
//!
//! A workload's traced round only calls the layers that workload uses:
//! a sweep never touches the wire codec, and a replay never simulates.
//! The probe calls every layer on the workload's programs and machine,
//! so each per-layer metric exists for every workload and says what
//! that layer costs on this workload's inputs. For each program it
//! plans an injection campaign; simulates with no detector, inline
//! under each of the eight detector configurations, and with a capture
//! tee; and encodes, decodes and ingests each capture in process and
//! replays it through a daemon. Then it runs a one-injection sweep of
//! the workload's options through `SweepRunner` at two workers and at
//! one, and a batch of generated fuzz cases through the oracle battery.

use crate::sims::{self, LiveDaemon};
use crate::trace::Tracer;
use cord_bench::{DetectorConfig, SweepOptions, SweepResults, SweepRunner};
use cord_core::{DetectorSink, ObsCtx};
use cord_fuzz::campaign::case_seed;
use cord_fuzz::{check_workload, generate, GenConfig, OracleOptions};
use cord_inject::Campaign;
use cord_json::{FromJson, Json, ToJson};
use cord_obs::wire::{decode_capture, encode_capture};
use cord_obs::MetricsRegistry;
use cord_serve::Query;
use cord_sim::config::MachineConfig;
use cord_sim::engine::InjectionPlan;
use cord_sim::stats::SimStats;
use cord_trace::program::Workload;
use std::collections::BTreeMap;

/// Generated cases the fuzz leg runs: enough that per-case costs
/// average out, few enough to keep the traced run short.
const FUZZ_CASES: usize = 200;

/// The programs and machine the probe measures.
pub struct ProbeSet {
    /// Builds the programs; timed as `workloads.build_ms`.
    pub build: Box<dyn Fn() -> Vec<Workload>>,
    /// The workload's sweep options: each detector configuration's
    /// machine (cores, coherence backend, watchdog), the seed of every
    /// run, and the sweep the sweep leg runs.
    pub opts: SweepOptions,
    /// The configurations the sweep leg runs (Ideal always runs too).
    pub configs: Vec<DetectorConfig>,
}

/// What the probe measured, and the checks it made on the way.
#[derive(Debug, Default)]
pub struct ProbeOutcome {
    pub metrics: BTreeMap<String, f64>,
    /// Programs, sweeps and fuzz cases probed.
    pub attempted: u64,
    /// Failed checks: a run that aborted, an oracle violation, a
    /// decoded, ingested or replayed result that differs from inline,
    /// or sweep results that differ between worker counts.
    pub errors: Vec<String>,
}

/// Runs the probe; its spans are recorded outside any round.
pub fn probe(set: &ProbeSet, tr: &mut Tracer) -> ProbeOutcome {
    let (programs, build) = tr.span("workloads", "build", 0, || (set.build)());
    let mut p = Probe {
        seed: set.opts.seed,
        base: set.opts.machine_for(DetectorConfig::Cord { d: 16 }),
        sums: Sums::default(),
        errors: Vec::new(),
    };
    let daemon = match LiveDaemon::start() {
        Ok(d) => d,
        Err(e) => {
            return ProbeOutcome {
                attempted: 1,
                errors: vec![e],
                ..ProbeOutcome::default()
            }
        }
    };
    for (i, w) in programs.iter().enumerate() {
        p.program(&set.opts, w, i as u64, &daemon, tr);
    }
    let ingest = daemon_ingest_ns(&daemon).unwrap_or_else(|e| {
        p.errors.push(e);
        (0.0, 0.0)
    });
    drop(daemon);
    p.sweep_leg(set, tr);
    p.fuzz_leg(tr);
    p.sums.build_s = tr.seconds(build);
    ProbeOutcome {
        metrics: p.sums.metrics(programs.len(), ingest),
        attempted: (programs.len() + 2 + FUZZ_CASES) as u64,
        errors: p.errors,
    }
}

/// The daemon's own per-access ingest latency histogram: `(p50, p99)`
/// in nanoseconds, each resolved to its power-of-two bucket.
fn daemon_ingest_ns(daemon: &LiveDaemon) -> Result<(f64, f64), String> {
    let doc = daemon
        .client()
        .query(Query::Metrics)
        .map_err(|e| format!("metrics query: {e}"))?;
    let hist = doc
        .field("ingest_latency")
        .map_err(|e| format!("metrics query: {e}"))?;
    let q = |k: &str| {
        hist.field(k)
            .and_then(f64::from_json)
            .map_err(|e| format!("metrics query: {e}"))
    };
    Ok((q("p50_ns")?, q("p99_ns")?))
}

struct Probe {
    seed: u64,
    /// The machine the CORD configurations run on, whose NullObserver
    /// run supplies the simulator metrics.
    base: MachineConfig,
    sums: Sums,
    errors: Vec<String>,
}

/// Sums over every program the probe ran.
#[derive(Debug, Default)]
struct Sums {
    build_s: f64,
    plan_s: f64,
    null_s: f64,
    sim: SimStats,
    accesses: u64,
    cord: SimStats,
    cord_counters: MetricsRegistry,
    det: BTreeMap<String, DetSums>,
    encode_s: f64,
    decode_s: f64,
    transport_s: f64,
    replays: u64,
    wire_bytes: u64,
    events: u64,
    sweep: SweepLeg,
    fuzz: FuzzLeg,
}

/// Per-configuration sums.
#[derive(Debug, Default, Clone)]
struct DetSums {
    inline_s: f64,
    /// The matching NullObserver runs, subtracted from `inline_s`.
    null_s: f64,
    accesses: u64,
    ingest_s: f64,
    events: u64,
}

/// What the sweep leg measured.
#[derive(Debug, Default)]
struct SweepLeg {
    run_ms_mean: f64,
    run_ms_max: f64,
    queue_wait_ms_mean: f64,
    results_json_ms: f64,
    utilization: f64,
    speedup_2v1: f64,
}

/// What the fuzz leg measured, summed over its cases.
#[derive(Debug, Default)]
struct FuzzLeg {
    gen_s: f64,
    oracle_s: f64,
    accesses: u64,
}

impl Probe {
    fn fail(&mut self, w: &Workload, what: &str, e: impl std::fmt::Display) {
        self.errors.push(format!("{}: {what}: {e}", w.name()));
    }

    fn program(
        &mut self,
        opts: &SweepOptions,
        w: &Workload,
        req: u64,
        daemon: &LiveDaemon,
        tr: &mut Tracer,
    ) {
        let seed = self.seed;
        let (plan, id) = tr.span("inject", "Campaign::plan", req, || {
            Campaign::plan(&self.base, w, 4, seed ^ req)
        });
        self.sums.plan_s += tr.seconds(id);
        if let Err(e) = plan {
            self.fail(w, "campaign plan", e);
        }

        // One NullObserver run per distinct machine: the base each
        // detector's inline increment is measured over.
        let mut null_by_machine: Vec<(MachineConfig, f64)> = Vec::new();
        for config in sims::all_configs() {
            let mc = opts.machine_for(config);
            if null_by_machine.iter().any(|(m, _)| *m == mc) {
                continue;
            }
            let (run, secs) = fastest(tr, "sim", "Machine::run(NullObserver)", req, || {
                sims::null_run(&mc, w, seed, InjectionPlan::none())
            });
            match run {
                Ok(run) if mc == self.base => {
                    self.sums.null_s += secs;
                    self.sums.accesses += run.stats.total_accesses();
                    add_stats(&mut self.sums.sim, &run.stats);
                }
                Ok(_) => {}
                Err(e) => self.fail(w, "null run", e),
            }
            null_by_machine.push((mc, secs));
        }

        for config in sims::all_configs() {
            let mc = opts.machine_for(config);
            let null_s = null_by_machine
                .iter()
                .find(|(m, _)| *m == mc)
                .map_or(0.0, |(_, s)| *s);
            self.inline_leg(config, &mc, w, req, null_s, tr);
            if let Err(e) = self.capture_leg(config, &mc, w, req, daemon, tr) {
                self.fail(w, &format!("{} capture leg", config.label()), e);
            }
        }
    }

    fn inline_leg(
        &mut self,
        config: DetectorConfig,
        mc: &MachineConfig,
        w: &Workload,
        req: u64,
        null_s: f64,
        tr: &mut Tracer,
    ) {
        let (run, secs) = fastest(tr, "detectors", "run_detector", req, || {
            sims::detector_run(config, mc, w, self.seed, InjectionPlan::none())
        });
        match run {
            Ok((run, mut detector)) => {
                let sums = self.sums.det.entry(sims::slug(config)).or_default();
                sums.inline_s += secs;
                sums.null_s += null_s;
                sums.accesses += run.stats.total_accesses();
                if config == (DetectorConfig::Cord { d: 16 }) {
                    add_stats(&mut self.sums.cord, &run.stats);
                    self.sums.cord_counters.merge(&detector.drain().metrics);
                }
            }
            Err(e) => self.fail(w, &format!("{} run", config.label()), e),
        }
    }

    /// Captures one run, then encodes, decodes and ingests the capture
    /// in process and replays it through the daemon. The in-process and
    /// the daemon report must both be byte-identical to the inline one.
    fn capture_leg(
        &mut self,
        config: DetectorConfig,
        mc: &MachineConfig,
        w: &Workload,
        req: u64,
        daemon: &LiveDaemon,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let seed = self.seed;
        let (captured, _) = tr.span("detectors", "capture", req, || {
            sims::capture_run(config, mc, w, seed, InjectionPlan::none())
        });
        let (events, report) = captured.map_err(|e| e.to_string())?;
        let inline = report.to_bytes();
        let header = sims::header(config, mc, w, seed);
        let (bytes, enc) = tr.span("wire", "encode_capture", req, || {
            encode_capture(&header, &events)
        });
        let (decoded, dec) = tr.span("wire", "decode_capture", req, || decode_capture(&bytes));
        let (_, decoded) = decoded.map_err(|e| format!("decode: {e}"))?;
        if decoded != events {
            return Err("decoded events differ from the captured ones".into());
        }
        let (ingested, ing) = tr.span("detectors", "ingest", req, || {
            let mut sink = config.build_sink(w.num_threads(), mc.cores, seed, ObsCtx::disabled());
            for ev in &decoded {
                sink.ingest(ev);
            }
            sink.flush();
            sink.drain().to_bytes()
        });
        let (replayed, rep) = tr.span("serve", "replay_capture", req, || {
            daemon.client().replay_capture(&bytes)
        });
        let replayed = replayed.map_err(|e| format!("replay: {e}"))?;
        if ingested != inline || replayed != inline {
            return Err("a replayed report differs from the inline report".into());
        }
        let n = events.len() as u64;
        let sums = self.sums.det.entry(sims::slug(config)).or_default();
        sums.ingest_s += tr.seconds(ing);
        sums.events += n;
        let s = &mut self.sums;
        s.encode_s += tr.seconds(enc);
        s.decode_s += tr.seconds(dec);
        s.transport_s += tr.seconds(rep) - tr.seconds(dec) - tr.seconds(ing);
        s.replays += 1;
        s.wire_bytes += bytes.len() as u64;
        s.events += n;
        Ok(())
    }

    /// One injected run per app of the workload's sweep, through
    /// `SweepRunner` with its metrics profile on, at two workers and
    /// then at one. The two results must be identical.
    fn sweep_leg(&mut self, set: &ProbeSet, tr: &mut Tracer) {
        let opts = SweepOptions {
            injections_per_app: 1,
            ..set.opts
        };
        let profile = sims::run_dir().join("sweep-metrics.json");
        let mut results: Vec<(SweepResults, f64)> = Vec::new();
        for jobs in [2usize, 1] {
            let runner = SweepRunner::new(opts).jobs(jobs).metrics_out(&profile);
            let (out, id) = tr.span("sweep", "SweepRunner::run", jobs as u64, || {
                runner.run(&set.configs)
            });
            match out {
                Ok(r) => results.push((r, tr.seconds(id))),
                Err(e) => {
                    self.errors
                        .push(format!("sweep leg at {jobs} workers: {e}"));
                    return;
                }
            }
            if jobs == 2 {
                match read_profile(&profile) {
                    Ok([run_mean, run_max, wait_mean, utilization]) => {
                        let leg = &mut self.sums.sweep;
                        leg.run_ms_mean = run_mean * 1e3;
                        leg.run_ms_max = run_max * 1e3;
                        leg.queue_wait_ms_mean = wait_mean * 1e3;
                        leg.utilization = utilization;
                    }
                    Err(e) => self.errors.push(format!("sweep profile: {e}")),
                }
            }
        }
        let (json, id) = tr.span("sweep", "SweepResults::to_json", 0, || {
            results[0].0.to_json().to_string_compact()
        });
        if json != results[1].0.to_json().to_string_compact() {
            self.errors
                .push("sweep results differ between two workers and one".into());
        }
        let leg = &mut self.sums.sweep;
        leg.results_json_ms = tr.seconds(id) * 1e3;
        leg.speedup_2v1 = results[1].1 / results[0].1;
    }

    /// Generates [`FUZZ_CASES`] mixed-mode cases from the workload's
    /// seed and runs the full oracle battery on each.
    fn fuzz_leg(&mut self, tr: &mut Tracer) {
        let gen = GenConfig::default();
        let oracle = OracleOptions::default();
        for index in 0..FUZZ_CASES {
            let req = index as u64;
            let (w, g) = tr.span("fuzz", "gen::generate", req, || {
                generate(&gen, case_seed(self.seed, index))
            });
            let (report, o) = tr.span("fuzz", "oracle::check_workload", req, || {
                check_workload(&w, &oracle)
            });
            self.sums.fuzz.gen_s += tr.seconds(g);
            self.sums.fuzz.oracle_s += tr.seconds(o);
            self.sums.fuzz.accesses += report.events as u64;
            if let Some(v) = report.violations.first() {
                self.fail(&w, "oracle", v);
            }
        }
    }
}

/// From the file `SweepRunner::metrics_out` wrote: per-job run time
/// (mean and maximum) and mean queue wait, in seconds, and the run
/// batch's pool utilization.
fn read_profile(path: &std::path::Path) -> Result<[f64; 4], String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let get = |keys: [&str; 3]| -> Result<f64, String> {
        keys.iter()
            .try_fold(&doc, |d, k| d.field(k))
            .and_then(f64::from_json)
            .map_err(|e| format!("{}: {}: {e}", path.display(), keys.join(".")))
    };
    Ok([
        get(["profile", "job_run", "mean_s"])?,
        get(["profile", "job_run", "max_s"])?,
        get(["profile", "queue_wait", "mean_s"])?,
        get(["metrics", "gauges", "pool.utilization"])?,
    ])
}

impl Sums {
    fn metrics(
        &self,
        programs: usize,
        (ingest_p50, ingest_p99): (f64, f64),
    ) -> BTreeMap<String, f64> {
        let n = programs.max(1) as f64;
        let per = |secs: f64, count: u64| {
            if count == 0 {
                0.0
            } else {
                secs * 1e9 / count as f64
            }
        };
        let counter = |name: &str| self.cord_counters.counter(name) as f64;
        let (sweep, fuzz) = (&self.sweep, &self.fuzz);
        let mut m: BTreeMap<String, f64> = [
            ("workloads.build_ms", self.build_s * 1e3),
            ("inject.plan_ms_per_program", self.plan_s * 1e3 / n),
            ("sim.ns_per_access", per(self.null_s, self.accesses)),
            ("sim.accesses", self.accesses as f64),
            ("sim.cycles", self.sim.cycles as f64),
            (
                "sim.l1_hit_pct",
                100.0 * self.sim.l1_hits as f64 / self.accesses.max(1) as f64,
            ),
            ("sim.memory_fills", self.sim.memory_fills as f64),
            ("sim.sibling_fills", self.sim.sibling_fills as f64),
            ("sim.upgrades", self.sim.upgrades as f64),
            ("sim.addr_bus_wait", self.sim.addr_bus_wait as f64),
            ("sim.data_bus_wait", self.sim.data_bus_wait as f64),
            ("sim.cord_ts_bus_busy", self.cord.ts_bus_busy as f64),
            (
                "sim.cord_retirement_stall_cycles",
                self.cord.retirement_stall_cycles as f64,
            ),
            (
                "det.cord-d16.filter_hit_ratio",
                counter("cord.filter_hits")
                    / (counter("cord.filter_hits") + counter("cord.filter_grants")).max(1.0),
            ),
            (
                "det.cord-d16.memts_broadcasts",
                counter("cord.memts_broadcasts"),
            ),
            (
                "det.cord-d16.walker_evictions",
                counter("cord.walker_evictions"),
            ),
            ("wire.encode_ns_per_event", per(self.encode_s, self.events)),
            ("wire.decode_ns_per_event", per(self.decode_s, self.events)),
            (
                "wire.bytes_per_event",
                self.wire_bytes as f64 / self.events.max(1) as f64,
            ),
            ("serve.ingest_ns_p50", ingest_p50),
            ("serve.ingest_ns_p99", ingest_p99),
            (
                "serve.transport_ms_per_replay",
                self.transport_s * 1e3 / self.replays.max(1) as f64,
            ),
            ("pool.utilization", sweep.utilization),
            ("pool.speedup_2v1", sweep.speedup_2v1),
            ("sweep.run_ms_mean", sweep.run_ms_mean),
            ("sweep.run_ms_max", sweep.run_ms_max),
            ("sweep.queue_wait_ms_mean", sweep.queue_wait_ms_mean),
            ("sweep.results_json_ms", sweep.results_json_ms),
            ("fuzz.gen_us_per_case", fuzz.gen_s * 1e6 / FUZZ_CASES as f64),
            (
                "fuzz.oracle_us_per_case",
                fuzz.oracle_s * 1e6 / FUZZ_CASES as f64,
            ),
            (
                "fuzz.accesses_per_case",
                fuzz.accesses as f64 / FUZZ_CASES as f64,
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for slug in sims::all_configs().into_iter().map(sims::slug) {
            let s = self.det.get(&slug).cloned().unwrap_or_default();
            m.insert(
                format!("det.{slug}.inline_ns_per_access"),
                per(s.inline_s - s.null_s, s.accesses),
            );
            m.insert(
                format!("det.{slug}.ingest_ns_per_event"),
                per(s.ingest_s, s.events),
            );
        }
        m
    }
}

/// Times the inline increment's two terms: each run a detector's
/// increment is the difference of is repeated, and the fastest taken,
/// because a difference of two single noisy timings is mostly noise.
const REPEATS: usize = 3;

/// Calls `f` [`REPEATS`] times, each in its own span; returns the last
/// result and the shortest time in seconds.
fn fastest<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    req: u64,
    f: impl Fn() -> T,
) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPEATS {
        let (v, id) = tr.span(layer, name, req, &f);
        best = best.min(tr.seconds(id));
        out = Some(v);
    }
    (out.expect("REPEATS is positive"), best)
}

fn add_stats(acc: &mut SimStats, s: &SimStats) {
    acc.cycles += s.cycles;
    acc.l1_hits += s.l1_hits;
    acc.memory_fills += s.memory_fills;
    acc.sibling_fills += s.sibling_fills;
    acc.upgrades += s.upgrades;
    acc.addr_bus_wait += s.addr_bus_wait;
    acc.data_bus_wait += s.data_bus_wait;
    acc.ts_bus_busy += s.ts_bus_busy;
    acc.retirement_stall_cycles += s.retirement_stall_cycles;
}

/// The names of the metrics the probe reports.
#[cfg(test)]
pub fn metric_names() -> Vec<String> {
    Sums::default().metrics(1, (0.0, 0.0)).into_keys().collect()
}
