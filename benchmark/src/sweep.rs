//! `sweep-paper`: `SweepRunner::run`, the command behind every figure
//! of the paper's evaluation, over all twelve apps at Paper scale on the
//! paper's 4-core snooping machine with the seven figure configurations
//! plus the Ideal oracle. At Paper scale the working set overflows the
//! 8 KiB L1, so fills, evictions, history displacement and the
//! memory-timestamp fold are on the path. This is what regenerates
//! Figures 10 and 12–17.
//!
//! The sweep runs on one pool worker. At two, a round's time depends on
//! which worker draws the longest runs last, and rounds of the same work
//! differed by up to 1.8 times; the layer probe measures the pool's
//! two-worker speed-up instead. A round injects once per app: its twelve
//! runs take about three seconds, so a run repeats a unit about fifteen
//! times, and a unit's fastest time over the rounds is steadier the
//! more rounds it has.

use crate::bench::{Bench, Round};
use crate::layers::ProbeSet;
use crate::sims;
use crate::stats::fnv1a;
use crate::trace::Tracer;
use cord_bench::sweep::{run_seed, Detection, ScaleClassOpt};
use cord_bench::{
    AppSweep, DetectorConfig, RunRecord, RunStatus, SweepOptions, SweepResults, SweepRunner,
};
use cord_core::Detector;
use cord_inject::Campaign;
use cord_json::ToJson;
use cord_sim::engine::SimError;
use cord_trace::program::Workload;
use cord_workloads::{all_apps, kernel};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub struct SweepBench {
    opts: SweepOptions,
    configs: Vec<DetectorConfig>,
}

impl SweepBench {
    pub fn new() -> SweepBench {
        SweepBench {
            opts: SweepOptions {
                injections_per_app: 1,
                scale: ScaleClassOpt::Paper,
                ..SweepOptions::default()
            },
            configs: DetectorConfig::all_for_sweep(),
        }
    }
}

/// Runs the sweep on one worker. A run's latency is the time between
/// consecutive completions: the worker runs one job at a time, and the
/// progress callback fires right after each.
fn sweep(input: &SweepInput, configs: &[DetectorConfig]) -> Round {
    let completions: Arc<Mutex<Vec<Duration>>> = Arc::default();
    let sink = Arc::clone(&completions);
    let start = Instant::now();
    let results = SweepRunner::new(input.opts)
        .jobs(1)
        .progress(move |p| {
            if p.phase == "run" {
                let mut c = sink.lock().expect("progress lock is never poisoned");
                c.push(p.elapsed);
            }
        })
        .run(configs);
    let wall_s = start.elapsed().as_secs_f64();
    let mut round = match results {
        Ok(results) => summarize(&results),
        Err(e) => {
            eprintln!("sweep failed: {e}");
            Round {
                attempted: 1,
                failed: 1,
                ..Round::default()
            }
        }
    };
    round.wall_s = wall_s;
    let mut ats = completions
        .lock()
        .expect("progress lock is never poisoned")
        .clone();
    ats.sort();
    let mut prev = Duration::ZERO;
    for at in ats {
        round.unit_ms.push((at - prev).as_secs_f64() * 1e3);
        prev = at;
    }
    round
}

/// The inputs of one sweep: its options (seed included) and the
/// programs the runner builds from them.
pub struct SweepInput {
    opts: SweepOptions,
    programs: Vec<Workload>,
}

fn build(opts: &SweepOptions) -> Vec<Workload> {
    all_apps()
        .iter()
        .map(|&app| kernel(app, opts.scale.into(), opts.threads, opts.seed))
        .collect()
}

/// Counts, digest and detection tally of a finished sweep.
fn summarize(results: &SweepResults) -> Round {
    let mut round = Round {
        digest: fnv1a(results.to_json().to_string_compact().as_bytes()),
        ..Round::default()
    };
    for app in &results.apps {
        // An app whose dry run failed has no runs; it counts as one
        // failed unit.
        let failed_app = u64::from(app.dry_run_error.is_some());
        round.attempted += app.runs.len() as u64 + failed_app;
        round.failed += app.non_completed().count() as u64 + failed_app;
        for run in app.manifested() {
            round.detected.1 += 1;
            if run.detections.get("CORD-D16").is_some_and(Detection::found) {
                round.detected.0 += 1;
            }
        }
    }
    round
}

impl Bench for SweepBench {
    type Input = SweepInput;

    fn setup(&self, seed: u64) -> Result<SweepInput, String> {
        let opts = SweepOptions { seed, ..self.opts };
        Ok(SweepInput {
            programs: build(&opts),
            opts,
        })
    }

    fn round(&self, input: &SweepInput) -> Round {
        sweep(input, &self.configs)
    }

    /// The runner's work, one app and one run at a time: build the
    /// kernel, plan its campaign, run Ideal and every configuration on
    /// each injected run, and serialize the results. Each detector run
    /// gets a share span: a NullObserver run of the same machine, seed
    /// and injection, which is the simulator's part of it.
    fn traced_round(&self, input: &SweepInput, tr: &mut Tracer) -> (Round, usize) {
        let opts = input.opts;
        let mut cells = Vec::new();
        let ((mut round, programs), root) = tr.scope("bench", "round", 0, |tr| {
            let mut apps = Vec::new();
            let mut programs = Vec::new();
            for (ai, &app) in all_apps().iter().enumerate() {
                let req = ai as u64;
                let (w, _) = tr.span("workloads", "kernel", req, || {
                    kernel(app, opts.scale.into(), opts.threads, opts.seed)
                });
                let dry = opts.machine_for(DetectorConfig::Cord { d: 16 });
                let (campaign, _) = tr.span("inject", "Campaign::plan", req, || {
                    Campaign::plan(&dry, &w, opts.injections_per_app, opts.seed ^ app as u64)
                });
                let mut sweep = AppSweep {
                    app: w.name().to_string(),
                    acquire_instances: 0,
                    release_instances: 0,
                    dry_run_error: None,
                    runs: Vec::new(),
                };
                match campaign {
                    Err(e) => sweep.dry_run_error = Some(e.to_string()),
                    Ok(c) => {
                        sweep.acquire_instances = c.counts.acquires;
                        sweep.release_instances = c.counts.releases;
                        for (ri, &target) in c.targets.iter().enumerate() {
                            let seed = run_seed(&opts, ri);
                            let mut run = |config: DetectorConfig, tr: &mut Tracer| {
                                let mc = opts.machine_for(config);
                                let (out, id) = tr.span("detectors", "run_detector", req, || {
                                    sims::detector_run(config, &mc, &w, seed, target.plan())
                                });
                                cells.push((id, config, ai, seed, target.plan()));
                                out.map(|(_, det)| Detection {
                                    races: det.race_count(),
                                })
                            };
                            let record = (|| -> Result<_, SimError> {
                                let ideal = run(DetectorConfig::Ideal, tr)?;
                                let mut detections = BTreeMap::new();
                                for &config in &self.configs {
                                    let d = if config == DetectorConfig::Ideal {
                                        ideal
                                    } else {
                                        run(config, tr)?
                                    };
                                    detections.insert(config.label(), d);
                                }
                                Ok((ideal, detections))
                            })();
                            sweep.runs.push(record_of(target, record));
                        }
                    }
                }
                apps.push(sweep);
                programs.push(w);
            }
            let results = SweepResults {
                options: opts,
                apps,
            };
            let (round, _) = tr.span("sweep", "SweepResults::to_json", 0, || summarize(&results));
            (round, programs)
        });
        // A share of a run that failed fails the same way; the round
        // already counts that run.
        for (id, config, ai, seed, plan) in cells {
            let _ = tr.share(id, "sim", "Machine::run(NullObserver)", ai as u64, || {
                sims::null_run(&opts.machine_for(config), &programs[ai], seed, plan)
            });
        }
        round.wall_s = tr.seconds(root);
        (round, root)
    }

    fn sim_time_pct(&self, input: &SweepInput) -> Result<f64, String> {
        let machine = input.opts.machine_for(DetectorConfig::Cord { d: 16 });
        sims::sim_time_pct(&input.programs, &machine, input.opts.seed).map_err(|e| e.to_string())
    }

    fn probe_set(&self, input: &SweepInput) -> ProbeSet {
        let opts = input.opts;
        ProbeSet {
            build: Box::new(move || build(&opts)),
            opts,
            configs: self.configs.clone(),
        }
    }
}

/// A run's record exactly as the sweep runner writes it.
fn record_of(
    target: cord_inject::InjectionTarget,
    outcome: Result<(Detection, BTreeMap<String, Detection>), SimError>,
) -> RunRecord {
    match outcome {
        Ok((ideal, detections)) => RunRecord {
            target,
            status: RunStatus::Completed,
            detail: None,
            ideal: Some(ideal),
            detections,
        },
        Err(e) => RunRecord {
            target,
            status: match e {
                SimError::Deadlock { .. } => RunStatus::Deadlocked,
                _ => RunStatus::TimedOut,
            },
            detail: Some(e.to_string()),
            ideal: None,
            detections: BTreeMap::new(),
        },
    }
}
