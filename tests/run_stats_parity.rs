//! `Machine::run_stats` is `Machine::run` without ground truth: the
//! same step loop compiled a second time. Dropping the truth must not
//! move one simulated cycle, so on every machine shape and every kind
//! of run — clean, injected, and aborted by the watchdog — the two
//! entry points must report equal statistics, leave the detector with
//! byte-identical findings, and fail with equal errors.

use cord::core::{DetectorSink, ObsCtx, SinkObserver};
use cord::detectors::DetectorConfig;
use cord::inject::Campaign;
use cord::sim::config::{CoherenceKind, MachineConfig, Watchdog};
use cord::sim::engine::{InjectionPlan, Machine, SimError};
use cord::sim::SimStats;
use cord::trace::Workload;
use cord::workloads::{kernel, AppKind, ScaleClass};

const SEED: u64 = 7;

/// One run's observable result: statistics and the detector's drained
/// report bytes, or the abort error.
type Outcome = Result<(SimStats, Vec<u8>), SimError>;

fn outcome(
    machine: &MachineConfig,
    w: &Workload,
    plan: InjectionPlan,
    with_truth: bool,
) -> Outcome {
    let sink = DetectorConfig::Cord { d: 16 }.build_sink(
        w.num_threads(),
        machine.cores,
        SEED,
        ObsCtx::disabled(),
    );
    let m = Machine::new(machine.clone(), w, SinkObserver::new(sink), SEED, plan);
    let (stats, obs) = if with_truth {
        m.run().map(|(out, obs)| (out.stats, obs))?
    } else {
        m.run_stats()?
    };
    Ok((stats, obs.into_inner().drain().to_bytes()))
}

#[test]
fn run_stats_matches_run_on_clean_injected_and_aborted_runs() {
    let machines = [
        ("paper_4core", MachineConfig::paper_4core()),
        ("infinite_cache", MachineConfig::infinite_cache()),
        (
            "directory_8core",
            MachineConfig::paper_4core()
                .with_cores(8)
                .with_coherence(CoherenceKind::Directory),
        ),
    ];
    let mut aborted = 0;
    let mut completed = 0;
    for app in [AppKind::Fft, AppKind::Radix, AppKind::WaterN2] {
        for (name, machine) in &machines {
            let w = kernel(app, ScaleClass::Tiny, machine.cores, SEED);
            let campaign = Campaign::plan(machine, &w, 1, SEED).expect("dry run completes");
            // A removed release strands spinning waiters, which only the
            // watchdog ends — and the widened same-thread fast path is
            // where spinning threads advance time.
            let watched = machine
                .clone()
                .with_spin_waits(50)
                .with_watchdog(Watchdog::new(5_000_000, 20_000));
            let cases = [
                ("clean", machine, InjectionPlan::none()),
                ("injected", machine, campaign.targets[0].plan()),
                (
                    "release removed",
                    &watched,
                    InjectionPlan::remove_release_nth(0),
                ),
            ];
            for (case, mc, plan) in cases {
                let with_truth = outcome(mc, &w, plan, true);
                let without = outcome(mc, &w, plan, false);
                assert_eq!(with_truth, without, "{app:?} on {name}, {case}");
                match with_truth {
                    Ok(_) => completed += 1,
                    Err(_) => aborted += 1,
                }
            }
        }
    }
    assert!(
        completed > 0,
        "no run completed, so stats were never compared"
    );
    assert!(aborted > 0, "no run aborted, so errors were never compared");
}
