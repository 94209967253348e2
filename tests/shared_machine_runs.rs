//! The sweep runs the passive detectors that share a machine
//! configuration (Ideal with InfCache, L2Cache with L1Cache) on one
//! simulation, and runs every cell of an equal machine on one shared
//! simulation until the retirement stalls their bus charges cause
//! differ, forking there. That must be invisible: every detection of a
//! full sweep equals what the single-configuration path finds on a run
//! of its own, on injected and clean runs alike.

use cord::core::{DetectorSink, ObsCtx, SinkObserver};
use cord::inject::InjectionTarget;
use cord::sim::engine::{InjectionPlan, Machine, SimError};
use cord::sim::observer::NullObserver;
use cord::sim::{SharedRun, SimStats};
use cord::workloads::{kernel, AppKind};
use cord_bench::runner::SweepRunner;
use cord_bench::sweep::{run_seed, RunRecord, ScaleClassOpt, SweepOptions};
use cord_bench::DetectorConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn shared_machine_runs_detect_exactly_what_separate_runs_do() {
    let opts = SweepOptions {
        injections_per_app: 3,
        scale: ScaleClassOpt::Tiny,
        threads: 4,
        seed: 2006,
        ..SweepOptions::default()
    };
    let apps = [AppKind::Fft, AppKind::WaterN2];
    let configs = DetectorConfig::all_for_sweep();
    let runner = SweepRunner::new(opts).apps(&apps);
    let results = runner.run(&configs).expect("checkpoint-less sweep");

    let mut ideal_races = 0;
    for (&app, sweep) in apps.iter().zip(&results.apps) {
        let workload = kernel(app, opts.scale.into(), opts.threads, opts.seed);
        for (i, injected) in sweep.runs.iter().enumerate() {
            // An acquire instance no run reaches removes nothing, so
            // this rerun is the clean run with the same seed.
            let clean = runner.rerun(app, InjectionTarget::Acquire(u64::MAX), i, &configs);
            let cases: [(&RunRecord, InjectionPlan); 2] = [
                (injected, injected.target.plan()),
                (&clean, InjectionPlan::none()),
            ];
            for (record, plan) in cases {
                assert!(record.status.is_completed(), "{app:?} run {i}");
                let alone = |config| {
                    runner
                        .run_detector(config, &workload, run_seed(&opts, i), plan)
                        .expect("run completes")
                };
                assert_eq!(record.ideal, Some(alone(DetectorConfig::Ideal)));
                for &config in &configs {
                    assert_eq!(
                        record.detections.get(&config.label()).copied(),
                        Some(alone(config)),
                        "{app:?} run {i}, {}",
                        config.label()
                    );
                }
                ideal_races += record.ideal.map_or(0, |d| d.races);
            }
        }
    }
    assert!(
        ideal_races > 0,
        "no run raced, so the comparison is vacuous"
    );
}

/// Runs the four CORD-D variants on `app` (Small, seed 2006, run 0,
/// the first acquire removed) as cells of one shared run and each on its
/// own, asserts that every variant ends exactly like its own `run_stats`
/// run, and returns the shared run's accounting, the steps of one run
/// alone, each variant's statistics and the races they found together.
fn cord_d_variants(app: AppKind) -> (SharedRun, u64, Vec<SimStats>, u64) {
    let opts = SweepOptions {
        scale: ScaleClassOpt::Small,
        threads: 4,
        seed: 2006,
        ..SweepOptions::default()
    };
    let workload = kernel(app, opts.scale.into(), opts.threads, opts.seed);
    let seed = run_seed(&opts, 0);
    let plan = InjectionPlan::remove_nth(1);
    let variants = [1, 4, 16, 256].map(|d| DetectorConfig::Cord { d });
    let machine = opts.machine_for(variants[0]);
    let sink = |config: DetectorConfig| {
        SinkObserver::new(config.build_sink(
            workload.num_threads(),
            machine.cores,
            seed,
            ObsCtx::disabled(),
        ))
    };
    let new_machine = || Machine::new(machine.clone(), &workload, NullObserver, seed, plan);
    let mut shared = vec![None; variants.len()];
    let run = new_machine().run_cells(variants.iter().map(|&c| sink(c)).collect(), |i, r| {
        let (stats, det) = r.expect("the injected run completes");
        shared[i] = Some((stats, det.sink().race_count()));
    });
    let one = new_machine().run_cells(vec![sink(variants[0])], |_, r| {
        r.expect("the injected run completes");
    });
    let mut races = 0;
    let mut stats = Vec::new();
    for (i, &config) in variants.iter().enumerate() {
        let alone = Machine::new(machine.clone(), &workload, sink(config), seed, plan);
        let (s, det) = alone.run_stats().expect("the injected run completes");
        races += det.sink().race_count();
        assert_eq!(
            shared[i],
            Some((s.clone(), det.sink().race_count())),
            "{app:?}, {}",
            config.label()
        );
        stats.push(s);
    }
    (run, one.steps, stats, races)
}

/// At some access the four CORD-D variants stall Cholesky's machine
/// differently, so a shared run of all four must fork; every variant
/// must still end exactly like its own `run_stats` run.
#[test]
fn cord_d_variants_fork_and_each_ends_like_its_own_run() {
    let (run, _, _, races) = cord_d_variants(AppKind::Cholesky);
    assert!(run.forks >= 1, "the variants never split: {run:?}");
    assert!(races > 0, "no variant found a race, so the check is weak");
}

/// On Water-N2 the CORD-D variants charge the timestamp bus differently
/// but none ever stalls retirement, so all four share one simulation
/// from start to finish, and each still gets its own bus accounts.
#[test]
fn cord_d_variants_that_never_stall_share_one_run_to_the_end() {
    let (run, one, stats, races) = cord_d_variants(AppKind::WaterN2);
    assert_eq!(run.forks, 0, "{run:?}");
    assert_eq!(run.steps, one, "one run's steps");
    for (a, sa) in stats.iter().enumerate() {
        for sb in &stats[a + 1..] {
            assert_eq!(sa.cycles, sb.cycles);
            assert_ne!(sa.observer_addr_transactions, sb.observer_addr_transactions);
            assert_ne!(sa.ts_bus_busy, sb.ts_bus_busy);
        }
    }
    assert!(races > 0, "no variant found a race, so the check is weak");
}

/// Under spin waits a removed release strands its waiters, so runs fail,
/// and the panic probe panics on odd run seeds. A record must carry the
/// failure of the first group, in the sweep's group order, whose own run
/// fails: what running the groups one after another reports, though the
/// paper machine's cells share a run.
#[test]
fn failed_shared_runs_report_the_first_failing_groups_error() {
    let opts = SweepOptions {
        injections_per_app: 10,
        scale: ScaleClassOpt::Tiny,
        threads: 4,
        seed: 2006,
        include_releases: true,
        spin_waits: Some(200),
        ..SweepOptions::default()
    };
    let apps = [AppKind::Lu, AppKind::Radix];
    let mut configs = DetectorConfig::all_for_sweep();
    configs.push(DetectorConfig::PanicProbe);
    // The group leaders in the sweep's order: InfCache follows Ideal on
    // its machine and L1Cache follows L2Cache, so each fails with its
    // leader.
    let leaders = [
        DetectorConfig::Ideal,
        DetectorConfig::Cord { d: 1 },
        DetectorConfig::Cord { d: 4 },
        DetectorConfig::Cord { d: 16 },
        DetectorConfig::Cord { d: 256 },
        DetectorConfig::VcL2Cache,
        DetectorConfig::PanicProbe,
    ];
    let runner = SweepRunner::new(opts).apps(&apps);
    let results = runner.run(&configs).expect("checkpoint-less sweep");
    let mut failed = 0;
    for (&app, sweep) in apps.iter().zip(&results.apps) {
        let workload = kernel(app, opts.scale.into(), opts.threads, opts.seed);
        for (i, record) in sweep.runs.iter().enumerate() {
            let plan = record.target.plan();
            let first_failure = leaders.iter().find_map(|&config| {
                let alone = catch_unwind(AssertUnwindSafe(|| {
                    runner.run_detector(config, &workload, run_seed(&opts, i), plan)
                }));
                match alone {
                    Ok(Ok(_)) => None,
                    Ok(Err(SimError::Deadlock { .. })) => Some(("deadlocked", alone)),
                    Ok(Err(_)) => Some(("timed-out", alone)),
                    Err(_) => Some(("panicked", alone)),
                }
            });
            let Some((kind, alone)) = first_failure else {
                assert!(record.status.is_completed(), "{app:?} run {i}");
                continue;
            };
            failed += 1;
            assert_eq!(record.status.kind(), kind, "{app:?} run {i}");
            let detail = alone.ok().and_then(|r| r.err()).map(|e| e.to_string());
            assert_eq!(record.detail, detail, "{app:?} run {i}");
        }
    }
    assert!(failed >= 2, "{failed} runs failed, so the check is weak");
}
