//! The sweep runs the passive detectors that share a machine
//! configuration (Ideal with InfCache, L2Cache with L1Cache) on one
//! simulation. That must be invisible: every detection of a full sweep
//! equals what the single-configuration path finds on a run of its own,
//! on injected and clean runs alike.

use cord::inject::InjectionTarget;
use cord::sim::engine::InjectionPlan;
use cord::workloads::{kernel, AppKind};
use cord_bench::runner::SweepRunner;
use cord_bench::sweep::{run_seed, RunRecord, ScaleClassOpt, SweepOptions};
use cord_bench::DetectorConfig;

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
