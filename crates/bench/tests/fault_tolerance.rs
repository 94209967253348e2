//! Fault-tolerance acceptance tests for the injection-sweep runner:
//! hung and panicked runs become recorded [`RunStatus`] outcomes, the
//! rest of the sweep keeps going, failures reproduce deterministically,
//! and a checkpointed sweep resumes bit-identically.
//!
//! Blocking waits turn a removed release into a deadlock; spin waits
//! turn the same removal into a watchdog-caught livelock. Wait mode is
//! machine-wide ([`SweepOptions::spin_waits`]), so the two hang flavors
//! come from two sweeps over the same 12 apps.

use cord_bench::checkpoint::{options_hash, Checkpoint};
use cord_bench::runner::SweepRunner;
use cord_bench::sweep::{RunStatus, ScaleClassOpt, SweepOptions};
use cord_bench::DetectorConfig;
use cord_workloads::all_apps;

/// A small watchdogged sweep over every app: mixed acquire/release
/// targets plus the deliberately faulty PanicProbe detector.
fn probe_opts(spin: Option<u64>) -> SweepOptions {
    SweepOptions {
        injections_per_app: 6,
        scale: ScaleClassOpt::Tiny,
        threads: 4,
        seed: 2006,
        include_releases: true,
        spin_waits: spin,
        ..SweepOptions::default()
    }
}

fn probe_configs() -> Vec<DetectorConfig> {
    vec![DetectorConfig::Cord { d: 16 }, DetectorConfig::PanicProbe]
}

#[test]
fn spin_sweep_records_timeouts_and_panics_and_still_completes() {
    let opts = probe_opts(Some(200));
    let results = SweepRunner::new(opts)
        .run(&probe_configs())
        .expect("checkpoint-less sweep");
    assert_eq!(results.apps.len(), all_apps().len());

    let counts = results.failure_counts();
    assert!(
        counts.get("timed-out").copied().unwrap_or(0) >= 1,
        "no spin-hang run timed out: {counts:?}"
    );
    assert!(
        counts.get("panicked").copied().unwrap_or(0) >= 1,
        "the panic probe never fired: {counts:?}"
    );
    let completed: usize = results.apps.iter().map(|a| a.completed().count()).sum();
    assert!(completed >= 1, "every run failed: {counts:?}");

    for app in &results.apps {
        assert!(app.dry_run_error.is_none(), "{} dry run failed", app.app);
        for r in &app.runs {
            match &r.status {
                RunStatus::Completed => {
                    assert!(r.ideal.is_some());
                    assert!(r.detections.contains_key("CORD-D16"));
                }
                RunStatus::TimedOut => {
                    let detail = r.detail.as_deref().unwrap_or_default();
                    assert!(
                        detail.contains("livelock") || detail.contains("cycle budget"),
                        "timed-out run lacks watchdog detail: {detail:?}"
                    );
                    assert!(r.detections.is_empty());
                }
                RunStatus::Panicked { msg } => {
                    assert!(
                        msg.contains("panic probe fired"),
                        "unexpected panic payload: {msg:?}"
                    );
                    assert!(r.detections.is_empty());
                }
                RunStatus::Deadlocked => {
                    panic!("spin waits cannot deadlock, got {:?}", r.detail)
                }
                RunStatus::Abandoned { reason } => {
                    panic!("in-process sweeps cannot abandon shards, got {reason:?}")
                }
            }
        }
    }
}

#[test]
fn blocking_sweep_records_deadlocks_and_still_completes() {
    let opts = probe_opts(None);
    let results = SweepRunner::new(opts)
        .run(&[DetectorConfig::Cord { d: 16 }])
        .expect("checkpoint-less sweep");
    let counts = results.failure_counts();
    assert!(
        counts.get("deadlocked").copied().unwrap_or(0) >= 1,
        "no removed release deadlocked its waiter: {counts:?}"
    );
    let completed: usize = results.apps.iter().map(|a| a.completed().count()).sum();
    assert!(completed >= 1, "every run failed: {counts:?}");
    for app in &results.apps {
        for r in app.non_completed() {
            if r.status == RunStatus::Deadlocked {
                let detail = r.detail.as_deref().unwrap_or_default();
                assert!(detail.contains("deadlock"), "detail: {detail:?}");
                // The diagnostics name the wedged threads.
                assert!(
                    detail.contains("thread"),
                    "no stuck-thread diag: {detail:?}"
                );
            }
        }
        // Rates stay well-defined over the completed denominator.
        let rate = app.manifestation_rate();
        assert!((0.0..=1.0).contains(&rate) || rate.is_nan());
    }
}

/// A non-completed run's failure reproduces exactly when re-executed
/// with the sweep's own per-run seed.
#[test]
fn recorded_failures_are_deterministic() {
    let opts = probe_opts(None);
    let configs = [DetectorConfig::Cord { d: 16 }];
    let mut checked = 0;
    for app in all_apps() {
        let runner = SweepRunner::new(opts).apps(&[app]);
        let results = runner.run(&configs).expect("no checkpoint");
        let sweep = &results.apps[0];
        for (i, r) in sweep.runs.iter().enumerate() {
            if r.status.is_completed() {
                continue;
            }
            let again = runner.rerun(app, r.target, i, &configs);
            assert_eq!(&again, r, "{}: run {i} did not reproduce", sweep.app);
            checked += 1;
            break;
        }
        if checked >= 2 {
            return;
        }
    }
    assert!(checked > 0, "no app produced a non-completed run to check");
}

/// The headline acceptance: the probed sweep produces identical
/// `SweepResults` whether run uninterrupted, checkpointed from scratch,
/// or killed after app 6 and resumed from the checkpoint.
#[test]
fn checkpointed_sweep_resumes_bit_identically() {
    let opts = probe_opts(Some(200));
    let configs = probe_configs();
    let dir = std::env::temp_dir().join("cord-fault-tolerance-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let uninterrupted = SweepRunner::new(opts)
        .run(&configs)
        .expect("checkpoint-less sweep");

    let fresh_path = dir.join("fresh.json");
    let _ = std::fs::remove_file(&fresh_path);
    let fresh = SweepRunner::new(opts)
        .checkpoint(&fresh_path)
        .run(&configs)
        .expect("checkpointed sweep");
    assert_eq!(fresh, uninterrupted);
    assert!(fresh_path.exists(), "checkpoint file missing after sweep");

    // Simulate a kill after app 6: seed a checkpoint holding only the
    // first six AppSweeps, then resume.
    let resumed_path = dir.join("resumed.json");
    Checkpoint {
        options_hash: options_hash(&opts, &configs),
        options: opts,
        apps: uninterrupted.apps[..6].to_vec(),
    }
    .store(&resumed_path)
    .expect("seed checkpoint");
    let resumed = SweepRunner::new(opts)
        .checkpoint(&resumed_path)
        .run(&configs)
        .expect("resumed sweep");
    assert_eq!(resumed, uninterrupted);

    // A stale checkpoint (different options) must be ignored, not
    // resumed: the sweep still matches the uninterrupted result.
    let stale_path = dir.join("stale.json");
    let other = SweepOptions { seed: 9999, ..opts };
    Checkpoint {
        options_hash: options_hash(&other, &configs),
        options: other,
        apps: uninterrupted.apps[..6].to_vec(),
    }
    .store(&stale_path)
    .expect("stale checkpoint");
    let restarted = SweepRunner::new(opts)
        .checkpoint(&stale_path)
        .run(&configs)
        .expect("restarted sweep");
    assert_eq!(restarted, uninterrupted);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance guard: every machine a sweep runs on carries a watchdog —
/// no `Machine::run()` in a sweep is unbounded.
#[test]
fn sweep_machines_are_always_watchdogged() {
    for scale in [
        ScaleClassOpt::Tiny,
        ScaleClassOpt::Small,
        ScaleClassOpt::Paper,
    ] {
        let opts = SweepOptions {
            scale,
            ..SweepOptions::default()
        };
        for config in DetectorConfig::all_for_sweep() {
            let machine = opts.machine_for(config);
            assert!(
                machine.watchdog.max_cycles.is_some(),
                "{config:?} at {scale:?} has no cycle budget"
            );
            assert!(
                machine.watchdog.progress_window.is_some(),
                "{config:?} at {scale:?} has no progress window"
            );
        }
    }
}
