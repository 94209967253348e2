//! Acceptance battery for the lock-free workload family: every kernel
//! is race-free by construction under the full differential oracle on
//! both coherence backends, and §3.4-style injection produces at least
//! one ground-truth race that CORD itself reports. The lock-free table
//! takes its ground truth from an Ideal follower on a CORD-led fan-out;
//! this battery pins that verdict to the reference happens-before
//! recorder on every injected run.

use cord_bench::DetectorConfig;
use cord_core::{CordConfig, CordDetector, DetectorSink, FanOutObserver, ObsCtx, SinkObserver};
use cord_fuzz::oracle::{check_workload, OracleOptions};
use cord_fuzz::truthhb::{racy_words, Tandem};
use cord_inject::count_instances;
use cord_sim::config::{CoherenceKind, MachineConfig, Watchdog};
use cord_sim::engine::{InjectionPlan, Machine};
use cord_workloads::{kernel, lockfree_apps, ScaleClass};
use std::collections::BTreeSet;

const BACKENDS: [CoherenceKind; 2] = [CoherenceKind::SnoopingBus, CoherenceKind::Directory];

fn machine(backend: CoherenceKind) -> MachineConfig {
    MachineConfig::paper_4core()
        .with_coherence(backend)
        .with_watchdog(Watchdog::new(50_000_000, 6_000_000))
}

#[test]
fn lockfree_apps_pass_the_full_battery_clean_on_both_backends() {
    for app in lockfree_apps() {
        for backend in BACKENDS {
            let w = kernel(app, ScaleClass::Tiny, 4, 7);
            let opts = OracleOptions {
                expect_race_free: true,
                max_injections: 0,
                backend,
                ..OracleOptions::default()
            };
            let report = check_workload(&w, &opts);
            assert!(
                report.passed(),
                "{} on {backend:?}: {:?}",
                app.name(),
                report.violations
            );
            assert_eq!(
                report.truth_races,
                0,
                "{} on {backend:?} has ground-truth races",
                app.name()
            );
        }
    }
}

#[test]
fn every_injected_lockfree_app_yields_a_cord_reported_race() {
    for app in lockfree_apps() {
        for backend in BACKENDS {
            let w = kernel(app, ScaleClass::Tiny, 4, 7);
            let threads = w.num_threads();
            let cfg = machine(backend);
            let counts = count_instances(&cfg, &w, 7).expect("dry run");
            assert!(
                counts.acquires > 0,
                "{} has no removable sync instances",
                app.name()
            );
            let mut truth_racy = 0usize;
            let mut cord_caught = 0usize;
            for n in 0..counts.acquires {
                let det = CordDetector::new(CordConfig::paper(), threads, cfg.cores);
                let m = Machine::new(
                    cfg.clone(),
                    &w,
                    Tandem::new(det),
                    7,
                    InjectionPlan::remove_nth(n),
                );
                let reference = m.run();
                // The lock-free table's run: CORD-D16 leads, Ideal follows.
                let members = [DetectorConfig::Cord { d: 16 }, DetectorConfig::Ideal].map(|c| {
                    SinkObserver::new(c.build_sink(threads, cfg.cores, 7, ObsCtx::disabled()))
                });
                let fan = FanOutObserver::new(members.into());
                let led = Machine::new(cfg.clone(), &w, fan, 7, InjectionPlan::remove_nth(n)).run();
                assert_eq!(
                    reference.is_ok(),
                    led.is_ok(),
                    "{} on {backend:?}, removal {n}: the fan-out changed how the run ended",
                    app.name()
                );
                let (Ok((_, tandem)), Ok((_, fan))) = (reference, led) else {
                    // Removing synchronization may deadlock; tolerated.
                    continue;
                };
                let truth = racy_words(&tandem.rec.events, threads, &BTreeSet::new());
                let members = fan.into_members();
                let (cord, ideal) = (members[0].sink(), members[1].sink());
                assert_eq!(
                    ideal.race_count() > 0,
                    !truth.is_empty(),
                    "{} on {backend:?}, removal {n}: the Ideal follower disagrees with the reference",
                    app.name()
                );
                assert_eq!(
                    cord.race_count(),
                    tandem.det.races().len() as u64,
                    "{} on {backend:?}, removal {n}: the leading CORD saw a different run",
                    app.name()
                );
                if truth.is_empty() {
                    continue;
                }
                truth_racy += 1;
                if !tandem.det.races().is_empty() {
                    cord_caught += 1;
                }
            }
            assert!(
                truth_racy > 0,
                "{} on {backend:?}: no injection produced a ground-truth race",
                app.name()
            );
            assert!(
                cord_caught > 0,
                "{} on {backend:?}: CORD reported none of the {truth_racy} injected races",
                app.name()
            );
        }
    }
}
