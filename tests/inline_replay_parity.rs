//! Inline detection and capture replay are the same computation: a
//! detector driven live by the simulator and a fresh detector fed the
//! captured event stream must drain to byte-identical reports.

use cord::core::{CaptureObserver, DetectorSink, ObsCtx, SinkObserver};
use cord::detectors::DetectorConfig;
use cord::inject::Campaign;
use cord::sim::engine::{InjectionPlan, Machine};
use cord::workloads::{kernel, AppKind, ScaleClass};

#[test]
fn inline_and_replayed_reports_are_byte_identical_for_every_config() {
    const THREADS: usize = 4;
    const SEED: u64 = 3;
    let w = kernel(AppKind::Fft, ScaleClass::Tiny, THREADS, SEED);
    let dry = DetectorConfig::Cord { d: 16 }.machine();
    let campaign = Campaign::plan(&dry, &w, 1, SEED).expect("dry run completes");
    let injected = campaign.targets[0].plan();

    let mut most_races = 0;
    for config in DetectorConfig::all_for_sweep()
        .into_iter()
        .chain([DetectorConfig::Ideal])
    {
        for plan in [InjectionPlan::none(), injected] {
            let mc = config.machine();
            let cores = mc.cores;
            let sink = config.build_sink(THREADS, cores, SEED, ObsCtx::disabled());
            let obs = CaptureObserver::new(SinkObserver::new(sink));
            let (_, obs) = Machine::new(mc, &w, obs, SEED, plan)
                .run()
                .expect("run completes");
            let (adapter, events) = obs.into_parts();
            let mut inline = adapter.into_inner();
            let inline_count = inline.race_count();
            let inline_report = inline.drain();
            assert_eq!(inline_count, inline_report.race_count, "{config:?} inline");

            let mut replayed = config.build_sink(THREADS, cores, SEED, ObsCtx::disabled());
            for ev in &events {
                replayed.ingest(ev);
            }
            replayed.flush();
            let replayed_count = replayed.race_count();
            let replayed_report = replayed.drain();
            assert_eq!(
                replayed_count, replayed_report.race_count,
                "{config:?} replayed"
            );
            assert_eq!(
                inline_report.to_bytes(),
                replayed_report.to_bytes(),
                "{config:?} with {plan:?}: replay diverged from inline detection"
            );
            if plan == injected {
                most_races = most_races.max(inline_count);
            }
        }
    }
    assert!(
        most_races >= 1,
        "no detector caught the injected race, so the comparison above was vacuous"
    );
}
