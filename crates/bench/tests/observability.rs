//! Acceptance tests for the observability layer (trace/metrics
//! export): enabling it must not perturb sweep results by a single
//! byte, the aggregate metrics must reconcile with the per-run
//! detections, and the trace files must carry well-formed events.

use cord_bench::runner::SweepRunner;
use cord_bench::sweep::{ScaleClassOpt, SweepOptions};
use cord_bench::DetectorConfig;
use cord_json::{FromJson, Json, ToJson};
use cord_obs::MetricsRegistry;
use cord_workloads::AppKind;
use std::fs;
use std::path::PathBuf;

fn quick_opts() -> SweepOptions {
    SweepOptions {
        injections_per_app: 3,
        scale: ScaleClassOpt::Tiny,
        threads: 4,
        seed: 2006,
        ..SweepOptions::default()
    }
}

const APPS: [AppKind; 2] = [AppKind::WaterN2, AppKind::Fft];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cord-obs-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn observability_is_out_of_band_and_metrics_reconcile() {
    let dir = temp_dir("sweep");
    let trace_dir = dir.join("traces");
    let metrics_path = dir.join("metrics.json");
    let cfgs = vec![DetectorConfig::Cord { d: 16 }];

    let plain = SweepRunner::new(quick_opts())
        .apps(&APPS)
        .jobs(2)
        .run(&cfgs)
        .expect("plain sweep");
    let observed = SweepRunner::new(quick_opts())
        .apps(&APPS)
        .jobs(2)
        .trace_dir(&trace_dir)
        .metrics_out(&metrics_path)
        .run(&cfgs)
        .expect("observed sweep");

    // Observability must be invisible in the results: same structs,
    // same JSON bytes.
    assert_eq!(plain, observed);
    assert_eq!(
        plain.to_json().to_string_pretty(),
        observed.to_json().to_string_pretty(),
        "enabling trace/metrics changed the sweep output"
    );

    // The aggregate metrics reconcile with the per-run records: the
    // CORD detector's summed race reports equal the sum of the
    // CORD-D16 detections over completed runs (the only CordDetector
    // in this sweep), and every completed run contributed exactly two
    // simulations (Ideal + CORD-D16).
    let doc = Json::parse(&fs::read_to_string(&metrics_path).expect("metrics file"))
        .expect("metrics JSON parses");
    let reg = MetricsRegistry::from_json(doc.field("metrics").expect("metrics field"))
        .expect("registry decodes");
    let completed: u64 = observed
        .apps
        .iter()
        .map(|a| a.completed().count() as u64)
        .sum();
    assert!(completed > 0, "sweep produced no completed runs");
    let cord_races: u64 = observed
        .apps
        .iter()
        .map(|a| a.races_found("CORD-D16"))
        .sum();
    assert_eq!(reg.counter("cord.data_races"), cord_races);
    assert_eq!(reg.counter("sim.runs"), 2 * completed);
    assert!(reg.counter("sim.cycles") > 0);
    assert_eq!(reg.counter("sweep.jobs_profiled"), completed);
    assert!(reg.gauge_value("sweep.job_run_mean_s").is_some());
    assert!(reg.gauge_value("pool.utilization").is_some());

    // Trace files: one per (app, run, config) cell, each a JSON object
    // with a dropped counter and cycle-stamped, kind-tagged events.
    let mut trace_files: Vec<PathBuf> = fs::read_dir(&trace_dir)
        .expect("trace dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    trace_files.sort();
    let per_run_configs = 2; // Ideal + CORD-D16
    assert_eq!(
        trace_files.len() as u64,
        completed * per_run_configs,
        "one trace file per completed (run, config) cell"
    );
    let sample = Json::parse(&fs::read_to_string(&trace_files[0]).expect("trace file"))
        .expect("trace JSON parses");
    let events = sample
        .field("events")
        .expect("events field")
        .as_array()
        .expect("events array");
    assert!(!events.is_empty(), "trace captured no events");
    for e in events {
        // Cycle stamps are per-event (cores interleave, so the stream
        // is not globally sorted); they just have to decode.
        u64::from_json(e.field("cycle").expect("cycle")).expect("cycle u64");
        let kind = e.field("kind").expect("kind").as_str().expect("kind str");
        assert!(
            [
                "bus",
                "fill",
                "remove",
                "race_check",
                "memts_broadcast",
                "walker_pass",
                "injection",
                "migration",
                "race"
            ]
            .contains(&kind),
            "unknown event kind {kind:?}"
        );
    }
    u64::from_json(sample.field("dropped").expect("dropped")).expect("dropped u64");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn metrics_without_tracing_writes_no_trace_files() {
    let dir = temp_dir("metrics-only");
    let metrics_path = dir.join("metrics.json");
    let cfgs = vec![DetectorConfig::Cord { d: 16 }];
    SweepRunner::new(quick_opts())
        .apps(&APPS[..1])
        .metrics_out(&metrics_path)
        .run(&cfgs)
        .expect("metrics-only sweep");
    assert!(metrics_path.is_file());
    // Only the metrics file exists in the temp dir — no traces.
    let entries: Vec<_> = fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(entries, vec![std::ffi::OsString::from("metrics.json")]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn grouped_and_per_cell_runs_count_the_same_metrics() {
    // With metrics alone, passive configurations on equal machines share
    // one simulation; a trace directory forces one simulation per cell.
    // Either way the `sim.*` counters count (run, config) cells: a shared
    // run's statistics are merged once per member.
    let dir = temp_dir("grouping");
    let grouped_path = dir.join("grouped.json");
    let per_cell_path = dir.join("per-cell.json");
    let cfgs = DetectorConfig::all_for_sweep();
    let grouped = SweepRunner::new(quick_opts())
        .apps(&APPS)
        .metrics_out(&grouped_path)
        .run(&cfgs)
        .expect("grouped sweep");
    let per_cell = SweepRunner::new(quick_opts())
        .apps(&APPS)
        .trace_dir(dir.join("traces"))
        .metrics_out(&per_cell_path)
        .run(&cfgs)
        .expect("per-cell sweep");
    assert_eq!(grouped, per_cell);

    let counters = |path: &PathBuf| {
        let doc = Json::parse(&fs::read_to_string(path).expect("metrics file"))
            .expect("metrics JSON parses");
        MetricsRegistry::from_json(doc.field("metrics").expect("metrics field"))
            .expect("registry decodes")
            .counters()
            .clone()
    };
    let grouped_counters = counters(&grouped_path);
    assert_eq!(grouped_counters, counters(&per_cell_path));
    let completed: u64 = grouped
        .apps
        .iter()
        .map(|a| a.completed().count() as u64)
        .sum();
    assert!(completed > 0, "sweep produced no completed runs");
    let cells_per_run = cfgs.len() as u64 + 1; // the configs plus Ideal
    assert_eq!(grouped_counters["sim.runs"], cells_per_run * completed);

    let _ = fs::remove_dir_all(&dir);
}
