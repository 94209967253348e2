//! Golden-determinism snapshot: pins the full observable behaviour of
//! the engine + detector stack — per-run simulator statistics, detector
//! race counts, ground-truth thread hashes, and the order-log byte
//! stream — for a small (app × seed × injection) matrix against a
//! committed fixture.
//!
//! Any engine or detector refactor that changes a single counter, a
//! single clock update, or a single log byte fails this test with a
//! JSON diff instead of relying on tier-1 tests alone.
//!
//! To regenerate the fixture after an *intentional* behaviour change:
//!
//! ```sh
//! GOLDEN_UPDATE=1 cargo test -p cord-bench --test golden_determinism
//! ```

use cord_core::{encode_log, CordConfig, CordDetector, DetectorSink};
use cord_detectors::{IdealDetector, VcConfig, VcLimitedDetector};
use cord_json::{obj, Json, ToJson};
use cord_obs::MetricsRegistry;
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine};
use cord_sim::truth::{fnv_fold, FNV_OFFSET};
use cord_workloads::{kernel, AppKind, ScaleClass};
use std::path::PathBuf;

const THREADS: usize = 4;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_runs.json")
}

/// FNV-1a over a byte stream of 8-byte records.
fn hash_bytes(bytes: &[u8]) -> u64 {
    assert!(bytes.len().is_multiple_of(8), "log records are 8 bytes");
    let mut h = FNV_OFFSET;
    for chunk in bytes.chunks_exact(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = fnv_fold(h, u64::from_le_bytes(word));
    }
    h
}

/// One CORD run: stats + races + order-log bytes + ground truth.
fn cord_cell(w: &cord_trace::program::Workload, seed: u64, plan: InjectionPlan) -> Json {
    let det = CordDetector::new(CordConfig::paper(), w.num_threads(), 4);
    let m = Machine::new(MachineConfig::paper_4core(), w, det, seed, plan);
    let (out, det) = m.run().expect("golden matrix runs complete");
    let mut reg = MetricsRegistry::default();
    out.stats.record_into(&mut reg);
    det.stats().record_into(&mut reg);
    let log = encode_log(det.recorder().entries());
    obj(vec![
        ("races", det.race_count().to_json()),
        ("log_bytes", (log.len() as u64).to_json()),
        ("log_hash", hash_bytes(&log).to_json()),
        ("thread_hashes", out.truth.thread_hashes.to_json()),
        ("metrics", reg.to_json()),
    ])
}

/// Race count of one comparison detector on the same run.
fn races_of<D: DetectorSink>(
    machine: MachineConfig,
    w: &cord_trace::program::Workload,
    det: D,
    seed: u64,
    plan: InjectionPlan,
) -> Json {
    let m = Machine::new(machine, w, det, seed, plan);
    let (_, det) = m.run().expect("golden matrix runs complete");
    det.race_count().to_json()
}

fn snapshot() -> String {
    let mut cells = Vec::new();
    for app in [AppKind::Fft, AppKind::WaterN2] {
        for seed in [11u64, 12] {
            let w = kernel(app, ScaleClass::Tiny, THREADS, seed);
            for (plan_name, plan) in [
                ("none", InjectionPlan::none()),
                ("rm1", InjectionPlan::remove_nth(1)),
            ] {
                let key = format!("{}-s{}-{}", w.name(), seed, plan_name);
                let ideal = races_of(
                    MachineConfig::infinite_cache(),
                    &w,
                    IdealDetector::new(w.num_threads()),
                    seed,
                    plan,
                );
                let vc_l2 = races_of(
                    MachineConfig::paper_4core(),
                    &w,
                    VcLimitedDetector::new(VcConfig::l2_cache(), w.num_threads(), 4),
                    seed,
                    plan,
                );
                let vc_inf = races_of(
                    MachineConfig::infinite_cache(),
                    &w,
                    VcLimitedDetector::new(VcConfig::inf_cache(), w.num_threads(), 4),
                    seed,
                    plan,
                );
                let cell = obj(vec![
                    ("cord", cord_cell(&w, seed, plan)),
                    ("ideal_races", ideal),
                    ("vc_l2_races", vc_l2),
                    ("vc_inf_races", vc_inf),
                ]);
                cells.push((key, cell));
            }
        }
    }
    Json::Object(cells).to_string_pretty()
}

#[test]
fn golden_matrix_matches_fixture() {
    let current = snapshot();
    let path = fixture_path();
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &current).expect("write fixture");
        eprintln!("golden fixture updated: {}", path.display());
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with GOLDEN_UPDATE=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        current, pinned,
        "engine/detector behaviour diverged from the pinned seed snapshot; \
         if the change is intentional, regenerate with GOLDEN_UPDATE=1"
    );
}

#[test]
fn snapshot_is_deterministic_across_processes_stand_in() {
    // Two in-process evaluations must agree byte-for-byte (guards
    // against HashMap-iteration-order leaking into the snapshot).
    assert_eq!(snapshot(), snapshot());
}
