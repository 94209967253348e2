//! End-to-end tests for the multi-process sharded campaign driver
//! (`shard` binary): byte-identity across shard counts, chaos-kill
//! recovery, forced abandonment with partial accounting, resume, and
//! agreement with the in-process `SweepRunner`.

use cord_bench::runner::SweepRunner;
use cord_bench::sweep::{RunStatus, ScaleClassOpt, SweepOptions, SweepResults};
use cord_bench::DetectorConfig;
use cord_json::{FromJson, Json, ToJson};
use cord_workloads::AppKind;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_shard");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cord-shard-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_shard(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).env_remove("CORD_SHARD_FAIL_SHARDS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn shard binary")
}

fn assert_status(out: &Output, want: i32) {
    assert_eq!(
        out.status.code(),
        Some(want),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn fuzz_args<'a>(dir: &'a str, shards: &'a str) -> Vec<&'a str> {
    vec![
        "fuzz",
        "--dir",
        dir,
        "--shards",
        shards,
        "--count",
        "24",
        "--short",
        "--seed",
        "7",
        "--worker-jobs",
        "2",
        "--poll-ms",
        "5",
    ]
}

#[test]
fn sharded_fuzz_is_byte_identical_across_shard_counts() {
    let root = temp_dir("fuzz-bytes");
    let (d1, d3) = (root.join("s1"), root.join("s3"));
    let (d1s, d3s) = (d1.to_str().expect("utf8"), d3.to_str().expect("utf8"));
    assert_status(&run_shard(&fuzz_args(d1s, "1"), &[]), 0);
    assert_status(&run_shard(&fuzz_args(d3s, "3"), &[]), 0);
    for name in ["report.txt", "metrics.json"] {
        assert_eq!(
            read(&d1.join("merged").join(name)),
            read(&d3.join("merged").join(name)),
            "{name} differs between --shards 1 and --shards 3"
        );
    }
    let report = read(&d1.join("merged/report.txt"));
    assert!(
        report.contains("24 of 24 cases"),
        "unexpected report: {report}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn chaos_kills_recover_to_identical_bytes() {
    let root = temp_dir("chaos");
    let (clean, chaotic) = (root.join("clean"), root.join("chaotic"));
    let (cs, hs) = (
        clean.to_str().expect("utf8"),
        chaotic.to_str().expect("utf8"),
    );
    assert_status(&run_shard(&fuzz_args(cs, "1"), &[]), 0);
    let mut args = fuzz_args(hs, "2");
    args.extend_from_slice(&["--chaos", "kill-rate=0.8,budget=5,seed=11"]);
    let out = run_shard(&args, &[]);
    assert_status(&out, 0);
    for name in ["report.txt", "metrics.json"] {
        assert_eq!(
            read(&clean.join("merged").join(name)),
            read(&chaotic.join("merged").join(name)),
            "{name} differs after chaos kills"
        );
    }
    // Supervision must have recorded the kills out-of-band.
    let sup = Json::parse(&read(&chaotic.join("merged/supervision.json"))).expect("valid JSON");
    let kills = u64::from_json(
        sup.field("metrics")
            .and_then(|m| m.field("counters"))
            .and_then(|c| c.field("shard.chaos_kills"))
            .expect("chaos kill counter"),
    )
    .expect("counter is u64");
    assert!(kills > 0, "chaos mode never killed a worker");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn abandoned_shards_are_reported_then_resume_completes() {
    let root = temp_dir("abandon");
    let dir = root.join("c");
    let ds = dir.to_str().expect("utf8");
    let mut args = fuzz_args(ds, "3");
    args.extend_from_slice(&["--max-retries", "1"]);
    let out = run_shard(&args, &[("CORD_SHARD_FAIL_SHARDS", "1")]);
    assert_status(&out, 2);
    let partial = read(&dir.join("merged/report.txt"));
    assert!(
        partial.contains("== shard failures ==") && partial.contains("shard 1: abandoned"),
        "partial report does not name the abandoned shard: {partial}"
    );
    // The two healthy shards' work survived.
    assert!(partial.contains("16 of 24 cases"), "{partial}");

    let resume = run_shard(&["resume", "--dir", ds, "--poll-ms", "5"], &[]);
    assert_status(&resume, 0);
    let full = read(&dir.join("merged/report.txt"));
    assert!(full.contains("24 of 24 cases"), "{full}");
    assert!(!full.contains("shard failures"), "{full}");

    let reference = root.join("ref");
    assert_status(
        &run_shard(&fuzz_args(reference.to_str().expect("utf8"), "1"), &[]),
        0,
    );
    for name in ["report.txt", "metrics.json"] {
        assert_eq!(
            read(&dir.join("merged").join(name)),
            read(&reference.join("merged").join(name)),
            "{name} differs after abandon + resume"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn mid_campaign_kill_resumes_from_checkpoints() {
    let root = temp_dir("kill-resume");
    let dir = root.join("c");
    let ds = dir.to_str().expect("utf8");
    // First invocation is drained almost immediately: the DRAIN marker
    // is the supported stand-in for "the coordinator died" (kill -9 of
    // the whole tree leaves the same on-disk state minus the marker,
    // which the next invocation clears anyway).
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("DRAIN"), "").expect("pre-drain");
    // A pre-existing DRAIN is cleared at startup, so this run starts.
    let args = fuzz_args(ds, "2");
    let drain_dir = dir.clone();
    let killer = std::thread::spawn(move || {
        // Let some chunks land, then request drain mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let _ = fs::write(drain_dir.join("DRAIN"), "");
    });
    let first = run_shard(&args, &[]);
    killer.join().expect("killer thread");
    let code = first.status.code();
    assert!(
        code == Some(4) || code == Some(0),
        "drain run exited {code:?}: {}",
        String::from_utf8_lossy(&first.stderr)
    );

    let resume = run_shard(&["resume", "--dir", ds, "--poll-ms", "5"], &[]);
    assert_status(&resume, 0);
    let reference = root.join("ref");
    assert_status(
        &run_shard(&fuzz_args(reference.to_str().expect("utf8"), "1"), &[]),
        0,
    );
    assert_eq!(
        read(&dir.join("merged/report.txt")),
        read(&reference.join("merged/report.txt")),
        "drained + resumed campaign diverged from the serial run"
    );
    let _ = fs::remove_dir_all(&root);
}

fn sweep_args<'a>(dir: &'a str, shards: &'a str) -> Vec<&'a str> {
    vec![
        "sweep",
        "--dir",
        dir,
        "--shards",
        shards,
        "--apps",
        "fft,radix",
        "--injections",
        "3",
        "--scale",
        "tiny",
        "--seed",
        "13",
        "--threads",
        "4",
        "--worker-jobs",
        "2",
        "--poll-ms",
        "5",
    ]
}

#[test]
fn sharded_sweep_matches_the_in_process_runner() {
    let root = temp_dir("sweep");
    let (d1, d2) = (root.join("s1"), root.join("s2"));
    assert_status(
        &run_shard(&sweep_args(d1.to_str().expect("utf8"), "1"), &[]),
        0,
    );
    assert_status(
        &run_shard(&sweep_args(d2.to_str().expect("utf8"), "2"), &[]),
        0,
    );
    for name in ["results.json", "report.txt", "metrics.json"] {
        assert_eq!(
            read(&d1.join("merged").join(name)),
            read(&d2.join("merged").join(name)),
            "{name} differs between --shards 1 and --shards 2"
        );
    }

    // The merged matrix must be exactly what one in-process SweepRunner
    // produces for the same options.
    let opts = SweepOptions {
        injections_per_app: 3,
        scale: ScaleClassOpt::Tiny,
        threads: 4,
        seed: 13,
        ..SweepOptions::default()
    };
    let direct = SweepRunner::new(opts)
        .apps(&[AppKind::Fft, AppKind::Radix])
        .jobs(2)
        .run(&DetectorConfig::all_for_sweep())
        .expect("direct sweep");
    assert_eq!(
        read(&d1.join("merged/results.json")),
        direct.to_json().to_string_pretty(),
        "sharded results.json diverged from the in-process runner"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn abandoned_sweep_cells_stay_out_of_denominators() {
    let root = temp_dir("sweep-abandon");
    let dir = root.join("c");
    let ds = dir.to_str().expect("utf8");
    let mut args = sweep_args(ds, "2");
    args.extend_from_slice(&["--max-retries", "0"]);
    let out = run_shard(&args, &[("CORD_SHARD_FAIL_SHARDS", "1")]);
    assert_status(&out, 2);

    let results = SweepResults::from_json(
        &Json::parse(&read(&dir.join("merged/results.json"))).expect("json"),
    )
    .expect("decodes");
    let total: usize = results.apps.iter().map(|a| a.runs.len()).sum();
    let completed: usize = results.apps.iter().map(|a| a.completed().count()).sum();
    let abandoned = results
        .apps
        .iter()
        .flat_map(|a| &a.runs)
        .filter(|r| matches!(r.status, RunStatus::Abandoned { .. }))
        .count();
    assert_eq!(total, 6, "matrix lost its shape");
    assert_eq!(abandoned, 3, "shard 1 owns every other cell of 6");
    assert_eq!(completed, total - abandoned, "denominator drifted");
    assert_eq!(
        results.failure_counts().get("abandoned").copied(),
        Some(abandoned),
        "failure taxonomy is missing the abandoned class"
    );
    let report = read(&dir.join("merged/report.txt"));
    assert!(
        report.contains("(3 completed)") && report.contains("abandoned"),
        "report does not separate abandoned work: {report}"
    );

    // Resume heals the matrix completely.
    let resume = run_shard(&["resume", "--dir", ds, "--poll-ms", "5"], &[]);
    assert_status(&resume, 0);
    let healed = SweepResults::from_json(
        &Json::parse(&read(&dir.join("merged/results.json"))).expect("json"),
    )
    .expect("decodes");
    assert_eq!(
        healed
            .apps
            .iter()
            .map(|a| a.completed().count())
            .sum::<usize>(),
        6
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn status_reports_per_shard_progress() {
    let root = temp_dir("status");
    let dir = root.join("c");
    let ds = dir.to_str().expect("utf8");
    assert_status(&run_shard(&fuzz_args(ds, "2"), &[]), 0);
    let out = run_shard(&["status", "--dir", ds], &[]);
    assert_status(&out, 0);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("fuzz (24 cases)"), "{text}");
    assert!(text.contains("shard 0: 12/12 DONE"), "{text}");
    assert!(text.contains("shard 1: 12/12 DONE"), "{text}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn spec_mismatch_is_rejected() {
    let root = temp_dir("spec-mismatch");
    let dir = root.join("c");
    let ds = dir.to_str().expect("utf8");
    assert_status(&run_shard(&fuzz_args(ds, "2"), &[]), 0);
    let mut other = fuzz_args(ds, "2");
    let seed_at = other.iter().position(|a| *a == "7").expect("seed arg");
    other[seed_at] = "8";
    let out = run_shard(&other, &[]);
    assert_status(&out, 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different spec"), "{stderr}");
    let _ = fs::remove_dir_all(&root);
}
