//! Multi-process sharded campaigns: the cord-bench side of cord-shard.
//!
//! The `shard` binary runs one campaign (a fuzz campaign or an
//! injection sweep) as a *coordinator* process plus N supervised
//! *worker* processes. This module holds everything both halves share:
//!
//! * [`CampaignSpec`] — the deterministic description of the campaign,
//!   persisted durably as `spec.json` in the campaign directory. Its
//!   [`spec_hash`](CampaignSpec::spec_hash) covers exactly the fields
//!   that influence results (seeds, counts, options, shard count) and
//!   excludes supervision knobs (worker counts, chaos, retries,
//!   timeouts), so a resume may change how the campaign is *driven*
//!   but never what it *computes*.
//! * The on-disk layout ([`CampaignDir`]): `spec.json`, `plan.json`
//!   (sweeps), a `DRAIN` marker, `shards/<s>/{checkpoint.json,
//!   heartbeat,log,DONE}`, and `merged/` outputs.
//! * The worker loop ([`worker_main`]): derive the shard's global
//!   indices from pure arithmetic ([`cord_shard::ShardPlan`]), resume
//!   past whatever its durable checkpoint already holds, run a chunk,
//!   append to the checkpoint crash-atomically, beat the heartbeat,
//!   repeat; finally write the `DONE` marker.
//! * The coordinator ([`coordinate`]): write/verify the spec, plan
//!   sweeps once (workers share one plan, so target sets can never
//!   diverge), wire [`cord_shard::supervise`] to real worker
//!   processes, then merge shard checkpoints into byte-stable outputs.
//!
//! # Byte-identity
//!
//! Merged `report.txt` / `results.json` / `metrics.json` are
//! byte-identical across `--shards 1`, `--shards 8`, and any
//! interleaving of worker kills and resumes, because every case/run
//! keeps its campaign-global index, its seed is a pure function of
//! that index, and merging sorts by it. Wall-clock and supervision
//! data (retries, backoff, per-shard timings) land in a separate
//! `supervision.json`, which is *expected* to differ run to run.
//!
//! A worker killed between its final checkpoint write and its `DONE`
//! marker is respawned, sees a complete checkpoint, rewrites the
//! marker, and exits — and an *orphaned* worker (its coordinator
//! SIGKILLed mid-campaign) racing a successor on the same shard is
//! harmless: both write byte-identical checkpoints via atomic renames.

use crate::obs::ObsSink;
use crate::sweep::{
    plan_apps, run_injection, run_matrix, run_seed, sweep_workload, AppSweep, PlannedApp,
    RunObsCtx, RunRecord, RunStatus, SweepOptions, SweepResults,
};
use cord_detectors::DetectorConfig;
use cord_fuzz::campaign::{run_campaign_cases, CampaignConfig, CampaignReport, CaseReport};
use cord_fuzz::gen::GenConfig;
use cord_fuzz::oracle::OracleOptions;
use cord_fuzz::GenMode;
use cord_inject::InjectionTarget;
use cord_json::{durable, obj, FromJson, Json, JsonError, ToJson};
use cord_obs::MetricsRegistry;
use cord_pool::{lock_unpoisoned, Pool};
use cord_shard::{
    supervise, ChaosConfig, HeartbeatWriter, ShardPlan, ShardStatus, SupervisorConfig, WorkerHooks,
};
use cord_workloads::{all_apps, AppKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable naming shard ids (comma-separated) whose
/// workers must fail immediately — a test hook for exercising the
/// abandonment path deterministically.
pub const FAIL_SHARDS_ENV: &str = "CORD_SHARD_FAIL_SHARDS";

/// FNV-1a, the workspace's standard content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn app_by_name(name: &str) -> Option<AppKind> {
    all_apps().into_iter().find(|a| a.name() == name)
}

fn io_err(msg: impl std::fmt::Display) -> io::Error {
    io::Error::other(msg.to_string())
}

// ---------------------------------------------------------------------
// Campaign specs

/// A sharded fuzz campaign: `count` generator cases over `shards`
/// round-robin shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Master seed; case `i` derives its seed from `(seed, i)`.
    pub seed: u64,
    /// Total cases across all shards.
    pub count: usize,
    /// Generator population.
    pub mode: GenMode,
    /// Use the short generator + trimmed oracle battery (CI scale).
    pub short: bool,
    /// Keep injection re-runs in the battery.
    pub inject: bool,
    /// Keep same-seed rerun checks in the battery.
    pub rerun: bool,
    /// Write shrunk reproducers for failing cases under `corpus/`.
    pub corpus: bool,
    /// Shard count (affects partitioning, never per-case results).
    pub shards: usize,
    /// Worker threads per worker process (results are invariant).
    pub worker_jobs: usize,
}

impl FuzzSpec {
    /// The in-process campaign config a worker runs its slice with.
    pub fn campaign_config(&self, dir: &Path) -> CampaignConfig {
        let mut gen = GenConfig::default();
        let mut oracle = OracleOptions::default();
        let mut shrink_candidates = 300;
        if self.short {
            gen = gen.short();
            oracle.check_rerun = false;
            oracle.max_suppressions = 1;
            oracle.max_injections = 1;
            shrink_candidates = 50;
        }
        if !self.inject {
            oracle.max_injections = 0;
        }
        if !self.rerun {
            oracle.check_rerun = false;
        }
        CampaignConfig {
            master_seed: self.seed,
            count: self.count,
            jobs: self.worker_jobs.max(1),
            mode: self.mode,
            gen,
            oracle,
            shrink_candidates,
            corpus_dir: self.corpus.then(|| dir.join("corpus")),
            budget_secs: None,
        }
    }
}

/// A sharded injection sweep: the (app × run) matrix over `shards`
/// round-robin shards, using [`DetectorConfig::all_for_sweep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Sweep options (scale, per-app injections, seed, threads, …).
    pub opts: SweepOptions,
    /// Applications, in canonical output order.
    pub apps: Vec<AppKind>,
    /// Shard count (affects partitioning, never per-run results).
    pub shards: usize,
    /// Worker threads per worker process (results are invariant).
    pub worker_jobs: usize,
}

/// What a campaign directory runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignSpec {
    /// A differential fuzz campaign.
    Fuzz(FuzzSpec),
    /// An injection sweep.
    Sweep(SweepSpec),
}

impl CampaignSpec {
    /// Shard count of the campaign.
    pub fn shards(&self) -> usize {
        match self {
            CampaignSpec::Fuzz(f) => f.shards.max(1),
            CampaignSpec::Sweep(s) => s.shards.max(1),
        }
    }

    /// The deterministic identity of the campaign: a hash over every
    /// field that influences results (including the shard count, which
    /// fixes the partition a directory was started with) and *no*
    /// supervision knob. Worker-thread counts are excluded — results
    /// are `--jobs`-invariant by construction.
    pub fn spec_hash(&self) -> u64 {
        fnv1a(self.identity_json().to_string_compact().as_bytes())
    }

    fn identity_json(&self) -> Json {
        match self {
            CampaignSpec::Fuzz(f) => obj(vec![
                ("kind", Json::Str("fuzz".into())),
                ("seed", f.seed.to_json()),
                ("count", (f.count as u64).to_json()),
                ("mode", Json::Str(f.mode.name().into())),
                ("short", f.short.to_json()),
                ("inject", f.inject.to_json()),
                ("rerun", f.rerun.to_json()),
                ("corpus", f.corpus.to_json()),
                ("shards", (f.shards as u64).to_json()),
            ]),
            CampaignSpec::Sweep(s) => obj(vec![
                ("kind", Json::Str("sweep".into())),
                ("options", s.opts.to_json()),
                (
                    "apps",
                    Json::Array(s.apps.iter().map(|a| Json::Str(a.name().into())).collect()),
                ),
                ("shards", (s.shards as u64).to_json()),
            ]),
        }
    }

    fn to_doc(&self) -> Json {
        let mut fields = match self.identity_json() {
            Json::Object(f) => f,
            _ => Vec::new(),
        };
        let worker_jobs = match self {
            CampaignSpec::Fuzz(f) => f.worker_jobs,
            CampaignSpec::Sweep(s) => s.worker_jobs,
        };
        fields.push(("worker_jobs".into(), (worker_jobs as u64).to_json()));
        fields.push(("spec_hash".into(), self.spec_hash().to_json()));
        Json::Object(fields)
    }

    fn from_doc(v: &Json) -> Result<CampaignSpec, JsonError> {
        let worker_jobs = u64::from_json(v.field("worker_jobs")?)? as usize;
        let shards = u64::from_json(v.field("shards")?)? as usize;
        let spec = match v.field("kind")?.as_str()? {
            "fuzz" => {
                let mode_name = String::from_json(v.field("mode")?)?;
                CampaignSpec::Fuzz(FuzzSpec {
                    seed: u64::from_json(v.field("seed")?)?,
                    count: u64::from_json(v.field("count")?)? as usize,
                    mode: GenMode::parse(&mode_name)
                        .ok_or_else(|| JsonError::new(format!("unknown mode {mode_name:?}")))?,
                    short: bool::from_json(v.field("short")?)?,
                    inject: bool::from_json(v.field("inject")?)?,
                    rerun: bool::from_json(v.field("rerun")?)?,
                    corpus: bool::from_json(v.field("corpus")?)?,
                    shards,
                    worker_jobs,
                })
            }
            "sweep" => {
                let apps = v
                    .field("apps")?
                    .as_array()?
                    .iter()
                    .map(|a| {
                        let name = a.as_str()?;
                        app_by_name(name)
                            .ok_or_else(|| JsonError::new(format!("unknown app {name:?}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                CampaignSpec::Sweep(SweepSpec {
                    opts: SweepOptions::from_json(v.field("options")?)?,
                    apps,
                    shards,
                    worker_jobs,
                })
            }
            other => return Err(JsonError::new(format!("unknown campaign kind {other:?}"))),
        };
        let recorded = u64::from_json(v.field("spec_hash")?)?;
        if recorded != spec.spec_hash() {
            return Err(JsonError::new(format!(
                "spec hash mismatch: file says {recorded:#x}, fields hash to {:#x}",
                spec.spec_hash()
            )));
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// On-disk layout

/// Path helpers for one campaign directory.
#[derive(Debug, Clone)]
pub struct CampaignDir {
    root: PathBuf,
}

impl CampaignDir {
    /// Wraps `root` (created on demand by the coordinator/worker).
    pub fn new(root: impl Into<PathBuf>) -> CampaignDir {
        CampaignDir { root: root.into() }
    }

    /// The campaign root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The durable campaign spec.
    pub fn spec_path(&self) -> PathBuf {
        self.root.join("spec.json")
    }

    /// The durable sweep plan (absent for fuzz campaigns).
    pub fn plan_path(&self) -> PathBuf {
        self.root.join("plan.json")
    }

    /// Creating this file asks a running coordinator to drain.
    pub fn drain_path(&self) -> PathBuf {
        self.root.join("DRAIN")
    }

    /// One shard's working directory.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.root.join("shards").join(shard.to_string())
    }

    /// One shard's durable checkpoint.
    pub fn shard_checkpoint(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("checkpoint.json")
    }

    /// One shard's heartbeat file.
    pub fn shard_heartbeat(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("heartbeat")
    }

    /// One shard's worker log (stdout+stderr, appended across
    /// attempts).
    pub fn shard_log(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("log")
    }

    /// Fast-path completion marker, written by the worker after its
    /// final checkpoint flush. Completion is still *derived* from the
    /// checkpoint when the marker is missing.
    pub fn shard_done(&self, shard: usize) -> PathBuf {
        self.shard_dir(shard).join("DONE")
    }

    /// Merged, byte-stable campaign outputs.
    pub fn merged(&self, name: &str) -> PathBuf {
        self.root.join("merged").join(name)
    }

    /// Loads the campaign spec, if the directory has one.
    pub fn load_spec(&self) -> io::Result<Option<CampaignSpec>> {
        let load = durable::load_checkpoint(&self.spec_path());
        for w in &load.warnings {
            eprintln!("warning: {w}");
        }
        match load.doc {
            None => Ok(None),
            Some(doc) => CampaignSpec::from_doc(&doc).map(Some).map_err(io_err),
        }
    }
}

// ---------------------------------------------------------------------
// Sweep plan (coordinator plans once; all workers share it)

/// The shared sweep plan: per-app target sets plus the flattened
/// global cell list every shard partitions identically.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Per-app plans, in spec app order.
    pub apps: Vec<PlannedApp>,
}

impl SweepPlan {
    /// The flattened (app index, run index, target) cells, in global
    /// index order — the unit the shard plan partitions.
    pub fn cells(&self) -> Vec<(usize, usize, InjectionTarget)> {
        run_matrix(&self.apps)
    }

    fn to_doc(&self, spec_hash: u64) -> Json {
        obj(vec![
            ("spec_hash", spec_hash.to_json()),
            (
                "apps",
                Json::Array(self.apps.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    fn from_doc(v: &Json, spec_hash: u64) -> Result<SweepPlan, JsonError> {
        let recorded = u64::from_json(v.field("spec_hash")?)?;
        if recorded != spec_hash {
            return Err(JsonError::new(format!(
                "plan.json belongs to spec {recorded:#x}, campaign is {spec_hash:#x}"
            )));
        }
        Ok(SweepPlan {
            apps: v
                .field("apps")?
                .as_array()?
                .iter()
                .map(PlannedApp::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Plans the sweep (one watchdogged dry run per app, fanned over
/// `jobs` threads) — deterministic, so the coordinator can plan once
/// and every worker reuses the same `plan.json`.
pub fn plan_sweep(spec: &SweepSpec, jobs: usize) -> SweepPlan {
    let (_, apps) = plan_apps(&spec.apps, &spec.opts, &Pool::new(jobs.max(1)), |_| {});
    SweepPlan { apps }
}

fn load_plan(dir: &CampaignDir, spec_hash: u64) -> io::Result<SweepPlan> {
    let load = durable::load_checkpoint(&dir.plan_path());
    for w in &load.warnings {
        eprintln!("warning: {w}");
    }
    let doc = load
        .doc
        .ok_or_else(|| io_err(format!("missing {}", dir.plan_path().display())))?;
    SweepPlan::from_doc(&doc, spec_hash).map_err(io_err)
}

// ---------------------------------------------------------------------
// Shard checkpoints (worker-written, durable)

/// A fuzz shard's durable state: completed cases keyed by global index.
#[derive(Debug, Clone, Default)]
struct FuzzShardState {
    cases: BTreeMap<usize, CaseReport>,
}

impl FuzzShardState {
    fn to_doc(&self, spec_hash: u64, shard: usize) -> Json {
        obj(vec![
            ("spec_hash", spec_hash.to_json()),
            ("shard", (shard as u64).to_json()),
            (
                "cases",
                Json::Array(self.cases.values().map(ToJson::to_json).collect()),
            ),
        ])
    }

    fn from_doc(v: &Json, spec_hash: u64) -> Result<FuzzShardState, JsonError> {
        if u64::from_json(v.field("spec_hash")?)? != spec_hash {
            return Err(JsonError::new("checkpoint belongs to a different spec"));
        }
        let mut cases = BTreeMap::new();
        for c in v.field("cases")?.as_array()? {
            let case = CaseReport::from_json(c)?;
            cases.insert(case.index, case);
        }
        Ok(FuzzShardState { cases })
    }
}

/// A sweep shard's durable state: completed cells keyed by global
/// index, each with its record and deterministic per-run metrics.
#[derive(Debug, Clone, Default)]
struct SweepShardState {
    cells: BTreeMap<usize, (RunRecord, MetricsRegistry)>,
}

impl SweepShardState {
    fn to_doc(&self, spec_hash: u64, shard: usize) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|(index, (record, metrics))| {
                let mut fields = vec![
                    ("index", (*index as u64).to_json()),
                    ("record", record.to_json()),
                ];
                if !metrics.is_empty() {
                    fields.push(("metrics", metrics.to_json()));
                }
                obj(fields)
            })
            .collect();
        obj(vec![
            ("spec_hash", spec_hash.to_json()),
            ("shard", (shard as u64).to_json()),
            ("cells", Json::Array(cells)),
        ])
    }

    fn from_doc(v: &Json, spec_hash: u64) -> Result<SweepShardState, JsonError> {
        if u64::from_json(v.field("spec_hash")?)? != spec_hash {
            return Err(JsonError::new("checkpoint belongs to a different spec"));
        }
        let mut cells = BTreeMap::new();
        for c in v.field("cells")?.as_array()? {
            let index = u64::from_json(c.field("index")?)? as usize;
            let record = RunRecord::from_json(c.field("record")?)?;
            let metrics = match c.get("metrics") {
                Some(m) => MetricsRegistry::from_json(m)?,
                None => MetricsRegistry::default(),
            };
            cells.insert(index, (record, metrics));
        }
        Ok(SweepShardState { cells })
    }
}

fn load_shard_doc(dir: &CampaignDir, shard: usize) -> Option<Json> {
    let load = durable::load_checkpoint(&dir.shard_checkpoint(shard));
    for w in &load.warnings {
        eprintln!("warning: shard {shard}: {w}");
    }
    load.doc
}

/// How complete one shard's durable checkpoint is.
fn shard_progress(dir: &CampaignDir, spec: &CampaignSpec, shard: usize) -> (usize, usize) {
    let plan_total = match spec {
        CampaignSpec::Fuzz(f) => ShardPlan::new(f.shards, f.count).len_of(shard),
        CampaignSpec::Sweep(s) => match load_plan(dir, spec.spec_hash()) {
            Ok(plan) => ShardPlan::new(s.shards, plan.cells().len()).len_of(shard),
            Err(_) => return (0, 0),
        },
    };
    let done = match (spec, load_shard_doc(dir, shard)) {
        (_, None) => 0,
        (CampaignSpec::Fuzz(_), Some(doc)) => FuzzShardState::from_doc(&doc, spec.spec_hash())
            .map(|s| s.cases.len())
            .unwrap_or(0),
        (CampaignSpec::Sweep(_), Some(doc)) => SweepShardState::from_doc(&doc, spec.spec_hash())
            .map(|s| s.cells.len())
            .unwrap_or(0),
    };
    (done, plan_total)
}

fn shard_is_done(dir: &CampaignDir, spec: &CampaignSpec, shard: usize) -> bool {
    if dir.shard_done(shard).exists() {
        return true;
    }
    let (done, total) = shard_progress(dir, spec, shard);
    done >= total && total > 0 || (total == 0 && dir.spec_path().exists())
}

// ---------------------------------------------------------------------
// Worker

/// Runs one shard worker to completion: resume from the durable
/// checkpoint, process remaining work in chunks (checkpoint + heartbeat
/// between chunks), then write the `DONE` marker.
///
/// # Errors
///
/// I/O errors on the campaign directory (a checkpoint that cannot be
/// written is fatal for the worker — the supervisor will retry it).
pub fn worker_main(dir: &CampaignDir, shard: usize) -> io::Result<()> {
    if fail_requested(shard) {
        return Err(io_err(format!(
            "shard {shard} failing on request ({FAIL_SHARDS_ENV})"
        )));
    }
    let spec = dir
        .load_spec()?
        .ok_or_else(|| io_err(format!("no spec.json in {}", dir.root().display())))?;
    fs::create_dir_all(dir.shard_dir(shard))?;
    let mut heartbeat = HeartbeatWriter::new(dir.shard_heartbeat(shard))?;
    match &spec {
        CampaignSpec::Fuzz(f) => worker_fuzz(dir, &spec, f, shard, &mut heartbeat)?,
        CampaignSpec::Sweep(s) => worker_sweep(dir, &spec, s, shard, &mut heartbeat)?,
    }
    fs::write(dir.shard_done(shard), "done\n")?;
    Ok(())
}

fn fail_requested(shard: usize) -> bool {
    std::env::var(FAIL_SHARDS_ENV)
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .any(|s| s == shard)
        })
        .unwrap_or(false)
}

fn worker_fuzz(
    dir: &CampaignDir,
    spec: &CampaignSpec,
    fuzz: &FuzzSpec,
    shard: usize,
    heartbeat: &mut HeartbeatWriter,
) -> io::Result<()> {
    let hash = spec.spec_hash();
    let plan = ShardPlan::new(fuzz.shards, fuzz.count);
    let mine: Vec<usize> = plan.indices(shard).collect();
    let mut state = match load_shard_doc(dir, shard) {
        Some(doc) => FuzzShardState::from_doc(&doc, hash).unwrap_or_else(|e| {
            eprintln!("warning: shard {shard}: discarding checkpoint ({e})");
            FuzzShardState::default()
        }),
        None => FuzzShardState::default(),
    };
    let cfg = fuzz.campaign_config(dir.root());
    let todo: Vec<usize> = mine
        .iter()
        .copied()
        .filter(|i| !state.cases.contains_key(i))
        .collect();
    eprintln!(
        "shard {shard}: {} of {} cases already checkpointed, {} to run",
        state.cases.len(),
        mine.len(),
        todo.len()
    );
    let ckpt = dir.shard_checkpoint(shard);
    if todo.is_empty() {
        // Resumed straight into completeness; make sure the checkpoint
        // exists even for zero-case shards.
        durable::write_checkpoint(&ckpt, &state.to_doc(hash, shard))?;
        return Ok(());
    }
    // Chunk size balances checkpoint granularity (work lost to a kill)
    // against flush overhead.
    let chunk = (cfg.jobs * 4).max(8);
    for batch in todo.chunks(chunk) {
        let report = run_campaign_cases(&cfg, batch, |_, _| {});
        for case in report.cases {
            state.cases.insert(case.index, case);
        }
        durable::write_checkpoint(&ckpt, &state.to_doc(hash, shard))?;
        heartbeat.beat()?;
        eprintln!("shard {shard}: {}/{} cases", state.cases.len(), mine.len());
    }
    Ok(())
}

fn worker_sweep(
    dir: &CampaignDir,
    spec: &CampaignSpec,
    sweep: &SweepSpec,
    shard: usize,
    heartbeat: &mut HeartbeatWriter,
) -> io::Result<()> {
    let hash = spec.spec_hash();
    let plan = load_plan(dir, hash)?;
    let cells = plan.cells();
    let shard_plan = ShardPlan::new(sweep.shards, cells.len());
    let mine: Vec<usize> = shard_plan.indices(shard).collect();
    let mut state = match load_shard_doc(dir, shard) {
        Some(doc) => SweepShardState::from_doc(&doc, hash).unwrap_or_else(|e| {
            eprintln!("warning: shard {shard}: discarding checkpoint ({e})");
            SweepShardState::default()
        }),
        None => SweepShardState::default(),
    };
    let todo: Vec<usize> = mine
        .iter()
        .copied()
        .filter(|i| !state.cells.contains_key(i))
        .collect();
    eprintln!(
        "shard {shard}: {} of {} cells already checkpointed, {} to run",
        state.cells.len(),
        mine.len(),
        todo.len()
    );
    let ckpt = dir.shard_checkpoint(shard);
    if todo.is_empty() {
        durable::write_checkpoint(&ckpt, &state.to_doc(hash, shard))?;
        return Ok(());
    }
    let opts = sweep.opts;
    let configs = DetectorConfig::all_for_sweep();
    let workloads: Vec<_> = sweep
        .apps
        .iter()
        .map(|&a| sweep_workload(a, &opts))
        .collect();
    let jobs = sweep.worker_jobs.max(1);
    let pool = Pool::new(jobs);
    let chunk = (jobs * 2).max(4);
    for batch in todo.chunks(chunk) {
        let results = Mutex::new(Vec::new());
        let jobs_vec: Vec<_> = batch
            .iter()
            .map(|&index| {
                let (ai, ri, target) = cells[index];
                let workloads = &workloads;
                let configs = &configs;
                let results = &results;
                move || {
                    // A fresh per-cell sink captures the run's
                    // deterministic counters so the coordinator can
                    // merge metrics in global index order.
                    let sink = ObsSink::new(None, 1);
                    let ctx = RunObsCtx {
                        sink: &sink,
                        app: workloads[ai].name(),
                        run_index: ri,
                    };
                    let record = run_injection(
                        target,
                        configs,
                        &workloads[ai],
                        run_seed(&opts, ri),
                        &opts,
                        Some(ctx),
                    );
                    lock_unpoisoned(results).push((index, record, sink.registry_snapshot()));
                }
            })
            .collect();
        let outcomes = pool.run_ordered(jobs_vec);
        for (index, record, metrics) in results.into_inner().unwrap_or_else(|p| p.into_inner()) {
            state.cells.insert(index, (record, metrics));
        }
        // A worker-pool panic is unreachable in practice (run_injection
        // catches run panics itself), but keep the matrix rectangular.
        for (&index, outcome) in batch.iter().zip(&outcomes) {
            if let Err(p) = outcome {
                state.cells.entry(index).or_insert_with(|| {
                    let (_, _, target) = cells[index];
                    let status = RunStatus::Panicked {
                        msg: p.message.clone(),
                    };
                    (
                        RunRecord::failed(target, status, None),
                        MetricsRegistry::default(),
                    )
                });
            }
        }
        durable::write_checkpoint(&ckpt, &state.to_doc(hash, shard))?;
        heartbeat.beat()?;
        eprintln!("shard {shard}: {}/{} cells", state.cells.len(), mine.len());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Coordinator

/// Supervision knobs for [`coordinate`] — none of these affect merged
/// output bytes.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Maximum concurrently running workers (`None` = one per shard).
    pub max_workers: Option<usize>,
    /// Chaos mode (random worker kills).
    pub chaos: Option<ChaosConfig>,
    /// Charged failures allowed per shard before abandonment.
    pub max_retries: u32,
    /// Heartbeat staleness budget before a worker counts as hung.
    pub heartbeat_timeout: Duration,
    /// Supervision poll interval.
    pub poll_interval: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        CoordinatorOptions {
            max_workers: None,
            chaos: None,
            max_retries: 3,
            heartbeat_timeout: Duration::from_secs(60),
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// What one coordinator invocation produced.
#[derive(Debug, Clone)]
pub struct CoordinatorOutcome {
    /// Suggested process exit code: 0 = complete and clean, 1 =
    /// complete but the campaign found failures (fuzz violations),
    /// 2 = some shards abandoned (merged output is partial), 4 =
    /// drained before completion (no merge; resumable).
    pub exit_code: i32,
    /// Shard ids that were abandoned.
    pub abandoned: Vec<usize>,
    /// `true` when a drain request ended the run early.
    pub drained: bool,
}

/// Runs (or resumes) a sharded campaign in `dir`: writes/verifies the
/// spec, plans sweeps once, supervises worker processes to completion,
/// writes `supervision.json`, and merges shard checkpoints into
/// byte-stable `merged/` outputs.
///
/// `spec` is required for a fresh directory; for an existing one it
/// must hash-match the persisted spec (`None` = resume as-is).
///
/// # Errors
///
/// Spec mismatches, missing specs on resume-only invocations, and I/O
/// failures on the campaign directory.
pub fn coordinate(
    dir: &CampaignDir,
    spec: Option<CampaignSpec>,
    opts: &CoordinatorOptions,
) -> io::Result<CoordinatorOutcome> {
    fs::create_dir_all(dir.root())?;
    let spec = match (dir.load_spec()?, spec) {
        (Some(existing), Some(requested)) => {
            if existing.spec_hash() != requested.spec_hash() {
                return Err(io_err(format!(
                    "campaign dir {} was started with a different spec \
                     (hash {:#x}, requested {:#x}); use a fresh directory",
                    dir.root().display(),
                    existing.spec_hash(),
                    requested.spec_hash()
                )));
            }
            existing
        }
        (Some(existing), None) => existing,
        (None, Some(requested)) => {
            durable::write_sealed_atomic(&dir.spec_path(), &requested.to_doc())?;
            requested
        }
        (None, None) => {
            return Err(io_err(format!(
                "{} holds no campaign and no spec was given",
                dir.root().display()
            )))
        }
    };
    // A DRAIN marker left by a previous invocation would stop this one
    // before it starts; a new invocation is an explicit resume.
    let _ = fs::remove_file(dir.drain_path());

    // Sweeps: plan once, durably, before any worker spawns. Workers
    // only ever read the plan, so every shard partitions an identical
    // cell list.
    if let CampaignSpec::Sweep(s) = &spec {
        if load_plan(dir, spec.spec_hash()).is_err() {
            eprintln!("planning sweep ({} apps)...", s.apps.len());
            let plan = plan_sweep(s, opts.max_workers.unwrap_or(spec.shards()));
            durable::write_sealed_atomic(&dir.plan_path(), &plan.to_doc(spec.spec_hash()))?;
        }
    }

    let shards = spec.shards();
    let exe = std::env::current_exe()?;
    let mut cfg = SupervisorConfig::new(shards);
    cfg.max_workers = opts.max_workers.unwrap_or(shards).max(1);
    cfg.poll_interval = opts.poll_interval;
    cfg.heartbeat_timeout = opts.heartbeat_timeout;
    cfg.max_retries = opts.max_retries;
    cfg.chaos = opts.chaos;
    cfg.drain_file = Some(dir.drain_path());

    let spec_ref = &spec;
    let mut hooks = WorkerHooks {
        spawn: Box::new(move |shard, attempt| {
            fs::create_dir_all(dir.shard_dir(shard))?;
            let log = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.shard_log(shard))?;
            let log_err = log.try_clone()?;
            eprintln!("shard {shard}: spawning worker (attempt {attempt})");
            Command::new(&exe)
                .arg("worker")
                .arg("--dir")
                .arg(dir.root())
                .arg("--shard")
                .arg(shard.to_string())
                .stdout(Stdio::from(log))
                .stderr(Stdio::from(log_err))
                .spawn()
        }),
        is_done: Box::new(move |shard| shard_is_done(dir, spec_ref, shard)),
        heartbeat_path: Box::new(move |shard| Some(dir.shard_heartbeat(shard))),
    };
    let outcome = supervise(&cfg, &mut hooks, &AtomicBool::new(false));
    drop(hooks);

    // Supervision record: timing- and failure-dependent by nature, so
    // it lives apart from the byte-stable merged outputs.
    fs::create_dir_all(dir.root().join("merged"))?;
    let mut sup_reg = MetricsRegistry::default();
    outcome.profile.record_into(&mut sup_reg);
    let sup_doc = obj(vec![
        ("drained", outcome.drained.to_json()),
        (
            "reports",
            Json::Array(outcome.reports.iter().map(ToJson::to_json).collect()),
        ),
        ("profile", outcome.profile.to_json()),
        ("metrics", sup_reg.to_json()),
    ]);
    fs::write(dir.merged("supervision.json"), sup_doc.to_string_pretty())?;

    for r in &outcome.reports {
        eprintln!(
            "shard {}: {} ({} attempts, {} chaos kills, {} heartbeat misses)",
            r.shard,
            r.status.kind(),
            r.attempts,
            r.chaos_kills,
            r.heartbeat_misses
        );
    }

    if outcome.drained {
        eprintln!("drained before completion; re-run to resume");
        return Ok(CoordinatorOutcome {
            exit_code: 4,
            abandoned: outcome.abandoned_shards(),
            drained: true,
        });
    }

    let abandoned: BTreeMap<usize, String> = outcome
        .reports
        .iter()
        .filter_map(|r| match &r.status {
            ShardStatus::Abandoned { reason } => Some((r.shard, reason.clone())),
            _ => None,
        })
        .collect();

    let campaign_failures = match &spec {
        CampaignSpec::Fuzz(f) => merge_fuzz(dir, &spec, f, &abandoned)?,
        CampaignSpec::Sweep(s) => merge_sweep(dir, &spec, s, &abandoned)?,
    };

    let exit_code = if !abandoned.is_empty() {
        2
    } else {
        i32::from(campaign_failures)
    };
    Ok(CoordinatorOutcome {
        exit_code,
        abandoned: abandoned.keys().copied().collect(),
        drained: false,
    })
}

fn shard_failure_section(abandoned: &BTreeMap<usize, String>) -> String {
    let mut out = String::new();
    if abandoned.is_empty() {
        return out;
    }
    out.push_str("== shard failures ==\n");
    for (shard, reason) in abandoned {
        let _ = writeln!(out, "shard {shard}: abandoned — {reason}");
    }
    out
}

/// Merges fuzz shard checkpoints into `merged/report.txt` and
/// `merged/metrics.json`. Returns `true` when the merged campaign has
/// failing cases.
fn merge_fuzz(
    dir: &CampaignDir,
    spec: &CampaignSpec,
    fuzz: &FuzzSpec,
    abandoned: &BTreeMap<usize, String>,
) -> io::Result<bool> {
    let hash = spec.spec_hash();
    let mut cases: BTreeMap<usize, CaseReport> = BTreeMap::new();
    for shard in 0..fuzz.shards.max(1) {
        if let Some(doc) = load_shard_doc(dir, shard) {
            if let Ok(state) = FuzzShardState::from_doc(&doc, hash) {
                cases.extend(state.cases);
            }
        }
    }
    let report = CampaignReport {
        cases: cases.into_values().collect(),
        requested: fuzz.count,
        budget_exhausted: false,
    };
    let mut text = report.render();
    text.push_str(&shard_failure_section(abandoned));
    fs::create_dir_all(dir.merged("report.txt").parent().unwrap_or(dir.root()))?;
    fs::write(dir.merged("report.txt"), &text)?;

    // Deterministic counters only: everything here is a pure function
    // of the case set, so the file byte-matches across shard counts.
    let mut reg = MetricsRegistry::default();
    reg.add("fuzz.cases", report.cases.len() as u64);
    reg.add("fuzz.failures", report.failures() as u64);
    for case in &report.cases {
        reg.add("fuzz.truth_races", case.oracle.truth_races as u64);
        reg.add("fuzz.events", case.oracle.events as u64);
        reg.add(
            "fuzz.injections_checked",
            case.oracle.injections_checked as u64,
        );
        reg.add(
            "fuzz.injections_aborted",
            case.oracle.injections_aborted as u64,
        );
        for v in &case.oracle.violations {
            reg.add(&format!("fuzz.violation.{}", v.kind()), 1);
        }
        if case.panic.is_some() {
            reg.add("fuzz.violation.panic", 1);
        }
    }
    let metrics_doc = obj(vec![("metrics", reg.to_json())]);
    fs::write(dir.merged("metrics.json"), metrics_doc.to_string_pretty())?;
    Ok(report.failures() > 0)
}

/// Merges sweep shard checkpoints into `merged/results.json`,
/// `merged/report.txt`, and `merged/metrics.json`. Cells owned by
/// abandoned shards become [`RunStatus::Abandoned`] records, so the
/// matrix stays rectangular and the gap is visible (and excluded from
/// every completed-only denominator). Returns `false` (sweeps have no
/// pass/fail verdict of their own).
fn merge_sweep(
    dir: &CampaignDir,
    spec: &CampaignSpec,
    sweep: &SweepSpec,
    abandoned: &BTreeMap<usize, String>,
) -> io::Result<bool> {
    let hash = spec.spec_hash();
    let plan = load_plan(dir, hash)?;
    let cells = plan.cells();
    let shard_plan = ShardPlan::new(sweep.shards, cells.len());
    let mut merged: BTreeMap<usize, (RunRecord, MetricsRegistry)> = BTreeMap::new();
    for shard in 0..sweep.shards.max(1) {
        if let Some(doc) = load_shard_doc(dir, shard) {
            if let Ok(state) = SweepShardState::from_doc(&doc, hash) {
                merged.extend(state.cells);
            }
        }
    }

    // Assemble per-app sweeps in plan (= canonical) order; missing
    // cells surface as Abandoned records naming their shard's diagnosis.
    let mut runs_by_app: Vec<Vec<RunRecord>> = plan
        .apps
        .iter()
        .map(|a| Vec::with_capacity(a.targets.len()))
        .collect();
    let mut reg = MetricsRegistry::default();
    for (index, &(ai, _ri, target)) in cells.iter().enumerate() {
        match merged.get(&index) {
            Some((record, metrics)) => {
                runs_by_app[ai].push(record.clone());
                reg.merge(metrics);
            }
            None => {
                let shard = shard_plan.shard_of(index);
                let reason = abandoned
                    .get(&shard)
                    .cloned()
                    .unwrap_or_else(|| format!("shard {shard} produced no record"));
                let status = RunStatus::Abandoned { reason };
                runs_by_app[ai].push(RunRecord::failed(target, status, None));
            }
        }
    }
    let apps: Vec<AppSweep> = plan
        .apps
        .iter()
        .zip(runs_by_app)
        .map(|(planned, runs)| planned.sweep(runs))
        .collect();
    let results = SweepResults {
        options: sweep.opts,
        apps,
    };

    fs::create_dir_all(dir.merged("results.json").parent().unwrap_or(dir.root()))?;
    fs::write(
        dir.merged("results.json"),
        results.to_json().to_string_pretty(),
    )?;

    let mut text = format!(
        "sweep: {} apps, {} runs ({} completed)\n",
        results.apps.len(),
        results.apps.iter().map(|a| a.runs.len()).sum::<usize>(),
        results
            .apps
            .iter()
            .map(|a| a.completed().count())
            .sum::<usize>(),
    );
    text.push_str(&crate::figures::failure_summary(&results));
    text.push_str(&shard_failure_section(abandoned));
    fs::write(dir.merged("report.txt"), &text)?;

    let metrics_doc = obj(vec![("metrics", reg.to_json())]);
    fs::write(dir.merged("metrics.json"), metrics_doc.to_string_pretty())?;
    Ok(false)
}

/// Renders a one-line-per-shard status summary for `shard status`.
pub fn status_summary(dir: &CampaignDir) -> io::Result<String> {
    let spec = dir
        .load_spec()?
        .ok_or_else(|| io_err(format!("no spec.json in {}", dir.root().display())))?;
    let mut out = String::new();
    let kind = match &spec {
        CampaignSpec::Fuzz(f) => format!("fuzz ({} cases)", f.count),
        CampaignSpec::Sweep(s) => format!("sweep ({} apps)", s.apps.len()),
    };
    let _ = writeln!(
        out,
        "campaign: {kind}, {} shards, spec {:#018x}",
        spec.shards(),
        spec.spec_hash()
    );
    for shard in 0..spec.shards() {
        let (done, total) = shard_progress(dir, &spec, shard);
        let marker = if dir.shard_done(shard).exists() {
            " DONE"
        } else {
            ""
        };
        let _ = writeln!(out, "shard {shard}: {done}/{total}{marker}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScaleClassOpt;

    fn fuzz_spec() -> CampaignSpec {
        CampaignSpec::Fuzz(FuzzSpec {
            seed: 7,
            count: 24,
            mode: GenMode::Mixed,
            short: true,
            inject: true,
            rerun: false,
            corpus: false,
            shards: 3,
            worker_jobs: 2,
        })
    }

    fn sweep_spec() -> CampaignSpec {
        CampaignSpec::Sweep(SweepSpec {
            opts: SweepOptions {
                injections_per_app: 2,
                scale: ScaleClassOpt::Tiny,
                threads: 4,
                seed: 13,
                ..SweepOptions::default()
            },
            apps: vec![AppKind::Fft, AppKind::Radix],
            shards: 2,
            worker_jobs: 1,
        })
    }

    #[test]
    fn specs_roundtrip_through_their_documents() {
        for spec in [fuzz_spec(), sweep_spec()] {
            let doc = spec.to_doc();
            let back = CampaignSpec::from_doc(&doc).expect("roundtrips");
            assert_eq!(back, spec);
            assert_eq!(back.spec_hash(), spec.spec_hash());
        }
    }

    #[test]
    fn spec_hash_covers_results_not_supervision() {
        let base = fuzz_spec();
        let mut other_jobs = match base.clone() {
            CampaignSpec::Fuzz(f) => f,
            CampaignSpec::Sweep(_) => unreachable!(),
        };
        other_jobs.worker_jobs = 16;
        assert_eq!(
            base.spec_hash(),
            CampaignSpec::Fuzz(other_jobs.clone()).spec_hash(),
            "worker thread count must not change the campaign identity"
        );
        other_jobs.worker_jobs = 2;
        other_jobs.shards = 4;
        assert_ne!(
            base.spec_hash(),
            CampaignSpec::Fuzz(other_jobs.clone()).spec_hash(),
            "the shard partition is part of the identity"
        );
        other_jobs.shards = 3;
        other_jobs.seed = 8;
        assert_ne!(base.spec_hash(), CampaignSpec::Fuzz(other_jobs).spec_hash());
    }

    #[test]
    fn tampered_spec_documents_are_rejected() {
        let doc = fuzz_spec().to_doc();
        let Json::Object(mut fields) = doc else {
            panic!("spec doc is an object")
        };
        for (k, v) in &mut fields {
            if k == "seed" {
                *v = Json::UInt(99);
            }
        }
        let err = CampaignSpec::from_doc(&Json::Object(fields)).expect_err("hash check fires");
        assert!(err.to_string().contains("spec hash mismatch"), "{err}");
    }

    #[test]
    fn shard_failure_section_names_every_abandoned_shard() {
        assert_eq!(shard_failure_section(&BTreeMap::new()), "");
        let mut abandoned = BTreeMap::new();
        abandoned.insert(2usize, "gave up".to_string());
        abandoned.insert(0usize, "hung".to_string());
        let text = shard_failure_section(&abandoned);
        assert!(text.starts_with("== shard failures ==\n"), "{text}");
        assert!(text.contains("shard 0: abandoned — hung"), "{text}");
        assert!(text.contains("shard 2: abandoned — gave up"), "{text}");
    }

    #[test]
    fn sweep_plans_flatten_to_globally_indexed_cells() {
        let CampaignSpec::Sweep(spec) = sweep_spec() else {
            unreachable!()
        };
        let plan = plan_sweep(&spec, 2);
        assert_eq!(plan.apps.len(), 2);
        for app in &plan.apps {
            assert!(app.dry_run_error.is_none(), "{:?}", app.dry_run_error);
            assert_eq!(app.targets.len(), 2);
        }
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|&(ai, ri, _)| (ai, ri))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0), (1, 1)]
        );
        // Planning twice yields the same targets (workers may trust a
        // persisted plan produced by any coordinator).
        let again = plan_sweep(&spec, 1);
        assert_eq!(
            plan.cells().iter().map(|c| c.2).collect::<Vec<_>>(),
            again.cells().iter().map(|c| c.2).collect::<Vec<_>>()
        );
    }
}
