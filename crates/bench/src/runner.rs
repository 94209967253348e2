//! The sweep session API: [`SweepRunner`].
//!
//! A sweep is a matrix of (application × injected run) simulations.
//! The old surface was a family of free functions (`sweep_app`,
//! `sweep_all`, `sweep_all_checkpointed`, …) that each re-threaded the
//! same options; `SweepRunner` replaces them with one session object
//! built once and queried many times:
//!
//! ```no_run
//! use cord_bench::DetectorConfig;
//! use cord_bench::runner::SweepRunner;
//! use cord_bench::sweep::SweepOptions;
//!
//! let results = SweepRunner::new(SweepOptions::default())
//!     .jobs(8)
//!     .checkpoint("results/ckpt.json")
//!     .progress(|p| eprintln!("{}/{} runs", p.jobs_done, p.jobs_total))
//!     .run(&DetectorConfig::all_for_sweep())
//!     .expect("checkpoint I/O");
//! # let _ = results;
//! ```
//!
//! # Parallel execution and determinism
//!
//! `jobs(n)` fans the run matrix across a [`cord_pool::Pool`] of `n`
//! workers. Every run already has a deterministic seed derived from
//! its index ([`run_seed`](crate::sweep::run_seed)) and results are
//! collected by submission index, never completion order, so the
//! output of `jobs(8)` is **bit-identical** to `jobs(1)`: same
//! [`SweepResults`], same JSON rendering, same final checkpoint bytes.
//!
//! # Checkpoint compatibility
//!
//! The worker count lives on the runner, not on [`SweepOptions`], so
//! it is structurally excluded from the checkpoint
//! [`options_hash`](crate::checkpoint::options_hash): a checkpoint
//! written by a serial sweep resumes under a parallel one and vice
//! versa. The checkpoint is rewritten after every application
//! completes (all of its runs merged, apps in canonical order), so an
//! interrupted parallel sweep loses at most the in-flight apps.

use crate::checkpoint::{options_hash, Checkpoint};
use crate::obs::{ObsSink, DEFAULT_TRACE_CAPACITY};
use crate::sweep::{
    plan_apps, run_group, run_injection, run_matrix, run_seed, sweep_workload, AppSweep, Detection,
    PlannedApp, RunObsCtx, RunRecord, RunStatus, SweepOptions, SweepResults,
};
use cord_core::CordError;
use cord_detectors::DetectorConfig;
use cord_inject::InjectionTarget;
use cord_pool::{lock_unpoisoned, BatchProgress, Pool};
use cord_sim::engine::{InjectionPlan, SimError};
use cord_trace::program::Workload;
use cord_workloads::{all_apps, AppKind};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A progress snapshot delivered to the callback installed with
/// [`SweepRunner::progress`]. Snapshots are emitted from worker
/// threads as jobs finish; the callback must be `Send + Sync`.
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// The sweep phase: `"plan"` while campaigns are being drawn (one
    /// job per app), `"run"` while the injection matrix executes (one
    /// job per injected run).
    pub phase: &'static str,
    /// Jobs finished in the current phase (including failed ones).
    pub jobs_done: usize,
    /// Total jobs in the current phase.
    pub jobs_total: usize,
    /// Jobs in the current phase whose worker captured a panic. Note
    /// that detector panics are caught *inside* the run (becoming
    /// [`RunStatus::Panicked`] records), so this stays zero unless the
    /// sweep machinery itself fails.
    pub jobs_failed: usize,
    /// Applications fully swept so far (resumed ones count).
    pub apps_done: usize,
    /// Applications in this sweep.
    pub apps_total: usize,
    /// Wall-clock time since the current phase's batch started.
    pub elapsed: Duration,
    /// Mean worker utilization over the batch so far, in `[0, 1]`.
    pub utilization: f64,
    /// Estimated time to batch completion, `None` until the first job
    /// finishes.
    pub eta: Option<Duration>,
}

impl SweepProgress {
    fn of(phase: &'static str, bp: &BatchProgress, apps_done: usize, apps_total: usize) -> Self {
        SweepProgress {
            phase,
            jobs_done: bp.done,
            jobs_total: bp.total,
            jobs_failed: bp.failed,
            apps_done,
            apps_total,
            elapsed: bp.elapsed,
            utilization: bp.utilization(),
            eta: bp.eta(),
        }
    }
}

type ProgressFn = Box<dyn Fn(&SweepProgress) + Send + Sync>;

/// A configured sweep session. See the [module docs](self) for the
/// builder walkthrough and the determinism/checkpoint contracts.
pub struct SweepRunner {
    opts: SweepOptions,
    jobs: usize,
    apps: Vec<AppKind>,
    checkpoint: Option<PathBuf>,
    progress: Option<ProgressFn>,
    trace_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_capacity: usize,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("opts", &self.opts)
            .field("jobs", &self.jobs)
            .field("apps", &self.apps)
            .field("checkpoint", &self.checkpoint)
            .field("progress", &self.progress.as_ref().map(|_| "<callback>"))
            .field("trace_dir", &self.trace_dir)
            .field("metrics_out", &self.metrics_out)
            .field("trace_capacity", &self.trace_capacity)
            .finish()
    }
}

impl SweepRunner {
    /// A serial (one-worker) session over every application, with no
    /// checkpoint and no progress callback.
    pub fn new(opts: SweepOptions) -> SweepRunner {
        SweepRunner {
            opts,
            jobs: 1,
            apps: all_apps().to_vec(),
            checkpoint: None,
            progress: None,
            trace_dir: None,
            metrics_out: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Sets the worker count for [`run`](Self::run). Clamped to at
    /// least 1; results are bit-identical for every value.
    pub fn jobs(mut self, jobs: usize) -> SweepRunner {
        self.jobs = jobs.max(1);
        self
    }

    /// Restricts the sweep to the given applications, in the given
    /// order (default: [`all_apps`] in canonical figure order).
    pub fn apps(mut self, apps: &[AppKind]) -> SweepRunner {
        self.apps = apps.to_vec();
        self
    }

    /// Enables checkpoint/resume against `path`: a matching checkpoint
    /// is loaded and its apps skipped, and the file is atomically
    /// rewritten after each app completes.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> SweepRunner {
        self.checkpoint = Some(path.into());
        self
    }

    /// Installs a progress callback, invoked from worker threads as
    /// jobs finish. Panics inside the callback are swallowed by the
    /// pool; they never disturb the sweep.
    pub fn progress(mut self, cb: impl Fn(&SweepProgress) + Send + Sync + 'static) -> SweepRunner {
        self.progress = Some(Box::new(cb));
        self
    }

    /// Enables per-run event tracing: every completed simulation's
    /// trace ring is written into `dir` as one JSON file per
    /// (app, run, configuration) cell. Tracing is out-of-band — sweep
    /// results and checkpoint bytes are identical with it on or off.
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> SweepRunner {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Writes the sweep's aggregate metrics (simulator and detector
    /// counters summed over completed runs, pool utilization, and the
    /// job/flush wall-clock profile) to `path` as JSON when the sweep
    /// finishes.
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> SweepRunner {
        self.metrics_out = Some(path.into());
        self
    }

    /// Sets the per-run trace ring capacity (events kept per
    /// simulation; oldest drop first). Clamped to at least 1.
    pub fn trace_capacity(mut self, events: usize) -> SweepRunner {
        self.trace_capacity = events.max(1);
        self
    }

    /// The options this session runs with.
    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Sweeps every configured application against `configs`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a checkpoint write fails (simulation
    /// results are never silently dropped), or a
    /// [`CordError::Pool`]-wrapped error if the worker pool loses a
    /// run — which per-run panic capture makes unreachable in
    /// practice.
    pub fn run(&self, configs: &[DetectorConfig]) -> io::Result<SweepResults> {
        self.run_filtered(configs, &self.apps, self.checkpoint.as_deref())
    }

    /// Runs one detector configuration over one workload — the
    /// innermost cell of the sweep matrix.
    ///
    /// # Errors
    ///
    /// Propagates the [`SimError`] when the simulated machine
    /// deadlocks or its watchdog fires.
    pub fn run_detector(
        &self,
        config: DetectorConfig,
        workload: &Workload,
        seed: u64,
        plan: InjectionPlan,
    ) -> Result<Detection, SimError> {
        let machine = self.opts.machine_for(config);
        let found = run_group(&[config], machine, workload, seed, plan, None)?;
        Ok(found[0])
    }

    /// Re-executes one recorded run exactly as the sweep did — used to
    /// check that a non-completed run's failure is deterministic.
    pub fn rerun(
        &self,
        app: AppKind,
        target: InjectionTarget,
        run_index: usize,
        configs: &[DetectorConfig],
    ) -> RunRecord {
        let workload = sweep_workload(app, &self.opts);
        run_injection(
            target,
            configs,
            &workload,
            run_seed(&self.opts, run_index),
            &self.opts,
            None,
        )
    }

    fn run_filtered(
        &self,
        configs: &[DetectorConfig],
        apps: &[AppKind],
        checkpoint: Option<&Path>,
    ) -> io::Result<SweepResults> {
        let opts = self.opts;
        let hash = options_hash(&opts, configs);
        // Observability is opt-in and fully out-of-band: with neither
        // output configured there is no sink, no trace rings are
        // allocated, and every emit site stays on its disabled path.
        let obs: Option<ObsSink> = (self.trace_dir.is_some() || self.metrics_out.is_some())
            .then(|| ObsSink::new(self.trace_dir.clone(), self.trace_capacity));

        // Resume: split a matching checkpoint into apps this sweep
        // covers (kept, skipped) and foreign apps (preserved in the
        // file, excluded from the results).
        let mut resumed: Vec<AppSweep> = Vec::new();
        let mut extra: Vec<AppSweep> = Vec::new();
        if let Some(path) = checkpoint {
            if let Some(cp) = Checkpoint::load_matching(path, hash) {
                for a in cp.apps {
                    if apps.iter().any(|k| k.name() == a.app) {
                        resumed.push(a);
                    } else {
                        extra.push(a);
                    }
                }
            }
        }
        let todo: Vec<AppKind> = apps
            .iter()
            .copied()
            .filter(|k| !resumed.iter().any(|a| a.app == k.name()))
            .collect();

        let pool = Pool::new(self.jobs);
        let apps_total = apps.len();

        // Phase 1: plan the injection campaigns (one watchdogged dry
        // run per app), fanned across the pool.
        let (workloads, planned) = plan_apps(&todo, &opts, &pool, |bp| {
            if let Some(cb) = &self.progress {
                cb(&SweepProgress::of("plan", bp, resumed.len(), apps_total));
            }
        });
        let mut state = SweepState {
            resumed,
            extra,
            cells: planned.into_iter().map(AppCell::new).collect(),
            flush_err: None,
        };

        // Flush once before the run batch so apps with zero runs
        // (failed dry runs) and resumed apps are on disk even if every
        // in-flight job is lost to a crash.
        if let Some(path) = checkpoint {
            if !todo.is_empty() {
                state.flush(path, hash, &opts, apps);
            }
        }

        // Phase 2: the (app × run) injection matrix. Jobs are indexed
        // by (app, run index); each worker writes its record into the
        // app's slot and the app's checkpoint flush happens when its
        // last run lands.
        let matrix = run_matrix(state.cells.iter().map(|c| &c.plan));
        let shared = Mutex::new(state);
        // Serializes concurrent checkpoint writes (two apps finishing
        // at once) without making `record()` wait on disk I/O.
        let flush_io = Mutex::new(());
        // Queue wait is measured from here; the batch submits right
        // after job construction, so the skew is microseconds.
        let batch_start = Instant::now();
        let run_jobs: Vec<_> = matrix
            .iter()
            .map(|&(ai, ri, target)| {
                let shared = &shared;
                let flush_io = &flush_io;
                let workloads = &workloads;
                let obs = obs.as_ref();
                move || {
                    let job_start = Instant::now();
                    let ctx = obs.map(|sink| RunObsCtx {
                        sink,
                        app: workloads[ai].name(),
                        run_index: ri,
                    });
                    let record = run_injection(
                        target,
                        configs,
                        &workloads[ai],
                        run_seed(&opts, ri),
                        &opts,
                        ctx,
                    );
                    let app_complete = {
                        let mut st = lock_unpoisoned(shared);
                        st.record(ai, ri, record);
                        st.cells[ai].remaining == 0
                    };
                    if app_complete {
                        if let Some(path) = checkpoint {
                            flush_checkpoint(shared, flush_io, path, hash, &opts, apps, obs);
                        }
                    }
                    if let Some(sink) = obs {
                        sink.record_job(job_start.elapsed(), job_start.duration_since(batch_start));
                    }
                }
            })
            .collect();
        let outcomes = if self.progress.is_some() || obs.is_some() {
            pool.run_ordered_with(run_jobs, |bp| {
                if let Some(sink) = &obs {
                    sink.record_batch(bp);
                }
                if let Some(cb) = &self.progress {
                    let apps_done = lock_unpoisoned(&shared).apps_done();
                    cb(&SweepProgress::of("run", bp, apps_done, apps_total));
                }
            })
        } else {
            pool.run_ordered(run_jobs)
        };

        let mut state = shared.into_inner().unwrap_or_else(|p| p.into_inner());

        // A job that panicked before writing its slot (unreachable in
        // practice: `run_injection` catches detector and simulator
        // panics itself) still yields a record, so the matrix stays
        // rectangular and the failure is visible in the results.
        for (&(ai, ri, target), outcome) in matrix.iter().zip(&outcomes) {
            if let Err(p) = outcome {
                if state.cells[ai].records[ri].is_none() {
                    let status = RunStatus::Panicked {
                        msg: p.message.clone(),
                    };
                    state.record(ai, ri, RunRecord::failed(target, status, None));
                    if state.cells[ai].remaining == 0 {
                        if let Some(path) = checkpoint {
                            state.flush(path, hash, &opts, apps);
                        }
                    }
                }
            }
        }

        if let Some(e) = state.flush_err.take() {
            return Err(e);
        }

        if let Some(sink) = &obs {
            sink.finalize(self.metrics_out.as_deref())?;
        }

        let mut out = state.resumed;
        for cell in &state.cells {
            if cell.records.iter().any(Option::is_none) {
                return Err(io::Error::other(CordError::Pool(format!(
                    "worker pool lost {} run(s) of app {}",
                    cell.records.iter().filter(|r| r.is_none()).count(),
                    cell.plan.app
                ))));
            }
            out.push(cell.assemble());
        }
        sort_canonical(&mut out, apps);
        Ok(SweepResults {
            options: opts,
            apps: out,
        })
    }
}

/// One application's in-flight results: its planned campaign plus a
/// record slot per target.
struct AppCell {
    plan: PlannedApp,
    remaining: usize,
    records: Vec<Option<RunRecord>>,
}

impl AppCell {
    fn new(plan: PlannedApp) -> AppCell {
        AppCell {
            remaining: plan.targets.len(),
            records: vec![None; plan.targets.len()],
            plan,
        }
    }

    /// Assembles the finished [`AppSweep`]. Slots a lost worker never
    /// filled (unreachable in practice) surface as panicked runs so a
    /// checkpoint flush can never render a half-empty app.
    fn assemble(&self) -> AppSweep {
        let runs = self.records.iter().zip(&self.plan.targets);
        self.plan.sweep(
            runs.map(|(r, &target)| {
                r.clone().unwrap_or_else(|| {
                    let msg = "run lost by worker pool (slot never filled)".to_string();
                    RunRecord::failed(target, RunStatus::Panicked { msg }, None)
                })
            })
            .collect(),
        )
    }
}

/// Mutex-shared sweep state: results land here from worker threads.
struct SweepState {
    resumed: Vec<AppSweep>,
    extra: Vec<AppSweep>,
    cells: Vec<AppCell>,
    flush_err: Option<io::Error>,
}

impl SweepState {
    fn record(&mut self, ai: usize, ri: usize, record: RunRecord) {
        let cell = &mut self.cells[ai];
        if cell.records[ri].is_none() {
            cell.records[ri] = Some(record);
            cell.remaining -= 1;
        }
    }

    fn apps_done(&self) -> usize {
        self.resumed.len() + self.cells.iter().filter(|c| c.remaining == 0).count()
    }

    /// The checkpoint to write now: resumed + completed apps, in
    /// canonical order, with foreign apps appended.
    fn checkpoint(&self, hash: u64, opts: &SweepOptions, order: &[AppKind]) -> Checkpoint {
        let mut apps = self.resumed.clone();
        apps.extend(
            self.cells
                .iter()
                .filter(|c| c.remaining == 0)
                .map(AppCell::assemble),
        );
        sort_canonical(&mut apps, order);
        apps.extend(self.extra.iter().cloned());
        Checkpoint {
            options_hash: hash,
            options: *opts,
            apps,
        }
    }

    /// Atomically rewrites the checkpoint; the first write error is
    /// kept (and returned after the batch) rather than aborting
    /// in-flight simulation work. Serial-path variant of
    /// [`flush_checkpoint`] for when no workers are running.
    fn flush(&mut self, path: &Path, hash: u64, opts: &SweepOptions, order: &[AppKind]) {
        if let Err(e) = self.checkpoint(hash, opts, order).store(path) {
            self.flush_err.get_or_insert(e);
        }
    }
}

/// Worker-side checkpoint flush: snapshots [`SweepState::checkpoint`]
/// under the state lock, then serializes and writes the file with the
/// lock *released*, so a slow disk never blocks sibling workers'
/// `record()` calls. `io_lock` serializes concurrent flushes (they
/// share a temp file) and guarantees later snapshots land later, so
/// the file on disk is always the most complete one.
fn flush_checkpoint(
    shared: &Mutex<SweepState>,
    io_lock: &Mutex<()>,
    path: &Path,
    hash: u64,
    opts: &SweepOptions,
    order: &[AppKind],
    obs: Option<&ObsSink>,
) {
    let started = Instant::now();
    let _io = lock_unpoisoned(io_lock);
    let cp = lock_unpoisoned(shared).checkpoint(hash, opts, order);
    if let Err(e) = cp.store(path) {
        lock_unpoisoned(shared).flush_err.get_or_insert(e);
    }
    // The sample includes waiting on the I/O lock: that wait is real
    // flush latency the worker could have spent running jobs.
    if let Some(sink) = obs {
        sink.record_flush(started.elapsed().as_secs_f64());
    }
}

/// Sorts apps into the sweep's canonical order (unknown names last,
/// preserving their relative order).
fn sort_canonical(apps: &mut [AppSweep], order: &[AppKind]) {
    apps.sort_by_key(|a| {
        order
            .iter()
            .position(|k| k.name() == a.app)
            .unwrap_or(usize::MAX)
    });
}
