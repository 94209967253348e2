//! Sweep-side observability: the shared sink behind
//! [`SweepRunner::trace_dir`](crate::runner::SweepRunner::trace_dir) and
//! [`SweepRunner::metrics_out`](crate::runner::SweepRunner::metrics_out).
//!
//! The sink aggregates three streams the sweep produces:
//!
//! * **Run-event traces** — each completed simulation carries a bounded
//!   [`TraceHandle`] ring; the snapshot is written as one JSON file per
//!   (app, run, configuration) cell into the trace directory.
//! * **Unified metrics** — per-run [`SimStats`](cord_sim::stats::SimStats)
//!   and detector counters accumulate into one
//!   [`MetricsRegistry`], merged with the pool's batch snapshot and the
//!   sweep profile at the end of the sweep. The `sim.*` counters count
//!   (run, configuration) cells: when passive detectors share one
//!   machine run, its statistics are merged once per member.
//! * **Sweep profile** — per-job wall-clock, queue wait (measured from
//!   batch submission, an upper bound that includes sibling jobs'
//!   service time), and per-worker checkpoint-flush time.
//!
//! Everything here is out-of-band: enabling it never changes
//! [`SweepResults`](crate::sweep::SweepResults) or checkpoint bytes.

use cord_json::{obj, Json, ToJson};
use cord_obs::{Histogram, MetricsRegistry, SweepProfile, TraceHandle};
use cord_pool::{lock_unpoisoned, BatchProgress};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// Default per-run trace ring capacity (events kept per simulation;
/// older events drop first and are counted in the trace's `dropped`).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Thread-shared collector for traces, metrics, and profile samples.
/// One sink serves a whole sweep; workers call into it concurrently.
pub(crate) struct ObsSink {
    trace_dir: Option<PathBuf>,
    trace_capacity: usize,
    registry: Mutex<MetricsRegistry>,
    profile: Mutex<SweepProfile>,
    last_batch: Mutex<Option<BatchProgress>>,
    io_err: Mutex<Option<io::Error>>,
}

impl ObsSink {
    pub fn new(trace_dir: Option<PathBuf>, trace_capacity: usize) -> ObsSink {
        ObsSink {
            trace_dir,
            trace_capacity: trace_capacity.max(1),
            registry: Mutex::new(MetricsRegistry::default()),
            profile: Mutex::new(SweepProfile::default()),
            last_batch: Mutex::new(None),
            io_err: Mutex::new(None),
        }
    }

    /// `true` when per-run event traces should be captured at all.
    pub fn tracing(&self) -> bool {
        self.trace_dir.is_some()
    }

    /// Ring capacity for per-run trace handles.
    pub fn trace_capacity(&self) -> usize {
        self.trace_capacity
    }

    /// Folds one run's metrics into the sweep aggregate.
    pub fn merge(&self, reg: &MetricsRegistry) {
        lock_unpoisoned(&self.registry).merge(reg);
    }

    /// Records one job's execution time and queue wait.
    pub fn record_job(&self, run: Duration, wait: Duration) {
        let mut p = lock_unpoisoned(&self.profile);
        p.job_run.record(run.as_secs_f64());
        p.queue_wait.record(wait.as_secs_f64());
    }

    /// Records a checkpoint flush performed by the calling thread.
    pub fn record_flush(&self, secs: f64) {
        let worker = std::thread::current().name().unwrap_or("main").to_string();
        lock_unpoisoned(&self.profile).record_flush(&worker, secs);
    }

    /// Folds one run's per-access detector latency histogram into the
    /// sweep-wide distribution (pointwise bucket merge).
    pub fn record_access_latency(&self, hist: &Histogram) {
        lock_unpoisoned(&self.profile).access_latency.merge(hist);
    }

    /// Keeps the most recent pool batch snapshot (folded into the
    /// metrics at finalization).
    pub fn record_batch(&self, bp: &BatchProgress) {
        *lock_unpoisoned(&self.last_batch) = Some(*bp);
    }

    /// Writes one run's trace snapshot into the trace directory as
    /// `{app}-r{run_index}-{label}.json`. I/O errors are kept (first
    /// wins) and surfaced by [`finalize`](Self::finalize) — a full disk
    /// must not abort in-flight simulation work.
    pub fn write_trace(&self, app: &str, run_index: usize, label: &str, trace: &TraceHandle) {
        let Some(dir) = &self.trace_dir else { return };
        let res = fs::create_dir_all(dir).and_then(|()| {
            let path = dir.join(format!("{app}-r{run_index}-{label}.json"));
            fs::write(path, trace.to_json().to_string_pretty())
        });
        if let Err(e) = res {
            lock_unpoisoned(&self.io_err).get_or_insert(e);
        }
    }

    /// Snapshot of the raw per-run metrics aggregate — the
    /// deterministic counters merged from completed runs, *before*
    /// [`finalize`](Self::finalize) folds in the timing-dependent
    /// profile and pool-batch samples. The shard worker persists this
    /// into its checkpoint so the coordinator can merge metrics across
    /// shards byte-identically to a serial run.
    pub fn registry_snapshot(&self) -> MetricsRegistry {
        lock_unpoisoned(&self.registry).clone()
    }

    /// Finishes the sweep: folds the profile and last pool snapshot
    /// into the registry, writes the metrics file when requested, and
    /// reports the first deferred trace I/O error.
    pub fn finalize(&self, metrics_out: Option<&Path>) -> io::Result<()> {
        let mut reg = lock_unpoisoned(&self.registry).clone();
        let profile = lock_unpoisoned(&self.profile).clone();
        profile.record_into(&mut reg);
        if let Some(bp) = lock_unpoisoned(&self.last_batch).as_ref() {
            bp.record_into(&mut reg);
        }
        if let Some(path) = metrics_out {
            let doc: Json = obj(vec![
                ("metrics", reg.to_json()),
                ("profile", profile.to_json()),
            ]);
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)?;
                }
            }
            fs::write(path, doc.to_string_pretty())?;
        }
        match lock_unpoisoned(&self.io_err).take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_json::FromJson;
    use cord_obs::{EventKind, TraceEvent};

    #[test]
    fn sink_aggregates_and_writes_metrics() {
        let dir = std::env::temp_dir().join(format!("cord-obs-test-{}", std::process::id()));
        let sink = ObsSink::new(Some(dir.clone()), 16);
        assert!(sink.tracing());

        let mut reg = MetricsRegistry::default();
        reg.add("sim.cycles", 10);
        sink.merge(&reg);
        sink.merge(&reg);
        sink.record_job(Duration::from_millis(5), Duration::from_millis(1));

        let trace = TraceHandle::bounded(16);
        trace.emit(|| TraceEvent {
            cycle: 3,
            thread: 0,
            kind: EventKind::MemtsBroadcast { count: 1 },
        });
        sink.write_trace("fft", 2, "CORD-D16", &trace);

        let metrics_path = dir.join("metrics.json");
        sink.finalize(Some(&metrics_path)).expect("no I/O errors");

        let doc = Json::parse(&fs::read_to_string(&metrics_path).expect("metrics written"))
            .expect("valid JSON");
        let metrics = MetricsRegistry::from_json(doc.field("metrics").expect("metrics field"))
            .expect("decodes");
        assert_eq!(metrics.counter("sim.cycles"), 20);
        assert_eq!(metrics.counter("sweep.jobs_profiled"), 1);

        let trace_doc = Json::parse(
            &fs::read_to_string(dir.join("fft-r2-CORD-D16.json")).expect("trace written"),
        )
        .expect("valid JSON");
        assert_eq!(
            trace_doc
                .field("events")
                .expect("events")
                .as_array()
                .expect("array")
                .len(),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
