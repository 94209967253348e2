//! Convenience harness: run a workload on the simulated machine with or
//! without CORD attached.

use crate::config::CordConfig;
use crate::detector::{CordDetector, CordStats, RaceReport};
use crate::error::CordError;
use crate::record::LogEntry;
use crate::replay::{replay_and_verify, ReplayReport};
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine, RunOutput};
use cord_sim::observer::NullObserver;
use cord_trace::program::Workload;

/// Everything one CORD run produces.
#[derive(Debug, Clone)]
pub struct CordOutcome {
    /// Data races reported.
    pub races: Vec<RaceReport>,
    /// The order log (already flushed).
    pub order_log: Vec<LogEntry>,
    /// Order-log size at the hardware 8-byte encoding.
    pub log_bytes: u64,
    /// Detector counters.
    pub cord_stats: CordStats,
    /// Simulator output (timing, traffic, ground truth).
    pub sim: RunOutput,
}

/// Runs workloads on a fixed machine configuration with a fixed seed.
///
/// # Examples
///
/// ```
/// use cord_core::harness::ExperimentHarness;
/// use cord_core::config::CordConfig;
/// use cord_sim::config::MachineConfig;
/// use cord_trace::builder::WorkloadBuilder;
///
/// let mut b = WorkloadBuilder::new("demo", 2);
/// let l = b.alloc_lock();
/// let d = b.alloc_words(1);
/// for t in 0..2 {
///     b.thread_mut(t).lock(l).update(d.word(0)).unlock(l);
/// }
/// let w = b.build();
///
/// let h = ExperimentHarness::new(MachineConfig::paper_4core());
/// let outcome = h.run_cord(&w, &CordConfig::paper())?;
/// assert!(outcome.races.is_empty()); // properly synchronized
/// assert!(outcome.log_bytes > 0);
/// # Ok::<(), cord_core::error::CordError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentHarness {
    machine: MachineConfig,
    seed: u64,
}

impl ExperimentHarness {
    /// A harness with the given machine configuration and seed 42.
    pub fn new(machine: MachineConfig) -> Self {
        ExperimentHarness { machine, seed: 42 }
    }

    /// Returns a copy with a different scheduling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Runs without any recording/DRD support (Figure 11's baseline).
    ///
    /// # Errors
    ///
    /// Returns [`CordError::Sim`] if the machine aborts (deadlock,
    /// livelock, or watchdog budget — reachable only under fault
    /// injection or a configured watchdog).
    pub fn run_baseline(&self, workload: &Workload) -> Result<RunOutput, CordError> {
        let m = Machine::new(
            self.machine.clone(),
            workload,
            NullObserver,
            self.seed,
            InjectionPlan::none(),
        );
        let (out, _) = m.run()?;
        Ok(out)
    }

    /// Runs with CORD attached, no fault injection.
    ///
    /// # Errors
    ///
    /// See [`ExperimentHarness::run_cord_injected`].
    pub fn run_cord(
        &self,
        workload: &Workload,
        cfg: &CordConfig,
    ) -> Result<CordOutcome, CordError> {
        self.run_cord_injected(workload, cfg, InjectionPlan::none())
    }

    /// Runs with CORD attached and a fault-injection plan (§3.4).
    ///
    /// # Errors
    ///
    /// Returns [`CordError::Sim`] if the machine aborts, or
    /// [`CordError::LogOverflow`] if the recorder exceeds
    /// `cfg.max_log_entries`.
    pub fn run_cord_injected(
        &self,
        workload: &Workload,
        cfg: &CordConfig,
        plan: InjectionPlan,
    ) -> Result<CordOutcome, CordError> {
        let det = CordDetector::new(cfg.clone(), workload.num_threads(), self.machine.cores);
        let m = Machine::new(self.machine.clone(), workload, det, self.seed, plan);
        let (sim, det) = m.run()?;
        let (races, recorder, cord_stats) = det.into_parts();
        if let Some(limit) = cfg.max_log_entries {
            let entries = recorder.entries().len() as u64;
            if entries > limit {
                return Err(CordError::LogOverflow { entries, limit });
            }
        }
        Ok(CordOutcome {
            races,
            log_bytes: recorder.bytes(),
            order_log: recorder.entries().to_vec(),
            cord_stats,
            sim,
        })
    }

    /// Records a run with resolved-stream capture and verifies that the
    /// order log replays it exactly (§3.3's replay validation).
    ///
    /// # Errors
    ///
    /// Returns [`CordError::Replay`] if the log fails to reproduce the
    /// recorded outcome, or [`CordError::Sim`] if the recording run
    /// aborts.
    pub fn verify_replay(
        &self,
        workload: &Workload,
        cfg: &CordConfig,
        plan: InjectionPlan,
    ) -> Result<ReplayReport, CordError> {
        let machine = self.machine.clone().with_resolved_capture();
        let det = CordDetector::new(cfg.clone(), workload.num_threads(), machine.cores);
        let m = Machine::new(machine, workload, det, self.seed, plan);
        let (sim, det) = m.run()?;
        let (_, recorder, _) = det.into_parts();
        let resolved = sim
            .truth
            .resolved
            .as_ref()
            .ok_or(CordError::MissingResolvedStreams)?;
        let report = replay_and_verify(
            recorder.entries(),
            resolved,
            &sim.stats.instr_counts,
            &sim.truth.thread_hashes,
        )?;
        Ok(report)
    }

    /// Relative execution time of CORD vs. the baseline (Figure 11's
    /// metric; 1.004 means 0.4% overhead).
    ///
    /// # Errors
    ///
    /// Returns the first [`CordError`] of the two underlying runs.
    pub fn overhead(&self, workload: &Workload, cfg: &CordConfig) -> Result<f64, CordError> {
        let base = self.run_baseline(workload)?;
        let cord = self.run_cord(workload, cfg)?;
        Ok(cord.sim.stats.cycles as f64 / base.stats.cycles as f64)
    }
}

// Compile-time Send/Sync audit: the parallel sweep executor builds
// harnesses, detectors, and outcomes on one thread and runs or collects
// them on pool workers. If a non-Send field ever sneaks into one of
// these types, this fails to compile rather than failing at the first
// parallel sweep.
#[allow(dead_code)]
fn _thread_safety_audit() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<ExperimentHarness>();
    sync::<ExperimentHarness>();
    send::<CordOutcome>();
    send::<crate::detector::CordDetector>();
    send::<CordError>();
    sync::<CordError>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_trace::builder::WorkloadBuilder;

    fn locked_counter_workload() -> Workload {
        let mut b = WorkloadBuilder::new("hc", 4);
        let l = b.alloc_lock();
        let bar = b.alloc_barrier();
        let d = b.alloc_line_aligned(64);
        for t in 0..4 {
            let tb = &mut b.thread_mut(t);
            for i in 0..8u64 {
                tb.lock(l)
                    .update(d.word((t as u64 * 8 + i) % 64))
                    .unlock(l)
                    .compute(100);
            }
            tb.barrier(bar);
        }
        b.build()
    }

    #[test]
    fn cord_run_produces_log_and_no_false_positives() {
        let h = ExperimentHarness::new(MachineConfig::paper_4core());
        let out = h
            .run_cord(&locked_counter_workload(), &CordConfig::paper())
            .expect("clean run completes");
        assert!(out.races.is_empty(), "false positives: {:?}", out.races);
        assert!(!out.order_log.is_empty());
        assert_eq!(out.log_bytes, out.order_log.len() as u64 * 8);
    }

    #[test]
    fn log_budget_overflow_is_reported() {
        let h = ExperimentHarness::new(MachineConfig::paper_4core());
        let w = locked_counter_workload();
        let cfg = CordConfig::paper().with_log_limit(1);
        let err = h.run_cord(&w, &cfg).expect_err("1-entry budget must blow");
        match err {
            CordError::LogOverflow { entries, limit } => {
                assert_eq!(limit, 1);
                assert!(entries > 1);
            }
            other => panic!("expected LogOverflow, got {other}"),
        }
        assert_eq!(err.kind(), "log-overflow");
        // A generous budget must not trip.
        let roomy = CordConfig::paper().with_log_limit(1 << 32);
        h.run_cord(&w, &roomy).expect("roomy budget completes");
    }

    #[test]
    fn replay_verifies_clean_run() {
        let h = ExperimentHarness::new(MachineConfig::paper_4core()).with_seed(7);
        let rep = h
            .verify_replay(
                &locked_counter_workload(),
                &CordConfig::paper(),
                InjectionPlan::none(),
            )
            .expect("replay must reproduce the recording");
        assert!(rep.segments > 0);
        assert!(rep.accesses > 0);
    }

    #[test]
    fn replay_verifies_injected_run() {
        // §3.3: "We performed numerous tests, with and without data race
        // injections, to verify that the entire execution can be
        // accurately replayed."
        let h = ExperimentHarness::new(MachineConfig::paper_4core()).with_seed(11);
        for n in 0..4 {
            h.verify_replay(
                &locked_counter_workload(),
                &CordConfig::paper(),
                InjectionPlan::remove_nth(n),
            )
            .unwrap_or_else(|e| panic!("injected replay {n} failed: {e}"));
        }
    }

    #[test]
    fn overhead_is_small() {
        let h = ExperimentHarness::new(MachineConfig::paper_4core());
        let ratio = h
            .overhead(&locked_counter_workload(), &CordConfig::paper())
            .expect("both runs complete");
        // CORD must not slow the machine by more than a few percent
        // (paper: 0.4% average, 3% worst case). On a workload this tiny
        // scheduling noise (lock handoff order shifting under the extra
        // address-bus traffic) dominates, so the band is generous; the
        // Figure 11 bench uses full-size kernels.
        assert!((0.85..1.15).contains(&ratio), "overhead ratio {ratio}");
    }
}
