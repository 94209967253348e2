//! Deterministic replay from the order log (§2.7.1 and §3.3).
//!
//! "Our deterministic replay orders the log by logical time and then
//! proceeds through log entries one by one. For each log entry, the
//! thread with the recorded ID has its clock value set to the recorded
//! clock value, and is then allowed to execute the recorded number of
//! instructions."
//!
//! The replayer re-executes each thread's *resolved* access stream (the
//! concrete accesses the recorded run performed, captured by the
//! simulator's ground-truth tracker) under that log-derived schedule and
//! recomputes the per-thread outcome hashes. Replay is correct iff every
//! hash matches the recorded run — i.e., every read observed the very
//! same write. Because CORD guarantees that conflicting accesses never
//! share a clock value ("only non-conflicting fragments of execution
//! from different threads can have equal logical clocks"), equal-clock
//! segments may run in any fixed order without changing the outcome.

use crate::config::CordConfig;
use crate::detector::CordDetector;
use crate::error::CordError;
use crate::record::LogEntry;
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine};
use cord_sim::truth::{GroundTruth, ResolvedAccess};
use cord_trace::program::Workload;
use cord_trace::types::ThreadId;
use std::fmt;

/// Why replay verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The log's per-thread instruction totals disagree with the run's.
    CoverageMismatch {
        /// The thread whose totals disagree.
        thread: ThreadId,
        /// Instructions the log covers.
        logged: u64,
        /// Instructions the run retired.
        executed: u64,
    },
    /// A thread's replayed outcome hash differs from the recorded one —
    /// some read observed a different write.
    OutcomeMismatch {
        /// The diverging thread.
        thread: ThreadId,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::CoverageMismatch {
                thread,
                logged,
                executed,
            } => write!(
                f,
                "log covers {logged} instructions for {thread} but the run retired {executed}"
            ),
            ReplayError::OutcomeMismatch { thread } => {
                write!(f, "replayed outcome differs from recording for {thread}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A successful replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Segments executed (log entries).
    pub segments: usize,
    /// Accesses replayed.
    pub accesses: u64,
    /// The recomputed per-thread hashes (equal to the recorded ones).
    pub thread_hashes: Vec<u64>,
}

/// Replays `log` over the per-thread `resolved` access streams and
/// checks the outcome against the recorded `original_hashes`.
///
/// `final_instrs[t]` must be thread `t`'s total retired instructions in
/// the recorded run.
///
/// # Errors
///
/// Returns [`ReplayError::CoverageMismatch`] if the log does not
/// partition each thread's instructions, or
/// [`ReplayError::OutcomeMismatch`] if any thread's replayed outcome
/// differs from the recording.
pub fn replay_and_verify(
    log: &[LogEntry],
    resolved: &[Vec<ResolvedAccess>],
    final_instrs: &[u64],
    original_hashes: &[u64],
) -> Result<ReplayReport, ReplayError> {
    let n = resolved.len();
    assert_eq!(final_instrs.len(), n);
    assert_eq!(original_hashes.len(), n);

    // Coverage check: the log partitions each thread's instructions.
    let mut logged = vec![0u64; n];
    for e in log {
        logged[e.thread.index()] += e.instructions;
    }
    for t in 0..n {
        if logged[t] != final_instrs[t] {
            return Err(ReplayError::CoverageMismatch {
                thread: ThreadId(t as u16),
                logged: logged[t],
                executed: final_instrs[t],
            });
        }
    }

    // Global schedule: logical time first; per-thread entries keep their
    // append order (log order) via the stable sort.
    let mut schedule: Vec<&LogEntry> = log.iter().collect();
    schedule.sort_by_key(|e| (e.clock, e.thread));

    // Replay: execute each segment's instructions, committing accesses
    // into a fresh tracker.
    let mut cursors = vec![0usize; n]; // index into resolved stream
    let mut instr_done = vec![0u64; n];
    let mut truth = GroundTruth::new(n, false);
    let mut accesses = 0u64;
    for e in &schedule {
        let t = e.thread.index();
        let end = instr_done[t] + e.instructions;
        let stream = &resolved[t];
        while cursors[t] < stream.len() && stream[cursors[t]].instr_index < end {
            let acc = stream[cursors[t]];
            truth.commit(e.thread, acc.instr_index, acc.addr, acc.kind);
            cursors[t] += 1;
            accesses += 1;
        }
        instr_done[t] = end;
    }

    let summary = truth.into_summary();
    for (t, original) in original_hashes.iter().enumerate() {
        if summary.thread_hashes[t] != *original {
            return Err(ReplayError::OutcomeMismatch {
                thread: ThreadId(t as u16),
            });
        }
    }

    Ok(ReplayReport {
        segments: schedule.len(),
        accesses,
        thread_hashes: summary.thread_hashes,
    })
}

/// Records one CORD run of `workload` and checks that its order log
/// replays the run exactly (§3.3's replay validation).
///
/// The run captures resolved access streams and keeps ground truth
/// (`Machine::run`), which replay needs; runs that only read statistics
/// use `Machine::run_stats` instead.
///
/// # Examples
///
/// ```
/// use cord_core::config::CordConfig;
/// use cord_core::replay::record_and_verify;
/// use cord_sim::config::MachineConfig;
/// use cord_sim::engine::InjectionPlan;
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
/// let machine = MachineConfig::paper_4core();
/// let plan = InjectionPlan::none();
/// let report = record_and_verify(&machine, &w, &CordConfig::paper(), 42, plan)?;
/// assert!(report.segments > 0);
/// # Ok::<(), cord_core::error::CordError>(())
/// ```
///
/// # Errors
///
/// Returns [`CordError::Sim`] if the recording run aborts, or
/// [`CordError::Replay`] if the log fails to reproduce it.
pub fn record_and_verify(
    machine: &MachineConfig,
    workload: &Workload,
    cfg: &CordConfig,
    seed: u64,
    plan: InjectionPlan,
) -> Result<ReplayReport, CordError> {
    let machine = machine.clone().with_resolved_capture();
    let det = CordDetector::new(cfg.clone(), workload.num_threads(), machine.cores);
    let (sim, det) = Machine::new(machine, workload, det, seed, plan).run()?;
    let resolved = sim
        .truth
        .resolved
        .as_ref()
        .ok_or(CordError::MissingResolvedStreams)?;
    Ok(replay_and_verify(
        det.recorder().entries(),
        resolved,
        &sim.stats.instr_counts,
        &sim.truth.thread_hashes,
    )?)
}

/// Concurrency available during replay (§2.7.1 notes "optimizations are
/// possible to allow some concurrency in replay" as future work).
///
/// Segments are grouped into *waves*: a wave is a maximal set of
/// consecutive (in logical time) segments with equal clock values.
/// Because CORD guarantees conflicting accesses never share a clock
/// value, every wave's segments are mutually non-conflicting and may be
/// replayed in parallel. `width` histograms how many segments each wave
/// holds; the mean width is the speedup an idealized parallel replayer
/// could extract.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayParallelism {
    /// Number of waves (sequential replay steps).
    pub waves: usize,
    /// Total segments.
    pub segments: usize,
    /// Largest wave.
    pub max_width: usize,
    /// Mean segments per wave (idealized parallel-replay speedup).
    pub mean_width: f64,
}

/// Analyzes how much concurrency a parallel replayer could extract from
/// `log` (one wave per distinct logical-time value).
pub fn replay_parallelism(log: &[LogEntry]) -> ReplayParallelism {
    let mut clocks: Vec<u64> = log.iter().map(|e| e.clock.ticks()).collect();
    clocks.sort_unstable();
    let segments = clocks.len();
    let mut waves = 0usize;
    let mut max_width = 0usize;
    let mut i = 0;
    while i < segments {
        let mut j = i + 1;
        while j < segments && clocks[j] == clocks[i] {
            j += 1;
        }
        waves += 1;
        max_width = max_width.max(j - i);
        i = j;
    }
    ReplayParallelism {
        waves,
        segments,
        max_width,
        mean_width: if waves == 0 {
            0.0
        } else {
            segments as f64 / waves as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_clocks::scalar::ScalarTime;
    use cord_sim::observer::AccessKind;
    use cord_trace::types::Addr;

    fn t(i: u16) -> ThreadId {
        ThreadId(i)
    }

    fn entry(clock: u64, thread: u16, instructions: u64) -> LogEntry {
        LogEntry {
            clock: ScalarTime::new(clock),
            thread: t(thread),
            instructions,
        }
    }

    fn acc(instr: u64, byte: u64, write: bool) -> ResolvedAccess {
        ResolvedAccess {
            instr_index: instr,
            addr: Addr::new(byte),
            kind: if write {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            },
        }
    }

    /// Recompute reference hashes by committing in a given global order.
    fn reference_hashes(commits: &[(u16, ResolvedAccess)], n: usize) -> Vec<u64> {
        let mut g = GroundTruth::new(n, false);
        for (tid, a) in commits {
            g.commit(t(*tid), a.instr_index, a.addr, a.kind);
        }
        g.into_summary().thread_hashes
    }

    #[test]
    fn replays_a_write_then_read_ordering() {
        // T0 writes X at clock 0 (1 instr), T1 reads X at clock 2.
        let resolved = vec![vec![acc(0, 0x40, true)], vec![acc(0, 0x40, false)]];
        let log = vec![entry(0, 0, 1), entry(2, 1, 1)];
        let original = reference_hashes(&[(0, acc(0, 0x40, true)), (1, acc(0, 0x40, false))], 2);
        let rep = replay_and_verify(&log, &resolved, &[1, 1], &original).expect("replay ok");
        assert_eq!(rep.segments, 2);
        assert_eq!(rep.accesses, 2);
    }

    #[test]
    fn wrong_order_is_detected() {
        // Original: T0's write before T1's read. A log claiming T1 runs
        // first replays the read before the write => hash mismatch.
        let resolved = vec![vec![acc(0, 0x40, true)], vec![acc(0, 0x40, false)]];
        let original = reference_hashes(&[(0, acc(0, 0x40, true)), (1, acc(0, 0x40, false))], 2);
        let bad_log = vec![entry(2, 0, 1), entry(0, 1, 1)];
        let err = replay_and_verify(&bad_log, &resolved, &[1, 1], &original).unwrap_err();
        assert_eq!(err, ReplayError::OutcomeMismatch { thread: t(1) });
    }

    #[test]
    fn coverage_mismatch_is_detected() {
        let resolved = vec![vec![acc(0, 0x40, true)]];
        let log = vec![entry(0, 0, 5)];
        let err = replay_and_verify(&log, &resolved, &[9], &[0]).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::CoverageMismatch {
                logged: 5,
                executed: 9,
                ..
            }
        ));
    }

    #[test]
    fn equal_clock_segments_of_nonconflicting_threads_replay() {
        // T0 and T1 each write then read a private word, both segments
        // at clock 0: no conflicts across the segments, so the tie-break
        // order (thread id) replays the recorded outcome.
        let resolved = vec![
            vec![acc(0, 0x40, true), acc(1, 0x40, false)],
            vec![acc(0, 0x80, true), acc(1, 0x80, false)],
        ];
        let original = {
            let mut g = GroundTruth::new(2, false);
            g.commit(t(0), 0, Addr::new(0x40), AccessKind::DataWrite);
            g.commit(t(0), 1, Addr::new(0x40), AccessKind::DataRead);
            g.commit(t(1), 0, Addr::new(0x80), AccessKind::DataWrite);
            g.commit(t(1), 1, Addr::new(0x80), AccessKind::DataRead);
            g.into_summary().thread_hashes
        };
        let log = vec![entry(0, 0, 2), entry(0, 1, 2)];
        let result = replay_and_verify(&log, &resolved, &[2, 2], &original);
        assert!(result.is_ok());
    }

    #[test]
    fn parallelism_counts_waves_of_equal_clocks() {
        let log = vec![
            entry(0, 0, 1),
            entry(0, 1, 1),
            entry(0, 2, 1),
            entry(5, 0, 1),
            entry(7, 1, 1),
            entry(7, 2, 1),
        ];
        let p = replay_parallelism(&log);
        assert_eq!(p.segments, 6);
        assert_eq!(p.waves, 3); // clocks {0, 5, 7}
        assert_eq!(p.max_width, 3);
        assert!((p.mean_width - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallelism_of_empty_log_is_zero() {
        let p = replay_parallelism(&[]);
        assert_eq!(p.waves, 0);
        assert_eq!(p.mean_width, 0.0);
    }

    #[test]
    fn fully_serial_log_has_unit_width() {
        let log: Vec<LogEntry> = (0..5).map(|i| entry(i * 3, 0, 1)).collect();
        let p = replay_parallelism(&log);
        assert_eq!(p.waves, 5);
        assert_eq!(p.max_width, 1);
    }

    #[test]
    fn segments_interleave_by_logical_time() {
        // T0: write A (clk 0), then write B (clk 5).
        // T1: read A (clk 2), then read B (clk 7).
        let resolved = vec![
            vec![acc(0, 0x40, true), acc(1, 0x80, true)],
            vec![acc(0, 0x40, false), acc(1, 0x80, false)],
        ];
        let original = reference_hashes(
            &[
                (0, acc(0, 0x40, true)),
                (1, acc(0, 0x40, false)),
                (0, acc(1, 0x80, true)),
                (1, acc(1, 0x80, false)),
            ],
            2,
        );
        let log = vec![
            entry(0, 0, 1),
            entry(5, 0, 1),
            entry(2, 1, 1),
            entry(7, 1, 1),
        ];
        let rep = replay_and_verify(&log, &resolved, &[2, 2], &original).expect("ok");
        assert_eq!(rep.segments, 4);
    }
}
