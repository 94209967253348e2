//! The *Ideal* data-race oracle (§4.2–§4.3).
//!
//! "The Ideal configuration uses vector clocks, unlimited caches, and an
//! unlimited number of access history entries per cache block" — it
//! detects every dynamically occurring happens-before data race and is
//! the ground truth for the problem-detection and raw-detection-rate
//! figures. (§3.2 notes this configuration is so memory-hungry that the
//! authors had to shrink input sets; our per-word, per-thread last
//! read/write vector timestamps are the compact equivalent
//! representation.)
//!
//! Algorithm (classic vector-clock race detection):
//!
//! * each thread has a vector clock, ticked after each of its
//!   synchronization writes;
//! * a synchronization write stores the writer's clock on the sync word;
//!   a synchronization read joins the stored clock into the reader
//!   (this captures exactly the race outcomes synchronization produces);
//! * each word keeps, per thread, the time of its last read and last
//!   write; a data access races with every conflicting last access that
//!   is not happens-before the accessor's current clock.
//!
//! A last access is stored as its thread's *epoch* (FastTrack's
//! representation): the accessing thread `u`'s own clock component
//! instead of its whole vector. That is exact here. A clock `C` taken
//! at `u`'s access is ordered before thread `t`'s clock `V` iff
//! `C[u] <= V[u]`: only a synchronization write publishes a clock, and
//! `u` ticks right after it, so any published clock whose `u` component
//! reaches `C[u]` was published by `u` at or after the access and
//! dominates `C`; `V` can only have learned that component by joining
//! such a clock (directly or through other threads' releases). So the
//! race test is one comparison, `epoch > V[u]`, and only a word's first
//! data access allocates (the word's row).
//!
//! No clock updates happen on data races: unlike CORD (Figure 3), the
//! oracle must keep detecting the later races a problem causes.

use cord_clocks::vector::VectorClock;
use cord_core::ShadowSpace;
use cord_sim::observer::{AccessEvent, AccessKind, MemoryObserver, ObserverOutcome};
use cord_trace::layout::dense_word_index;
use cord_trace::types::{Addr, ThreadId};
use std::collections::HashSet;

/// A data race found by the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdealRace {
    /// The thread whose access detected the race.
    pub thread: ThreadId,
    /// The racing word.
    pub addr: Addr,
    /// The detecting access's kind.
    pub kind: AccessKind,
    /// The other (earlier) thread of the racing pair.
    pub other_thread: ThreadId,
    /// Whether the earlier access was a write.
    pub other_was_write: bool,
    /// Instruction index of the detecting access.
    pub instr_index: u64,
}

/// One thread's last read or last write of a word: the thread's own
/// clock component at the access (its epoch) and the access's version
/// number. `(0, 0)` is "never accessed": epochs start at 1, so an empty
/// slot never compares as concurrent.
#[derive(Debug, Clone, Copy, Default)]
struct LastAccess {
    epoch: u64,
    version: u64,
}

/// The Ideal oracle detector.
#[derive(Debug)]
pub struct IdealDetector {
    vcs: Vec<VectorClock>,
    /// Per dense word index: 1 + the word's row in `slots`, or 0 for a
    /// word no data access has touched. Rows are allocated on first
    /// touch, so untouched words cost four bytes however many threads
    /// there are.
    rows: Vec<u32>,
    /// Touched words' rows, each `2 * threads` slots: the last write
    /// per thread, then the last read per thread.
    slots: Vec<LastAccess>,
    /// Last synchronization-write clock per sync word, indexed by the
    /// dense word index.
    release: ShadowSpace<VectorClock>,
    races: Vec<IdealRace>,
    reported: HashSet<(u16, u64, u16, u64, bool)>,
    next_version: u64,
}

impl IdealDetector {
    /// An oracle for `threads` threads.
    pub fn new(threads: usize) -> Self {
        IdealDetector {
            // Each thread starts in its own epoch 1: a thread's accesses
            // must not compare as ordered-before another thread's clock
            // until a synchronization join actually propagates them.
            vcs: (0..threads)
                .map(|t| {
                    let mut vc = VectorClock::new(threads);
                    vc.tick(t);
                    vc
                })
                .collect(),
            rows: Vec::new(),
            slots: Vec::new(),
            release: ShadowSpace::new(),
            races: Vec::new(),
            reported: HashSet::new(),
            next_version: 0,
        }
    }

    /// All data races detected.
    pub fn races(&self) -> &[IdealRace] {
        &self.races
    }

    /// Number of (deduplicated) data races detected.
    pub fn data_race_count(&self) -> u64 {
        self.races.len() as u64
    }

    /// `true` iff at least one data race was detected — the paper's
    /// criterion for an injection having *manifested* a problem.
    pub fn found_any(&self) -> bool {
        !self.races.is_empty()
    }

    /// The distinct words involved in detected races.
    pub fn raced_words(&self) -> HashSet<Addr> {
        self.races.iter().map(|r| r.addr).collect()
    }

    /// The current vector clock of a thread.
    pub fn clock_of(&self, thread: ThreadId) -> &VectorClock {
        &self.vcs[thread.index()]
    }

    /// Where `word`'s row starts in `slots`, allocating the row on
    /// first touch.
    fn row_start(&mut self, word: usize) -> usize {
        let width = 2 * self.vcs.len();
        if word >= self.rows.len() {
            self.rows.resize(word + 1, 0);
        }
        if self.rows[word] == 0 {
            self.slots
                .resize(self.slots.len() + width, LastAccess::default());
            self.rows[word] =
                u32::try_from(self.slots.len() / width).expect("touched words fit in u32");
        }
        (self.rows[word] as usize - 1) * width
    }
}

/// Records one race, once per (detecting thread, word, other thread,
/// other access, other access's mode).
fn report(
    races: &mut Vec<IdealRace>,
    reported: &mut HashSet<(u16, u64, u16, u64, bool)>,
    ev: &AccessEvent,
    other_tid: u16,
    version: u64,
    other_was_write: bool,
) {
    let key = (
        ev.thread.0,
        ev.addr.byte(),
        other_tid,
        version,
        other_was_write,
    );
    if reported.insert(key) {
        races.push(IdealRace {
            thread: ev.thread,
            addr: ev.addr,
            kind: ev.kind,
            other_thread: ThreadId(other_tid),
            other_was_write,
            instr_index: ev.instr_index,
        });
    }
}

impl cord_json::ToJson for IdealRace {
    fn to_json(&self) -> cord_json::Json {
        cord_json::obj(vec![
            ("thread", cord_json::Json::UInt(u64::from(self.thread.0))),
            ("addr", cord_json::Json::UInt(self.addr.byte())),
            (
                "kind",
                cord_json::Json::Str(cord_obs::kind_name(self.kind).to_string()),
            ),
            (
                "other_thread",
                cord_json::Json::UInt(u64::from(self.other_thread.0)),
            ),
            (
                "other_was_write",
                cord_json::Json::Bool(self.other_was_write),
            ),
            ("instr_index", cord_json::Json::UInt(self.instr_index)),
        ])
    }
}

impl cord_core::DetectorSink for IdealDetector {
    fn race_count(&self) -> u64 {
        self.data_race_count()
    }

    fn drain(&mut self) -> cord_core::SinkReport {
        use cord_json::ToJson;
        let mut report = cord_core::SinkReport::new("Ideal");
        report.race_count = self.data_race_count();
        report.races = self.races.iter().map(|r| r.to_json()).collect();
        report
    }
}

impl MemoryObserver for IdealDetector {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let t = ev.thread.index();
        match ev.kind {
            AccessKind::SyncWrite => {
                let w = dense_word_index(ev.addr);
                match self.release.get_mut(w) {
                    Some(rel) => rel.assign(&self.vcs[t]),
                    None => {
                        self.release.insert(w, self.vcs[t].clone());
                    }
                }
                self.vcs[t].tick(t);
            }
            AccessKind::SyncRead => {
                if let Some(rel) = self.release.get(dense_word_index(ev.addr)) {
                    self.vcs[t].join(rel);
                }
            }
            AccessKind::DataRead | AccessKind::DataWrite => {
                let is_write = ev.kind == AccessKind::DataWrite;
                self.next_version += 1;
                let threads = self.vcs.len();
                let start = self.row_start(dense_word_index(ev.addr));
                let row = &mut self.slots[start..start + 2 * threads];
                let my_vc = &self.vcs[t];
                // A write races with concurrent reads and writes; a read
                // races with concurrent writes only. The row holds the
                // writes first, so both are a prefix scan.
                let checked = if is_write { 2 * threads } else { threads };
                for (i, last) in row[..checked].iter().enumerate() {
                    let (u, other_was_write) = if i < threads {
                        (i, true)
                    } else {
                        (i - threads, false)
                    };
                    if u != t && last.epoch > my_vc.component(u) {
                        report(
                            &mut self.races,
                            &mut self.reported,
                            ev,
                            u as u16,
                            last.version,
                            other_was_write,
                        );
                    }
                }
                row[if is_write { t } else { threads + t }] = LastAccess {
                    epoch: my_vc.component(t),
                    version: self.next_version,
                };
            }
        }
        ObserverOutcome::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_sim::config::MachineConfig;
    use cord_sim::engine::{InjectionPlan, Machine};
    use cord_trace::builder::WorkloadBuilder;
    use cord_trace::program::Workload;

    fn run(w: &Workload, plan: InjectionPlan, seed: u64) -> IdealDetector {
        // The paper runs Ideal with infinite caches ("Ideal's L2 cache
        // is infinite and always hits").
        let mc = MachineConfig::infinite_cache();
        let det = IdealDetector::new(w.num_threads());
        let m = Machine::new(mc, w, det, seed, plan);
        let (_, det) = m.run().expect("no deadlock");
        det
    }

    fn flag_workload() -> Workload {
        let mut b = WorkloadBuilder::new("flag", 2);
        let g = b.alloc_flag();
        let d = b.alloc_words(1);
        b.thread_mut(0).compute(10_000).write(d.word(0)).flag_set(g);
        b.thread_mut(1).flag_wait(g).read(d.word(0));
        b.build()
    }

    #[test]
    fn synchronized_flag_has_no_races() {
        let det = run(&flag_workload(), InjectionPlan::none(), 1);
        assert!(det.races().is_empty(), "{:?}", det.races());
    }

    #[test]
    fn removed_flag_wait_manifests() {
        let det = run(&flag_workload(), InjectionPlan::remove_nth(0), 1);
        assert!(det.found_any());
        // With the wait removed, the consumer's read runs *before* the
        // producer's write, so the race is detected at the write against
        // the consumer's earlier read.
        let r = &det.races()[0];
        assert_eq!(r.addr, Addr::new(0));
        assert!(
            (r.thread == ThreadId(0) && r.other_thread == ThreadId(1))
                || (r.thread == ThreadId(1) && r.other_thread == ThreadId(0))
        );
        assert!(det.raced_words().contains(&Addr::new(0)));
    }

    #[test]
    fn lock_chain_transitivity_is_captured() {
        // T0 writes X under lock; T1 later (via the same lock) reads X:
        // ordered transitively through the lock handoff.
        let mut b = WorkloadBuilder::new("chain", 3);
        let l = b.alloc_lock();
        let d = b.alloc_words(2);
        b.thread_mut(0).lock(l).write(d.word(0)).unlock(l);
        b.thread_mut(1)
            .compute(8_000)
            .lock(l)
            .update(d.word(1))
            .unlock(l);
        b.thread_mut(2)
            .compute(16_000)
            .lock(l)
            .read(d.word(0))
            .unlock(l);
        let w = b.build();
        let det = run(&w, InjectionPlan::none(), 3);
        assert!(det.races().is_empty(), "{:?}", det.races());
    }

    #[test]
    fn concurrent_unsynchronized_writes_race() {
        let mut b = WorkloadBuilder::new("racy", 2);
        let d = b.alloc_words(1);
        b.thread_mut(0).write(d.word(0));
        b.thread_mut(1).write(d.word(0));
        let w = b.build();
        let det = run(&w, InjectionPlan::none(), 5);
        assert_eq!(det.data_race_count(), 1);
        assert!(det.races()[0].other_was_write);
    }

    #[test]
    fn hb_detection_is_timing_independent() {
        // Even when the accesses are far apart in physical time, missing
        // synchronization is still a race (the point of happens-before
        // detection).
        let mut b = WorkloadBuilder::new("far", 2);
        let d = b.alloc_words(1);
        b.thread_mut(0).write(d.word(0));
        b.thread_mut(1).compute(200_000).read(d.word(0));
        let w = b.build();
        let det = run(&w, InjectionPlan::none(), 7);
        assert_eq!(det.data_race_count(), 1);
    }

    #[test]
    fn redundant_lock_removal_creates_no_races() {
        // §4: "in most of these injections, we removed a dynamic
        // instance of a critical section protected by a lock that was
        // previously held by the same thread" — re-acquisitions by the
        // same thread introduce no cross-thread ordering, so removing
        // them manifests nothing.
        let mut b = WorkloadBuilder::new("redundant", 2);
        let l = b.alloc_lock();
        let d = b.alloc_line_aligned(2);
        // Each thread only ever touches its own word; the lock is
        // ordering-irrelevant.
        for t in 0..2 {
            for _ in 0..3 {
                b.thread_mut(t).lock(l).update(d.word(t as u64)).unlock(l);
            }
        }
        let w = b.build();
        for n in 0..6 {
            let det = run(&w, InjectionPlan::remove_nth(n), 11 + n);
            assert!(
                det.races().is_empty(),
                "injection {n} should not manifest: {:?}",
                det.races()
            );
        }
    }

    #[test]
    fn races_deduplicate_per_conflicting_access() {
        // Two reads of the same racy word by the same thread against the
        // same write count once.
        let mut b = WorkloadBuilder::new("dedupe", 2);
        let d = b.alloc_words(1);
        b.thread_mut(0).write(d.word(0));
        b.thread_mut(1)
            .compute(50_000)
            .read(d.word(0))
            .read(d.word(0));
        let w = b.build();
        let det = run(&w, InjectionPlan::none(), 13);
        assert_eq!(det.data_race_count(), 1);
    }
}
