//! Vector-clock detectors with realistic buffering limits (§4.3).
//!
//! These are "CORD-like schemes that use vector clocks": the same
//! two-timestamps-per-line structure with per-word access bits, the same
//! cache-residency coupling, and the same clock updates on all races —
//! but with exact happens-before comparisons instead of scalar
//! less-than. The paper sweeps three capacities:
//!
//! * **InfCache** — unlimited cache (history never evicted), still only
//!   two timestamps per line (Figure 14/15 show this alone misses 18% of
//!   raw races);
//! * **L2Cache** — history only for L2-resident lines (the baseline the
//!   Figure 16/17 clock sweeps are normalized to);
//! * **L1Cache** — history only for L1-resident lines (the severe
//!   constraint that visibly hurts problem detection).
//!
//! Displaced entries fold into whole-memory read/write *vector*
//! timestamps (the vector analogue of §2.5), comparisons against which
//! are never reported.

use cord_clocks::vector::VectorClock;
use cord_core::history::LineHistory;
use cord_core::LineTable;
use cord_sim::observer::{
    AccessEvent, AccessKind, CoreId, Level, LineRemoval, MemoryObserver, ObserverOutcome,
};
use cord_trace::types::{Addr, LineAddr, ThreadId};
use std::collections::HashSet;

/// How much cache backs the timestamp storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapacityMode {
    /// History never evicted (the paper's InfCache; pair with
    /// [`MachineConfig::infinite_cache`](cord_sim::config::MachineConfig::infinite_cache)).
    Unlimited,
    /// History exists only for lines resident at this cache level.
    Level(Level),
}

/// Configuration of a vector-clock limited detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcConfig {
    /// Timestamp entries per line (2 in all paper configurations).
    pub ts_per_line: usize,
    /// Cache capacity backing the history.
    pub capacity: CapacityMode,
    /// Join the accessor's clock with the conflicting timestamp on every
    /// race (CORD's update-on-all-races choice, Figure 3). The Ideal
    /// oracle instead never updates on data races.
    pub join_on_races: bool,
}

impl VcConfig {
    /// The InfCache configuration of §4.3.
    pub fn inf_cache() -> Self {
        VcConfig {
            ts_per_line: 2,
            capacity: CapacityMode::Unlimited,
            join_on_races: true,
        }
    }

    /// The L2Cache configuration of §4.3 (also the "vector clock"
    /// reference of Figures 12–13 and 16–17).
    pub fn l2_cache() -> Self {
        VcConfig {
            capacity: CapacityMode::Level(Level::L2),
            ..Self::inf_cache()
        }
    }

    /// The L1Cache configuration of §4.3.
    pub fn l1_cache() -> Self {
        VcConfig {
            capacity: CapacityMode::Level(Level::L1),
            ..Self::inf_cache()
        }
    }
}

/// A data race found by a vector-clock limited detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcRace {
    /// The thread whose access detected the race.
    pub thread: ThreadId,
    /// The racing word.
    pub addr: Addr,
    /// The detecting access's kind.
    pub kind: AccessKind,
    /// The core whose cached timestamp conflicted.
    pub other_core: CoreId,
    /// Instruction index of the detecting access.
    pub instr_index: u64,
}

/// One core's state for one line: its two-entry history plus what the
/// detector keeps beside it. Lives in an arena slot
/// ([`LineTable::vacate`]); a vacated slot has no entries and no shed
/// bound, and `version` and `newest_from` are read only while the
/// history has entries, which a later access rewrites first.
#[derive(Debug, Default)]
struct VcLine {
    hist: LineHistory<VectorClock>,
    /// Version number of this core's latest access to the line: the
    /// race de-duplication key for conflicts with this history.
    version: u64,
    /// `(thread, clock generation)` known to equal the newest entry's
    /// stamp, so a repeat access under an unchanged clock skips the
    /// vector comparison.
    newest_from: (usize, u64),
    /// Join of all *write-carrying* stamps displaced from this line's
    /// history while it stayed resident — the vector analogue of
    /// CORD's shed-write bound. A sync read must join this too, or a
    /// release displaced by spin-read stamps would be lost and
    /// lock-protected data would look concurrent.
    shed_writes: Option<VectorClock>,
}

/// Vector-clock detector with CORD's buffering structure.
///
/// Stamps are compared with the full vector `le`, not an epoch test: a
/// race join publishes a thread's clock into its history entries in
/// the middle of an epoch, so a stamp taken on thread `u` can carry
/// another thread's component that `u`'s own component does not imply
/// (`tests::epoch_test_would_miss_a_mid_epoch_join`).
#[derive(Debug)]
pub struct VcLimitedDetector {
    cfg: VcConfig,
    vcs: Vec<VectorClock>,
    /// Per thread: bumped whenever the thread's clock may have changed,
    /// so `(thread, generation)` names one clock value.
    gens: Vec<u64>,
    /// Per core, per line (dense line index).
    lines: Vec<LineTable<VcLine>>,
    mem_read_vc: VectorClock,
    mem_write_vc: VectorClock,
    races: Vec<VcRace>,
    reported: HashSet<(u16, u64, u8, u64)>,
    /// Per-core running join of every stamp the core's cache recorded;
    /// a thread scheduled onto the core joins it (§2.7.4's "synchronize
    /// on migration", which "also applies to vector-clock schemes").
    core_join: Vec<VectorClock>,
    /// Per core: the `(thread, generation)` last joined into
    /// `core_join`, so an unchanged clock is not joined again.
    core_joined: Vec<(usize, u64)>,
    next_version: u64,
    /// The join of the stamps one access must absorb, accumulated
    /// against the access's starting clock and applied once at the end.
    join_acc: VectorClock,
    /// Stamps freed by displacement and line removal, reused for new
    /// history entries so steady-state accesses do not allocate.
    spare: Vec<VectorClock>,
    /// Reusable buffer for entries drained on line removal.
    fold_scratch: Vec<cord_core::history::HistEntry<VectorClock>>,
}

impl VcLimitedDetector {
    /// A detector for `threads` threads on `cores` cores.
    pub fn new(cfg: VcConfig, threads: usize, cores: usize) -> Self {
        assert!(cfg.ts_per_line >= 1);
        VcLimitedDetector {
            cfg,
            // Own component starts at 1 (first epoch) so unsynchronized
            // cross-thread accesses compare as concurrent, not ordered.
            vcs: (0..threads)
                .map(|t| {
                    let mut vc = VectorClock::new(threads);
                    vc.tick(t);
                    vc
                })
                .collect(),
            gens: vec![0; threads],
            lines: (0..cores).map(|_| LineTable::new()).collect(),
            mem_read_vc: VectorClock::new(threads),
            mem_write_vc: VectorClock::new(threads),
            core_join: (0..cores).map(|_| VectorClock::new(threads)).collect(),
            core_joined: vec![(usize::MAX, 0); cores],
            races: Vec::new(),
            reported: HashSet::new(),
            next_version: 0,
            join_acc: VectorClock::new(threads),
            spare: Vec::new(),
            fold_scratch: Vec::new(),
        }
    }

    /// All data races detected.
    pub fn races(&self) -> &[VcRace] {
        &self.races
    }

    /// Number of (deduplicated) data races detected.
    pub fn data_race_count(&self) -> u64 {
        self.races.len() as u64
    }

    /// `true` iff at least one data race was detected.
    pub fn found_any(&self) -> bool {
        !self.races.is_empty()
    }

    /// The current vector clock of a thread.
    pub fn clock_of(&self, thread: ThreadId) -> &VectorClock {
        &self.vcs[thread.index()]
    }

    /// The figure label of this configuration (`InfCache`,
    /// `L2Cache(VC)`, or `L1Cache(VC)`).
    pub fn label(&self) -> &'static str {
        match self.cfg.capacity {
            CapacityMode::Unlimited => "InfCache",
            CapacityMode::Level(Level::L2) => "L2Cache(VC)",
            CapacityMode::Level(Level::L1) => "L1Cache(VC)",
        }
    }

    fn tracks_level(&self, level: Level) -> bool {
        match self.cfg.capacity {
            CapacityMode::Unlimited => level == Level::L2,
            CapacityMode::Level(l) => level == l,
        }
    }
}

impl cord_json::ToJson for VcRace {
    fn to_json(&self) -> cord_json::Json {
        cord_json::obj(vec![
            ("thread", cord_json::Json::UInt(u64::from(self.thread.0))),
            ("addr", cord_json::Json::UInt(self.addr.byte())),
            (
                "kind",
                cord_json::Json::Str(cord_obs::kind_name(self.kind).to_string()),
            ),
            (
                "other_core",
                cord_json::Json::UInt(u64::from(self.other_core.0)),
            ),
            ("instr_index", cord_json::Json::UInt(self.instr_index)),
        ])
    }
}

impl cord_core::DetectorSink for VcLimitedDetector {
    fn race_count(&self) -> u64 {
        self.data_race_count()
    }

    fn drain(&mut self) -> cord_core::SinkReport {
        use cord_json::ToJson;
        let mut report = cord_core::SinkReport::new(self.label());
        report.race_count = self.data_race_count();
        report.races = self.races.iter().map(|r| r.to_json()).collect();
        report
    }
}

/// Folds `stamp` into the access's join accumulator.
fn absorb(acc: &mut VectorClock, any: &mut bool, stamp: &VectorClock) {
    if *any {
        acc.join(stamp);
    } else {
        acc.assign(stamp);
        *any = true;
    }
}

impl MemoryObserver for VcLimitedDetector {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let t = ev.thread.index();
        let my_core = ev.core.index();
        let line = ev.addr.line();
        let word = ev.addr.word_in_line();
        let is_write = ev.kind.is_write();
        let is_sync = ev.kind.is_sync();
        let sync_read = ev.kind == AccessKind::SyncRead;
        // Synchronization always joins; a race joins only under
        // `join_on_races` (the Ideal oracle's choice is not to).
        let joins_apply = is_sync || self.cfg.join_on_races;
        let mut any_join = false;

        // -- Remote comparisons. The hardware cost model (race-check
        // broadcasts, filters) is evaluated on the CORD detector; here
        // we check remote histories on every access so the comparison
        // isolates the effect of the *clocking scheme and buffering*,
        // which is what §4.3/§4.4 vary.
        // Unlike CORD, the vector-clock configurations join only on
        // actual conflicts and synchronization: exact happens-before
        // needs no conservative response-tag ordering, which is exactly
        // why the paper's VC baseline detects *more* than CORD.
        // Every test is against the access's starting clock; the joins
        // it triggers are accumulated and applied once below.
        let my_vc = &self.vcs[t];
        for (core, table) in self.lines.iter().enumerate() {
            if core == my_core {
                continue;
            }
            let Some(l) = table.get(line) else {
                continue;
            };
            for e in l.hist.entries() {
                let conflict = e.conflicts_with(word, is_write);
                // A sync read joins every entry of the variable's line.
                if (conflict || sync_read) && !e.stamp.le(my_vc) {
                    if conflict && !is_sync {
                        let key = (ev.thread.0, ev.addr.byte(), core as u8, l.version);
                        if self.reported.insert(key) {
                            self.races.push(VcRace {
                                thread: ev.thread,
                                addr: ev.addr,
                                kind: ev.kind,
                                other_core: CoreId(core as u8),
                                instr_index: ev.instr_index,
                            });
                        }
                    }
                    if joins_apply {
                        absorb(&mut self.join_acc, &mut any_join, &e.stamp);
                    }
                }
            }
            if sync_read {
                // ...plus any displaced release stamps.
                if let Some(shed) = &l.shed_writes {
                    if !shed.le(my_vc) {
                        absorb(&mut self.join_acc, &mut any_join, shed);
                    }
                }
            }
        }

        // -- Memory path: the vector analogue of the main-memory
        // timestamps (§2.5). Never reported; joined on memory responses.
        // A write absorbs both memory clocks, a read the write clock;
        // `a ⊔ b <= c` iff `a <= c` and `b <= c`, so neither is copied.
        if ev.path.from_memory()
            && joins_apply
            && !(self.mem_write_vc.le(my_vc) && (!is_write || self.mem_read_vc.le(my_vc)))
        {
            absorb(&mut self.join_acc, &mut any_join, &self.mem_write_vc);
            if is_write {
                self.join_acc.join(&self.mem_read_vc);
            }
        }

        // -- Clock update.
        if any_join {
            self.vcs[t].join(&self.join_acc);
            self.gens[t] += 1;
        }
        let gen = self.gens[t];

        // -- Update local history with the (possibly joined) clock. A
        // new entry is pushed only when the clock differs from the
        // newest stamp, on a recycled stamp vector.
        let l = self.lines[my_core].entry_or_default(line);
        let unchanged = match l.hist.newest() {
            Some(e) => l.newest_from == (t, gen) || e.stamp == self.vcs[t],
            None => false,
        };
        l.newest_from = (t, gen);
        let displaced = if unchanged {
            None
        } else {
            let mut stamp = self.spare.pop().unwrap_or_default();
            stamp.assign(&self.vcs[t]);
            l.hist.push_stamp(stamp, self.cfg.ts_per_line)
        };
        l.hist
            .newest_mut()
            .expect("just ensured")
            .set(word, is_write);
        self.next_version += 1;
        l.version = self.next_version;
        if let Some(old) = displaced {
            if old.any_read() {
                self.mem_read_vc.join(&old.stamp);
            }
            if !old.any_written() {
                self.spare.push(old.stamp);
            } else {
                self.mem_write_vc.join(&old.stamp);
                match &mut l.shed_writes {
                    Some(vc) => {
                        vc.join(&old.stamp);
                        self.spare.push(old.stamp);
                    }
                    None => l.shed_writes = Some(old.stamp),
                }
            }
        }
        if self.core_joined[my_core] != (t, gen) {
            self.core_join[my_core].join(&self.vcs[t]);
            self.core_joined[my_core] = (t, gen);
        }

        // -- Tick after synchronization writes.
        if ev.kind == AccessKind::SyncWrite {
            self.vcs[t].tick(t);
            self.gens[t] += 1;
        }

        ObserverOutcome::NONE
    }

    fn on_thread_migrated(
        &mut self,
        thread: cord_trace::types::ThreadId,
        _from: CoreId,
        to: CoreId,
    ) {
        let t = thread.index();
        self.vcs[t].join(&self.core_join[to.index()]);
        self.gens[t] += 1;
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        if self.tracks_level(level) && self.cfg.capacity != CapacityMode::Unlimited {
            // Revive-and-reset a parked arena slot rather than allocating
            // a fresh history per fill.
            self.lines[core.index()].entry_or_default(line).hist.reset();
        }
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        if self.cfg.capacity == CapacityMode::Unlimited || !self.tracks_level(removal.level) {
            return ObserverOutcome::NONE;
        }
        let mut drained = std::mem::take(&mut self.fold_scratch);
        if let Some(l) = self.lines[removal.core.index()].vacate(removal.line) {
            self.spare.extend(l.shed_writes.take());
            l.hist.drain_into(&mut drained);
            // Capacity evictions fold into the memory vector timestamps;
            // invalidations are already covered by the requester's
            // response-tag join.
            if removal.cause == cord_sim::observer::RemovalCause::Capacity {
                for e in &drained {
                    if e.any_read() {
                        self.mem_read_vc.join(&e.stamp);
                    }
                    if e.any_written() {
                        self.mem_write_vc.join(&e.stamp);
                    }
                }
            }
        }
        self.spare.extend(drained.drain(..).map(|e| e.stamp));
        self.fold_scratch = drained;
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

    fn run_cfg(
        w: &Workload,
        cfg: VcConfig,
        mc: MachineConfig,
        plan: InjectionPlan,
        seed: u64,
    ) -> VcLimitedDetector {
        let det = VcLimitedDetector::new(cfg, w.num_threads(), mc.cores);
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
    fn synchronized_flag_clean_under_all_capacities() {
        for cfg in [
            VcConfig::inf_cache(),
            VcConfig::l2_cache(),
            VcConfig::l1_cache(),
        ] {
            let mc = if cfg.capacity == CapacityMode::Unlimited {
                MachineConfig::infinite_cache()
            } else {
                MachineConfig::paper_4core()
            };
            let det = run_cfg(&flag_workload(), cfg, mc, InjectionPlan::none(), 1);
            assert!(det.races().is_empty(), "{cfg:?}: {:?}", det.races());
        }
    }

    #[test]
    fn removed_wait_detected_by_inf_cache() {
        let det = run_cfg(
            &flag_workload(),
            VcConfig::inf_cache(),
            MachineConfig::infinite_cache(),
            InjectionPlan::remove_nth(0),
            3,
        );
        assert!(det.found_any());
    }

    #[test]
    fn removed_wait_detected_by_l2_cache() {
        let det = run_cfg(
            &flag_workload(),
            VcConfig::l2_cache(),
            MachineConfig::paper_4core(),
            InjectionPlan::remove_nth(0),
            3,
        );
        assert!(det.found_any());
    }

    #[test]
    fn capacity_pressure_hurts_detection() {
        // A racy pair separated by a large streaming working set: with
        // history limited to the L1 the writer's timestamp is displaced
        // (folded into memory, unreported) before the reader arrives,
        // while InfCache still catches it.
        let mut b = WorkloadBuilder::new("pressure", 2);
        let x = b.alloc_line_aligned(1);
        let filler = b.alloc_line_aligned(8 * 1024);
        b.thread_mut(0).write(x.word(0));
        {
            let tb = &mut b.thread_mut(0);
            for i in 0..512u64 {
                tb.write(filler.word(i * 16));
            }
        }
        b.thread_mut(1).compute(2_000_000).read(x.word(0));
        let w = b.build();
        let inf = run_cfg(
            &w,
            VcConfig::inf_cache(),
            MachineConfig::infinite_cache(),
            InjectionPlan::none(),
            5,
        );
        assert!(inf.found_any(), "InfCache must catch the race");
        let l1 = run_cfg(
            &w,
            VcConfig::l1_cache(),
            MachineConfig::paper_4core(),
            InjectionPlan::none(),
            5,
        );
        assert!(
            !l1.found_any(),
            "L1-limited history loses the displaced timestamp: {:?}",
            l1.races()
        );
    }

    #[test]
    fn epoch_test_would_miss_a_mid_epoch_join() {
        // Threads u, w, t on cores 0, 1, 2; lines A, B, C. A race join
        // gives u w's component without a tick, so u's stamp on B
        // carries w's component while u's own component is the one
        // its stamp on A had. t joins the A stamp, which makes B look
        // ordered to a bare `stamp[u] <= clock[u]` test; only the full
        // `le` still sees that B's stamp is not ordered before t.
        let (u, w, t) = (0u16, 1u16, 2u16);
        let line = |n: u64| Addr::new(n * 64);
        let (a, b, c) = (line(1), line(2), line(3));
        let mut det = VcLimitedDetector::new(VcConfig::inf_cache(), 3, 3);
        let mut instr = 0;
        let mut access = |det: &mut VcLimitedDetector, thread: u16, addr, kind| {
            instr += 1;
            det.on_access(&AccessEvent {
                core: CoreId(thread as u8),
                thread: ThreadId(thread),
                addr,
                kind,
                path: cord_sim::observer::AccessPath::L1Hit,
                instr_index: instr,
                cycle: instr,
            });
        };
        access(&mut det, w, c, AccessKind::DataWrite);
        access(&mut det, u, a, AccessKind::DataWrite);
        access(&mut det, u, c, AccessKind::DataWrite); // races with w; u joins w
        access(&mut det, u, b, AccessKind::DataWrite);
        access(&mut det, t, a, AccessKind::DataRead); // races with u; t joins u's A stamp
        assert_eq!(det.clock_of(ThreadId(t)).component(usize::from(u)), 1);
        access(&mut det, t, b, AccessKind::DataRead);
        let racy: Vec<(u16, Addr)> = det.races().iter().map(|r| (r.thread.0, r.addr)).collect();
        assert_eq!(racy, vec![(u, c), (t, a), (t, b)]);
    }

    #[test]
    fn join_on_races_suppresses_dependent_races() {
        // Figure 3: after the first race joins the clocks, the second
        // racy pair looks ordered. With join_on_races = false (oracle
        // behaviour) both are found.
        let mut b = WorkloadBuilder::new("fig3", 2);
        let x = b.alloc_line_aligned(1);
        let y = b.alloc_line_aligned(1);
        b.thread_mut(0).write(x.word(0)).write(y.word(0));
        b.thread_mut(1)
            .compute(100_000)
            .read(x.word(0))
            .read(y.word(0));
        let w = b.build();
        let joined = run_cfg(
            &w,
            VcConfig::inf_cache(),
            MachineConfig::infinite_cache(),
            InjectionPlan::none(),
            7,
        );
        let mut no_join_cfg = VcConfig::inf_cache();
        no_join_cfg.join_on_races = false;
        let independent = run_cfg(
            &w,
            no_join_cfg,
            MachineConfig::infinite_cache(),
            InjectionPlan::none(),
            7,
        );
        assert_eq!(joined.data_race_count(), 1);
        assert_eq!(independent.data_race_count(), 2);
    }
}
