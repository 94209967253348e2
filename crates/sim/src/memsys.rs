//! The coherent memory hierarchy: private L1/L2 per core, MESI over a
//! pluggable [`CoherenceBackend`], and main memory.
//!
//! Invariants maintained:
//!
//! * **Inclusion**: every L1-resident line is L2-resident on the same
//!   core; evicting an L2 line removes the L1 copy.
//! * **State mirroring**: when a line is in both levels its MESI state is
//!   the same in both, so only L2 states matter for coherence decisions.
//! * **MESI**: at most one core holds a line Modified/Exclusive; Shared
//!   copies coexist.
//!
//! Every access returns its completion time, its [`AccessPath`] (which
//! tells CORD whether a bus transaction already broadcast the access and
//! whether the response carries cache or memory timestamps), and the
//! ordered list of fill/removal events detectors use to mirror cache
//! residency.

use crate::bus::Buses;
use crate::cache::{Cache, Mesi};
use crate::coherence::{BackendEnum, CoherenceBackend, CoherenceStats};
use crate::config::MachineConfig;
use crate::observer::{AccessPath, CoreId, Level, LineRemoval, RemovalCause};
use cord_trace::types::{Addr, LineAddr};

/// A cache-residency change, delivered to observers in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// A line left a cache level.
    Removed(LineRemoval),
    /// A line was installed into a cache level.
    Filled {
        /// Whose cache.
        core: CoreId,
        /// Which level.
        level: Level,
        /// Which line.
        line: LineAddr,
    },
}

/// Result of one memory access.
#[derive(Debug, Clone)]
pub struct AccessResult {
    /// Cycle at which the access completes.
    pub done: u64,
    /// How the access was satisfied.
    pub path: AccessPath,
    /// Residency changes, in the order they must be observed (victims
    /// before fills).
    pub events: Vec<MemEvent>,
}

/// The memory hierarchy of the whole machine.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MachineConfig,
    /// Shared buses (public so the engine can charge observer-issued
    /// address-bus transactions and read statistics).
    pub buses: Buses,
    backend: BackendEnum,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    /// The event buffer the next access fills: handed out in its
    /// [`AccessResult`] and returned through [`MemorySystem::recycle`],
    /// so a steady stream of accesses reuses one allocation.
    spare_events: Vec<MemEvent>,
}

impl MemorySystem {
    /// An empty hierarchy for `cfg.cores` cores.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let backend = BackendEnum::for_config(&cfg);
        let l1 = (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect();
        let l2 = (0..cfg.cores).map(|_| Cache::new(cfg.l2)).collect();
        MemorySystem {
            cfg,
            buses: Buses::new(),
            backend,
            l1,
            l2,
            spare_events: Vec::new(),
        }
    }

    /// Hands back a delivered [`AccessResult::events`] buffer for the
    /// next access to refill.
    pub(crate) fn recycle(&mut self, mut events: Vec<MemEvent>) {
        events.clear();
        self.spare_events = events;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Counters the coherence backend accumulated (all-zero when
    /// snooping).
    pub fn coherence_stats(&self) -> CoherenceStats {
        self.backend.stats()
    }

    /// Read-only view of a core's L2 (used by tests and debugging).
    pub fn l2_of(&self, core: CoreId) -> &Cache {
        &self.l2[core.index()]
    }

    /// Read-only view of a core's L1.
    pub fn l1_of(&self, core: CoreId) -> &Cache {
        &self.l1[core.index()]
    }

    /// Performs one word access by `core` starting at cycle `now`.
    pub fn access(&mut self, core: CoreId, addr: Addr, write: bool, now: u64) -> AccessResult {
        let line = addr.line();
        let c = core.index();
        let mut events = std::mem::take(&mut self.spare_events);

        // ---- L1 probe ----
        // `touch_probe` fuses the hit test with the LRU touch into one
        // set scan; the tick sequence is identical to the previous
        // probe-then-touch pair (self-core ticks only ever advance on
        // self-core touches, so bumping before `invalidate_others` —
        // which touches *other* cores' caches — changes nothing).
        if let Some(state) = self.l1[c].touch_probe(line) {
            if !write || state.writable() {
                if write && state == Mesi::Exclusive {
                    self.l1[c].set_state(line, Mesi::Modified);
                    self.l2[c].set_state_touch(line, Mesi::Modified);
                } else {
                    self.l2[c].touch(line);
                }
                return AccessResult {
                    done: now + self.cfg.l1_hit_cycles,
                    path: AccessPath::L1Hit,
                    events,
                };
            }
            // Write to a Shared line: permission upgrade.
            let granted = self.backend.request(&mut self.buses, now, line);
            self.invalidate_others(core, line, &mut events);
            self.l1[c].set_state(line, Mesi::Modified);
            self.l2[c].set_state_touch(line, Mesi::Modified);
            return AccessResult {
                done: self.backend.upgrade_done(
                    &mut self.buses,
                    granted,
                    line,
                    self.cfg.l1_hit_cycles,
                ),
                path: AccessPath::UpgradeHit,
                events,
            };
        }

        // ---- L2 probe ----
        if let Some(state) = self.l2[c].touch_probe(line) {
            if !write || state.writable() {
                let l1_state = if write {
                    self.l2[c].set_state(line, Mesi::Modified);
                    Mesi::Modified
                } else {
                    state
                };
                self.fill_l1(core, line, l1_state, &mut events);
                return AccessResult {
                    done: now + self.cfg.l2_hit_cycles,
                    path: AccessPath::L2Hit,
                    events,
                };
            }
            // Write to Shared in L2: upgrade.
            let granted = self.backend.request(&mut self.buses, now, line);
            self.invalidate_others(core, line, &mut events);
            self.l2[c].set_state(line, Mesi::Modified);
            self.fill_l1(core, line, Mesi::Modified, &mut events);
            return AccessResult {
                done: self.backend.upgrade_done(
                    &mut self.buses,
                    granted,
                    line,
                    self.cfg.l2_hit_cycles,
                ),
                path: AccessPath::UpgradeHit,
                events,
            };
        }

        // ---- Full miss: coherence transaction ----
        let granted = self.backend.request(&mut self.buses, now, line);

        // One scan over the other cores finds the supplier — the first
        // owner (M/E), else the first holder — and, on a read, also
        // downgrades every holder to Shared; a Modified holder's data
        // also updates memory (posted write-back, charged by the
        // backend). A write's read-for-ownership invalidates them all
        // afterwards.
        let mut first_holder = None;
        let mut owner = None;
        let mut dirty_writebacks = 0;
        for h in (0..self.cfg.cores).filter(|&h| h != c) {
            let Some(st) = self.l2[h].probe(line) else {
                continue;
            };
            first_holder.get_or_insert(h);
            if owner.is_none() && st.writable() {
                owner = Some(h);
            }
            if !write && st != Mesi::Shared {
                dirty_writebacks += usize::from(st.dirty());
                self.l2[h].set_state(line, Mesi::Shared);
                if self.l1[h].contains(line) {
                    self.l1[h].set_state(line, Mesi::Shared);
                }
            }
        }

        let (path, done, fill_state) = match owner.or(first_holder) {
            None => {
                // Memory supplies.
                let state = if write {
                    Mesi::Modified
                } else {
                    Mesi::Exclusive
                };
                (
                    AccessPath::FillFromMemory,
                    self.backend
                        .memory_fill_done(&mut self.buses, granted, line),
                    state,
                )
            }
            Some(supplier) => {
                if write {
                    self.invalidate_others(core, line, &mut events);
                }
                let done = self.backend.sibling_fill_done(
                    &mut self.buses,
                    granted,
                    line,
                    dirty_writebacks,
                );
                let state = if write { Mesi::Modified } else { Mesi::Shared };
                (
                    AccessPath::FillFromSibling(CoreId(supplier as u8)),
                    done,
                    state,
                )
            }
        };

        self.fill_l2(core, line, fill_state, &mut events);
        self.fill_l1(core, line, fill_state, &mut events);

        AccessResult { done, path, events }
    }

    /// Invalidates every other core's copy of `line`, recording removal
    /// events (L1 before L2 per core).
    fn invalidate_others(&mut self, requester: CoreId, line: LineAddr, events: &mut Vec<MemEvent>) {
        for h in 0..self.cfg.cores {
            if h == requester.index() {
                continue;
            }
            if let Some(st) = self.l1[h].remove(line) {
                events.push(MemEvent::Removed(LineRemoval {
                    core: CoreId(h as u8),
                    level: Level::L1,
                    line,
                    cause: RemovalCause::Invalidation,
                    dirty: st.dirty(),
                }));
            }
            if let Some(st) = self.l2[h].remove(line) {
                events.push(MemEvent::Removed(LineRemoval {
                    core: CoreId(h as u8),
                    level: Level::L2,
                    line,
                    cause: RemovalCause::Invalidation,
                    dirty: st.dirty(),
                }));
            }
        }
    }

    /// Installs `line` into `core`'s L1, evicting as needed. The evicted
    /// line needs no write-back: state mirroring means the L2 copy is
    /// already Modified whenever the L1 copy is.
    fn fill_l1(&mut self, core: CoreId, line: LineAddr, state: Mesi, events: &mut Vec<MemEvent>) {
        let c = core.index();
        if self.l1[c].contains(line) {
            self.l1[c].set_state(line, state);
            self.l1[c].touch(line);
            return;
        }
        if let Some(victim) = self.l1[c].insert(line, state) {
            events.push(MemEvent::Removed(LineRemoval {
                core,
                level: Level::L1,
                line: victim.line,
                cause: RemovalCause::Capacity,
                dirty: victim.state.dirty(),
            }));
        }
        events.push(MemEvent::Filled {
            core,
            level: Level::L1,
            line,
        });
    }

    /// Installs `line` into `core`'s L2, evicting as needed; a dirty
    /// victim posts a write-back on the memory bus, and inclusion removes
    /// the victim's L1 copy.
    fn fill_l2(&mut self, core: CoreId, line: LineAddr, state: Mesi, events: &mut Vec<MemEvent>) {
        let c = core.index();
        if let Some(victim) = self.l2[c].insert(line, state) {
            if self.l1[c].remove(victim.line).is_some() {
                events.push(MemEvent::Removed(LineRemoval {
                    core,
                    level: Level::L1,
                    line: victim.line,
                    cause: RemovalCause::Capacity,
                    dirty: victim.state.dirty(),
                }));
            }
            if victim.state.dirty() {
                // Posted write-back; does not delay the access.
                let at = self.buses.mem.free_at();
                self.buses.mem.acquire(at, self.cfg.mem_bus_line_occupancy);
            }
            events.push(MemEvent::Removed(LineRemoval {
                core,
                level: Level::L2,
                line: victim.line,
                cause: RemovalCause::Capacity,
                dirty: victim.state.dirty(),
            }));
        }
        events.push(MemEvent::Filled {
            core,
            level: Level::L2,
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MachineConfig::paper_4core())
    }

    fn a(byte: u64) -> Addr {
        Addr::new(byte)
    }

    #[test]
    fn cold_read_fills_from_memory_exclusive() {
        let mut m = sys();
        let r = m.access(CoreId(0), a(0x40), false, 0);
        assert_eq!(r.path, AccessPath::FillFromMemory);
        assert!(r.done >= m.cfg.memory_cycles);
        assert_eq!(
            m.l2_of(CoreId(0)).probe(a(0x40).line()),
            Some(Mesi::Exclusive)
        );
        assert_eq!(
            m.l1_of(CoreId(0)).probe(a(0x40).line()),
            Some(Mesi::Exclusive)
        );
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = sys();
        m.access(CoreId(0), a(0x40), false, 0);
        let r = m.access(CoreId(0), a(0x44), false, 1000);
        assert_eq!(r.path, AccessPath::L1Hit);
        assert_eq!(r.done, 1000 + m.cfg.l1_hit_cycles);
    }

    #[test]
    fn write_after_exclusive_read_is_silent_upgrade() {
        let mut m = sys();
        m.access(CoreId(0), a(0x40), false, 0);
        let r = m.access(CoreId(0), a(0x40), true, 1000);
        assert_eq!(r.path, AccessPath::L1Hit); // E -> M without bus
        assert_eq!(
            m.l2_of(CoreId(0)).probe(a(0x40).line()),
            Some(Mesi::Modified)
        );
    }

    #[test]
    fn cross_core_read_is_cache_to_cache_and_shared() {
        let mut m = sys();
        m.access(CoreId(0), a(0x40), true, 0);
        let r = m.access(CoreId(1), a(0x40), false, 1000);
        assert_eq!(r.path, AccessPath::FillFromSibling(CoreId(0)));
        // Supplier downgraded to Shared (with posted write-back).
        assert_eq!(m.l2_of(CoreId(0)).probe(a(0x40).line()), Some(Mesi::Shared));
        assert_eq!(m.l2_of(CoreId(1)).probe(a(0x40).line()), Some(Mesi::Shared));
        // Much faster than memory.
        assert!(r.done - 1000 < m.cfg.memory_cycles);
    }

    #[test]
    fn write_to_shared_line_upgrades_and_invalidates() {
        let mut m = sys();
        m.access(CoreId(0), a(0x40), false, 0);
        m.access(CoreId(1), a(0x40), false, 1000);
        let r = m.access(CoreId(1), a(0x40), true, 2000);
        assert_eq!(r.path, AccessPath::UpgradeHit);
        assert_eq!(m.l2_of(CoreId(0)).probe(a(0x40).line()), None);
        assert_eq!(
            m.l2_of(CoreId(1)).probe(a(0x40).line()),
            Some(Mesi::Modified)
        );
        // Core 0 saw invalidation removals for L1 and L2.
        let removals: Vec<_> = r
            .events
            .iter()
            .filter_map(|e| match e {
                MemEvent::Removed(rm) => Some(*rm),
                _ => None,
            })
            .collect();
        assert!(removals
            .iter()
            .any(|rm| rm.level == Level::L2 && rm.cause == RemovalCause::Invalidation));
    }

    #[test]
    fn rfo_invalidates_all_holders() {
        let mut m = sys();
        m.access(CoreId(0), a(0x40), false, 0);
        m.access(CoreId(1), a(0x40), false, 1000);
        // Core 2 writes: full miss with two holders.
        let r = m.access(CoreId(2), a(0x40), true, 2000);
        assert!(matches!(r.path, AccessPath::FillFromSibling(_)));
        assert_eq!(m.l2_of(CoreId(0)).probe(a(0x40).line()), None);
        assert_eq!(m.l2_of(CoreId(1)).probe(a(0x40).line()), None);
        assert_eq!(
            m.l2_of(CoreId(2)).probe(a(0x40).line()),
            Some(Mesi::Modified)
        );
    }

    #[test]
    fn capacity_eviction_emits_removal_and_maintains_inclusion() {
        let mut m = sys();
        let sets = m.cfg.l2.num_sets();
        let ways = u64::from(m.cfg.l2.ways);
        // Fill one L2 set past capacity: lines k*sets for k in 0..=ways.
        let mut evicted = None;
        for k in 0..=ways {
            let addr = Addr::new(k * sets * 64);
            let r = m.access(CoreId(0), addr, true, k * 10_000);
            for e in &r.events {
                if let MemEvent::Removed(rm) = e {
                    if rm.level == Level::L2 && rm.cause == RemovalCause::Capacity {
                        evicted = Some(*rm);
                    }
                }
            }
        }
        let rm = evicted.expect("an L2 capacity eviction");
        assert!(rm.dirty, "written lines evict dirty");
        // Inclusion: the evicted line is gone from L1 too.
        assert!(!m.l1_of(CoreId(0)).contains(rm.line));
    }

    #[test]
    fn contention_delays_back_to_back_misses() {
        let mut m = sys();
        // Two cores miss to memory at the same cycle; the second is
        // delayed by bus arbitration.
        let r0 = m.access(CoreId(0), a(0x1000), false, 0);
        let r1 = m.access(CoreId(1), a(0x2000), false, 0);
        assert!(r1.done > r0.done);
        assert!(m.buses.addr.contention_cycles() > 0 || m.buses.mem.contention_cycles() > 0);
    }

    #[test]
    fn state_mirroring_invariant_holds_after_traffic() {
        let mut m = sys();
        let addrs = [0x40u64, 0x80, 0x40, 0x1040, 0x40, 0x2040];
        for (i, &b) in addrs.iter().enumerate() {
            let core = CoreId((i % 4) as u8);
            m.access(core, a(b), i % 2 == 0, (i as u64) * 500);
        }
        for c in 0..4 {
            let core = CoreId(c);
            for (line, l1st) in m.l1_of(core).lines().collect::<Vec<_>>() {
                let l2st = m.l2_of(core).probe(line);
                assert_eq!(l2st, Some(l1st), "L1/L2 state mismatch for {line}");
            }
        }
    }
}

#[cfg(test)]
mod directory_tests {
    use super::*;
    use crate::config::CoherenceKind;

    #[test]
    fn directory_mode_slows_transfers_and_upgrades() {
        let snoop_cfg = MachineConfig::paper_4core();
        let dir_cfg = MachineConfig::paper_4core_directory();
        assert_eq!(dir_cfg.coherence, CoherenceKind::Directory);

        let run = |cfg: MachineConfig| {
            let mut m = MemorySystem::new(cfg);
            m.access(CoreId(0), Addr::new(0x40), true, 0);
            // Cache-to-cache transfer.
            let c2c = m.access(CoreId(1), Addr::new(0x40), false, 10_000);
            // Upgrade from Shared.
            let upg = m.access(CoreId(1), Addr::new(0x40), true, 20_000);
            (c2c.done - 10_000, upg.done - 20_000)
        };
        let (snoop_c2c, snoop_upg) = run(snoop_cfg.clone());
        let (dir_c2c, dir_upg) = run(dir_cfg.clone());
        // Uncontended, the directory's indirection costs exactly one
        // address hop + home lookup + one forwarding hop on both paths.
        let indirection = dir_cfg.addr_bus_slot_cycles
            + dir_cfg.directory_lookup_cycles
            + dir_cfg.directory_forward_cycles;
        assert_eq!(dir_c2c, snoop_c2c + indirection);
        // Snooping upgrades already pay the broadcast slot; the
        // directory replaces that slot's drain with the forward hop.
        assert_eq!(
            dir_upg,
            snoop_upg + dir_cfg.directory_lookup_cycles + dir_cfg.directory_forward_cycles
        );
    }

    #[test]
    fn directory_pays_lookup_before_memory_fills() {
        let run = |cfg: MachineConfig| {
            let mut m = MemorySystem::new(cfg);
            m.access(CoreId(0), Addr::new(0x40), false, 0).done
        };
        let dir_cfg = MachineConfig::paper_4core_directory();
        // The home lookup is on the critical path of a memory fetch
        // (no forward: the directory sits at the memory controller).
        assert_eq!(
            run(dir_cfg.clone()),
            run(MachineConfig::paper_4core())
                + dir_cfg.addr_bus_slot_cycles
                + dir_cfg.directory_lookup_cycles
        );
    }

    #[test]
    fn backend_stats_count_directory_work_only() {
        let mut snoop = MemorySystem::new(MachineConfig::paper_4core());
        let mut dir = MemorySystem::new(MachineConfig::paper_4core_directory());
        for m in [&mut snoop, &mut dir] {
            m.access(CoreId(0), Addr::new(0x40), true, 0);
            m.access(CoreId(1), Addr::new(0x40), false, 10_000);
            m.access(CoreId(1), Addr::new(0x40), true, 20_000);
        }
        assert_eq!(
            snoop.coherence_stats(),
            crate::coherence::CoherenceStats::default()
        );
        let s = dir.coherence_stats();
        assert_eq!(s.directory_lookups, 3);
        assert_eq!(s.directory_forwards, 2); // sibling fill + upgrade
        assert!(s.home_busy_cycles > 0);
    }

    #[test]
    fn coherence_states_identical_across_kinds() {
        // Functional behaviour (who holds what) must not depend on the
        // coherence organization — only timing does.
        let trace = [
            (0u8, 0x40u64, true),
            (1, 0x40, false),
            (2, 0x40, true),
            (1, 0x80, true),
            (0, 0x80, false),
        ];
        let run = |cfg: MachineConfig| {
            let mut m = MemorySystem::new(cfg);
            let mut now = 0;
            for &(c, a, w) in &trace {
                now = m.access(CoreId(c), Addr::new(a), w, now + 100).done;
            }
            (0..4)
                .map(|c| {
                    let mut lines: Vec<_> = m.l2_of(CoreId(c)).lines().collect();
                    lines.sort_by_key(|(l, _)| l.0);
                    lines
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(MachineConfig::paper_4core()),
            run(MachineConfig::paper_4core_directory())
        );
    }
}
