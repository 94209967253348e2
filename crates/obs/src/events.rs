//! The detector event vocabulary: what a detector observes.
//!
//! The simulator drives a [`MemoryObserver`] with every memory access,
//! cache fill/removal, thread migration, and end-of-run event. Detectors
//! (CORD in `cord-core`, the vector-clock configurations in
//! `cord-detectors`) mirror the cache residency they care about from the
//! fill/removal stream and perform clock/timestamp work on the access
//! stream. An observer can report extra address-bus transactions (race
//! check requests, memory-timestamp update broadcasts, §2.7.2) which the
//! engine charges against the shared address/timestamp bus — this is how
//! CORD's (small) performance overhead arises.
//!
//! These types live in `cord-obs` (not `cord-sim`) because they are the
//! *wire vocabulary* of streaming detection: [`crate::wire`] serializes
//! them, so any producer — the simulator, a capture file, a socket —
//! can feed a detector without the detector knowing which. `cord-sim`
//! re-exports everything here as `cord_sim::observer` for source
//! compatibility.

use cord_trace::types::{Addr, LineAddr, ThreadId};
use std::fmt;

/// A core index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u8);

impl CoreId {
    /// The index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Cache level, for fill/removal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Private first-level cache.
    L1,
    /// Private second-level cache (where CORD keeps its state).
    L2,
}

/// Read or write, data or synchronization — the four access kinds CORD
/// distinguishes (§2.7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Ordinary data load.
    DataRead,
    /// Ordinary data store.
    DataWrite,
    /// Labeled synchronization load (lock spin, flag test).
    SyncRead,
    /// Labeled synchronization store (lock grab/release, flag set).
    SyncWrite,
}

impl AccessKind {
    /// `true` for stores.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::DataWrite | AccessKind::SyncWrite)
    }

    /// `true` for labeled synchronization accesses.
    #[inline]
    pub fn is_sync(self) -> bool {
        matches!(self, AccessKind::SyncRead | AccessKind::SyncWrite)
    }
}

/// How an access was satisfied, which determines both its latency and —
/// for CORD — which timestamps tag the response (§2.7.2: "Data responses
/// are tagged with the data's timestamp… Memory responses use the main
/// memory timestamps instead").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// Hit in the local L1, no bus activity.
    L1Hit,
    /// Hit in the local L2, no bus activity.
    L2Hit,
    /// Hit in a local cache but in Shared state needing a write
    /// permission upgrade — an address-bus transaction all caches snoop.
    UpgradeHit,
    /// Miss served by another core's cache (cache-to-cache transfer).
    FillFromSibling(CoreId),
    /// Miss served by main memory.
    FillFromMemory,
}

impl AccessPath {
    /// `true` when the access already involves a broadcast bus
    /// transaction that snooping caches observe (so CORD race checks
    /// piggyback for free).
    #[inline]
    pub fn has_bus_transaction(self) -> bool {
        !matches!(self, AccessPath::L1Hit | AccessPath::L2Hit)
    }

    /// `true` when the data (and therefore its timestamp context) came
    /// from main memory.
    #[inline]
    pub fn from_memory(self) -> bool {
        matches!(self, AccessPath::FillFromMemory)
    }
}

/// One memory access, as seen by an observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Core that issued the access.
    pub core: CoreId,
    /// Thread running on that core.
    pub thread: ThreadId,
    /// Word address accessed.
    pub addr: Addr,
    /// Access kind.
    pub kind: AccessKind,
    /// How the access was satisfied.
    pub path: AccessPath,
    /// The thread's instruction count *before* this access retires (the
    /// order log records instructions-per-clock-value from these).
    pub instr_index: u64,
    /// Global cycle at which the access started.
    pub cycle: u64,
}

/// Why a line left a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RemovalCause {
    /// Capacity/conflict eviction chose this line as victim.
    Capacity,
    /// A remote write (read-for-ownership) invalidated it.
    Invalidation,
}

/// A line leaving a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRemoval {
    /// Whose cache.
    pub core: CoreId,
    /// Which level.
    pub level: Level,
    /// Which line.
    pub line: LineAddr,
    /// Why it left.
    pub cause: RemovalCause,
    /// Whether the line was dirty (a write-back accompanies it).
    pub dirty: bool,
}

/// Extra bus work an observer performed for an event; the engine charges
/// it on the timestamp bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverOutcome {
    /// Race-check requests: broadcast on the timestamp bus, and the
    /// issuing instruction cannot retire until its check completes
    /// (§3.1's "rare retirement delay"), so a backed-up timestamp bus
    /// stalls the core.
    pub race_check_requests: u32,
    /// Posted (fire-and-forget) transactions: memory-timestamp update
    /// broadcasts. They occupy the timestamp bus but never stall the
    /// issuing core.
    pub posted_transactions: u32,
}

impl ObserverOutcome {
    /// No extra bus work.
    pub const NONE: ObserverOutcome = ObserverOutcome {
        race_check_requests: 0,
        posted_transactions: 0,
    };

    /// `n` race-check requests.
    pub fn race_checks(n: u32) -> Self {
        ObserverOutcome {
            race_check_requests: n,
            posted_transactions: 0,
        }
    }

    /// `n` posted broadcasts.
    pub fn posted(n: u32) -> Self {
        ObserverOutcome {
            race_check_requests: 0,
            posted_transactions: n,
        }
    }

    /// Total transactions of both kinds.
    pub fn total(&self) -> u32 {
        self.race_check_requests + self.posted_transactions
    }
}

/// Detector hook interface; all methods default to no-ops so observers
/// implement only what they need.
pub trait MemoryObserver {
    /// A memory access retired. Return any extra bus transactions the
    /// detector issued for it.
    fn on_access(&mut self, _ev: &AccessEvent) -> ObserverOutcome {
        ObserverOutcome::NONE
    }

    /// A line was filled into a cache level.
    fn on_line_filled(&mut self, _core: CoreId, _level: Level, _line: LineAddr) {}

    /// A line left a cache level (eviction or invalidation).
    fn on_line_removed(&mut self, _removal: &LineRemoval) -> ObserverOutcome {
        ObserverOutcome::NONE
    }

    /// A thread moved to a different core (§2.7.4).
    fn on_thread_migrated(&mut self, _thread: ThreadId, _from: CoreId, _to: CoreId) {}

    /// The run finished; `final_instr_counts[t]` is thread `t`'s total
    /// retired instruction count (observers flush logs here).
    fn on_run_end(&mut self, _final_instr_counts: &[u64]) {}
}

/// The baseline observer: a machine without any order-recording or DRD
/// support (the denominator of Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl MemoryObserver for NullObserver {}

#[allow(unused)]
fn _assert_observer_object_safe(_: &dyn MemoryObserver) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_classification() {
        assert!(AccessKind::DataWrite.is_write());
        assert!(AccessKind::SyncWrite.is_write());
        assert!(!AccessKind::DataRead.is_write());
        assert!(AccessKind::SyncRead.is_sync());
        assert!(!AccessKind::DataRead.is_sync());
    }

    #[test]
    fn path_bus_transaction_classification() {
        assert!(!AccessPath::L1Hit.has_bus_transaction());
        assert!(!AccessPath::L2Hit.has_bus_transaction());
        assert!(AccessPath::UpgradeHit.has_bus_transaction());
        assert!(AccessPath::FillFromSibling(CoreId(1)).has_bus_transaction());
        assert!(AccessPath::FillFromMemory.has_bus_transaction());
        assert!(AccessPath::FillFromMemory.from_memory());
        assert!(!AccessPath::FillFromSibling(CoreId(0)).from_memory());
    }

    #[test]
    fn null_observer_is_free() {
        let mut o = NullObserver;
        let ev = AccessEvent {
            core: CoreId(0),
            thread: ThreadId(0),
            addr: Addr::new(0x40),
            kind: AccessKind::DataRead,
            path: AccessPath::L1Hit,
            instr_index: 0,
            cycle: 0,
        };
        assert_eq!(o.on_access(&ev), ObserverOutcome::NONE);
    }

    #[test]
    fn outcome_constructors() {
        assert_eq!(ObserverOutcome::race_checks(2).race_check_requests, 2);
        assert_eq!(ObserverOutcome::posted(3).posted_transactions, 3);
        assert_eq!(ObserverOutcome::race_checks(2).total(), 2);
        assert_eq!(ObserverOutcome::default(), ObserverOutcome::NONE);
    }

    #[test]
    fn core_display() {
        assert_eq!(format!("{}", CoreId(2)), "P2");
    }
}
