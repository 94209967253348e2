//! The Ideal oracle's epoch representation is exact.
//!
//! `IdealDetector` stores each thread's last read and last write of a
//! word as an epoch (the thread's own clock component at the access)
//! and tests `epoch > clock[u]`. The reference below is the classic
//! algorithm: a full vector clock per last access and a componentwise
//! `le`. On random interleavings of sync reads and writes and data
//! reads and writes over a few threads and words, both must report
//! exactly the same races, in the same order.

use cord_clocks::vector::VectorClock;
use cord_detectors::{IdealDetector, IdealRace};
use cord_sim::observer::{AccessEvent, AccessKind, AccessPath, CoreId, MemoryObserver};
use cord_trace::layout::SYNC_BASE;
use cord_trace::types::{Addr, ThreadId};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Full-vector-clock Ideal: per word, per thread, the vector time and
/// version of the last read and last write.
struct ReferenceIdeal {
    vcs: Vec<VectorClock>,
    last_read: HashMap<u64, BTreeMap<usize, (VectorClock, u64)>>,
    last_write: HashMap<u64, BTreeMap<usize, (VectorClock, u64)>>,
    release: HashMap<u64, VectorClock>,
    races: Vec<IdealRace>,
    reported: HashSet<(u16, u64, u16, u64, bool)>,
    next_version: u64,
}

impl ReferenceIdeal {
    fn new(threads: usize) -> Self {
        ReferenceIdeal {
            vcs: (0..threads)
                .map(|t| {
                    let mut vc = VectorClock::new(threads);
                    vc.tick(t);
                    vc
                })
                .collect(),
            last_read: HashMap::new(),
            last_write: HashMap::new(),
            release: HashMap::new(),
            races: Vec::new(),
            reported: HashSet::new(),
            next_version: 0,
        }
    }

    fn on_access(&mut self, ev: &AccessEvent) {
        let t = ev.thread.index();
        let word = ev.addr.byte();
        match ev.kind {
            AccessKind::SyncWrite => {
                self.release.insert(word, self.vcs[t].clone());
                self.vcs[t].tick(t);
            }
            AccessKind::SyncRead => {
                if let Some(rel) = self.release.get(&word) {
                    self.vcs[t].join(rel);
                }
            }
            AccessKind::DataRead | AccessKind::DataWrite => {
                let is_write = ev.kind == AccessKind::DataWrite;
                self.next_version += 1;
                let my_vc = &self.vcs[t];
                let mut found = Vec::new();
                let mut scan = |lasts: Option<&BTreeMap<usize, (VectorClock, u64)>>, w: bool| {
                    for (&u, (vc, ver)) in lasts.into_iter().flatten() {
                        if u != t && !vc.le(my_vc) {
                            found.push((u as u16, *ver, w));
                        }
                    }
                };
                scan(self.last_write.get(&word), true);
                if is_write {
                    scan(self.last_read.get(&word), false);
                }
                let slot = if is_write {
                    &mut self.last_write
                } else {
                    &mut self.last_read
                };
                slot.entry(word)
                    .or_default()
                    .insert(t, (my_vc.clone(), self.next_version));
                for (u, ver, other_was_write) in found {
                    if self
                        .reported
                        .insert((ev.thread.0, word, u, ver, other_was_write))
                    {
                        self.races.push(IdealRace {
                            thread: ev.thread,
                            addr: ev.addr,
                            kind: ev.kind,
                            other_thread: ThreadId(u),
                            other_was_write,
                            instr_index: ev.instr_index,
                        });
                    }
                }
            }
        }
    }
}

/// One access: thread, kind (0 data read, 1 data write, 2 sync read,
/// 3 sync write) and which word of the kind's pool.
fn access(i: usize, (thread, kind, slot): (u16, u8, u64)) -> AccessEvent {
    let (kind, addr) = match kind {
        0 => (AccessKind::DataRead, slot * 8),
        1 => (AccessKind::DataWrite, slot * 8),
        2 => (AccessKind::SyncRead, SYNC_BASE + (slot % 3) * 64),
        _ => (AccessKind::SyncWrite, SYNC_BASE + (slot % 3) * 64),
    };
    AccessEvent {
        core: CoreId(thread as u8),
        thread: ThreadId(thread),
        addr: Addr::new(addr),
        kind,
        path: AccessPath::L1Hit,
        instr_index: i as u64,
        cycle: i as u64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn epoch_ideal_reports_exactly_the_full_vector_clock_races(
        threads in 2usize..6,
        // Data words span two lines (words 0..20); sync words are three.
        ops in proptest::collection::vec((0u16..6, 0u8..4, 0u64..20), 1..160),
    ) {
        let mut ideal = IdealDetector::new(threads);
        let mut reference = ReferenceIdeal::new(threads);
        for (i, &(thread, kind, slot)) in ops.iter().enumerate() {
            let ev = access(i, (thread % threads as u16, kind, slot));
            ideal.on_access(&ev);
            reference.on_access(&ev);
        }
        prop_assert_eq!(ideal.races(), &reference.races[..]);
    }
}
