//! Set-associative cache arrays with MESI line states and LRU
//! replacement.
//!
//! This module provides the mechanical storage layer; the coherence
//! *protocol* (who supplies data, who invalidates) lives in
//! [`crate::memsys`]. Lines are tracked by [`LineAddr`]; data values are
//! not stored — the simulator models timing and coherence, while the
//! functional outcome of each access is tracked separately by
//! [`crate::truth`].

use crate::config::CacheGeometry;
use cord_trace::types::LineAddr;

/// MESI coherence state of a cached line (absence from the cache is the
/// Invalid state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Modified: sole copy, dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly other copies, clean.
    Shared,
}

impl Mesi {
    /// `true` if this copy may be written without a bus transaction.
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }

    /// `true` if a write-back is needed when the line leaves the cache.
    #[inline]
    pub fn dirty(self) -> bool {
        matches!(self, Mesi::Modified)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: LineAddr,
    state: Mesi,
    lru: u64,
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line.
    pub line: LineAddr,
    /// Its state at eviction (dirty ⇒ write-back).
    pub state: Mesi,
}

/// Storage for the sets: one flat slot array for realistic caches; a
/// flat slot map for the paper's "infinite" configurations (eagerly
/// allocating millions of *sets* would dominate run time, but a
/// one-word-per-set index is cheap and keeps set lookup off the hash
/// path); a hash map only for geometries too large even for the slot
/// map. Every store keeps a set's entries in the same order — new
/// lines append, removals move the set's last entry into the hole — so
/// the stores differ in layout only.
#[derive(Debug, Clone)]
enum SetStore {
    /// `ways` slots per set in one allocation: set `s` owns
    /// `slots[s * ways..][..fill[s]]`. One contiguous scan per lookup,
    /// and no per-set heap block to chase.
    Dense {
        slots: Vec<Entry>,
        fill: Vec<u32>,
    },
    /// `slot_of_set[set]` is [`NO_SLOT`] until the set's first line
    /// arrives, then an index into `sets`. The slot map itself grows
    /// lazily to the highest touched set index (machines are built per
    /// run, and eagerly zeroing megabytes of slots per construction
    /// would dwarf the runs themselves); indices past its current
    /// length are untouched sets. Slot allocation order follows first
    /// touch.
    Mapped {
        slot_of_set: Vec<u32>,
        sets: Vec<Vec<Entry>>,
    },
    Sparse(std::collections::HashMap<u64, Vec<Entry>>),
}

/// Above this set count the cache stops pre-allocating every set's
/// slots.
const SPARSE_THRESHOLD: u64 = 1 << 14;

/// Above this set count even the flat slot map (4 bytes per set) is too
/// large, and the cache falls back to hashed set lookup.
const MAPPED_THRESHOLD: u64 = 1 << 22;

/// Sentinel slot for a never-touched set in [`SetStore::Mapped`].
const NO_SLOT: u32 = u32::MAX;

/// Filler for the unused slots of a [`SetStore::Dense`] set; never read.
const EMPTY_SLOT: Entry = Entry {
    line: LineAddr(0),
    state: Mesi::Shared,
    lru: 0,
};

/// Position of the least-recently-used entry of a nonempty set (LRU
/// ticks are unique, so the victim does not depend on entry order).
fn lru_position(set: &[Entry]) -> usize {
    set.iter()
        .enumerate()
        .min_by_key(|(_, e)| e.lru)
        .map(|(i, _)| i)
        .expect("full set is nonempty")
}

/// One set-associative cache array.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    sets: SetStore,
    tick: u64,
    /// `num_sets - 1`, precomputed so the per-access set index is a
    /// mask instead of a division (set counts are asserted to be powers
    /// of two at geometry construction).
    set_mask: u64,
    /// `geometry.ways`, as a slot count.
    ways: usize,
}

impl Cache {
    /// An empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let num_sets = geometry.num_sets();
        debug_assert!(num_sets.is_power_of_two());
        let ways = geometry.ways as usize;
        let sets = if num_sets <= SPARSE_THRESHOLD {
            SetStore::Dense {
                slots: vec![EMPTY_SLOT; num_sets as usize * ways],
                fill: vec![0; num_sets as usize],
            }
        } else if num_sets <= MAPPED_THRESHOLD {
            SetStore::Mapped {
                slot_of_set: Vec::new(),
                sets: Vec::new(),
            }
        } else {
            SetStore::Sparse(std::collections::HashMap::new())
        };
        Cache {
            geometry,
            sets,
            tick: 0,
            set_mask: num_sets - 1,
            ways,
        }
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> u64 {
        line.0 & self.set_mask
    }

    /// The resident entries of set `idx` (empty for an untouched set).
    #[inline]
    fn set(&self, idx: u64) -> &[Entry] {
        match &self.sets {
            SetStore::Dense { slots, fill } => {
                let base = idx as usize * self.ways;
                &slots[base..base + fill[idx as usize] as usize]
            }
            SetStore::Mapped { slot_of_set, sets } => {
                match slot_of_set.get(idx as usize).copied().unwrap_or(NO_SLOT) {
                    NO_SLOT => &[],
                    slot => &sets[slot as usize],
                }
            }
            SetStore::Sparse(m) => m.get(&idx).map_or(&[], Vec::as_slice),
        }
    }

    /// Mutable view of set `idx`'s resident entries; allocates nothing
    /// for an untouched set.
    #[inline]
    fn set_mut(&mut self, idx: u64) -> &mut [Entry] {
        match &mut self.sets {
            SetStore::Dense { slots, fill } => {
                let base = idx as usize * self.ways;
                &mut slots[base..base + fill[idx as usize] as usize]
            }
            SetStore::Mapped { slot_of_set, sets } => {
                match slot_of_set.get(idx as usize).copied().unwrap_or(NO_SLOT) {
                    NO_SLOT => &mut [],
                    slot => &mut sets[slot as usize],
                }
            }
            SetStore::Sparse(m) => m.get_mut(&idx).map_or(&mut [], Vec::as_mut_slice),
        }
    }

    /// The growable set `idx` of a [`SetStore::Mapped`] or
    /// [`SetStore::Sparse`] store, created on first touch.
    fn set_vec(&mut self, idx: u64) -> &mut Vec<Entry> {
        match &mut self.sets {
            SetStore::Dense { .. } => unreachable!("dense sets are fixed slot arrays"),
            SetStore::Mapped { slot_of_set, sets } => {
                let i = idx as usize;
                if i >= slot_of_set.len() {
                    slot_of_set.resize(i + 1, NO_SLOT);
                }
                let slot = &mut slot_of_set[i];
                if *slot == NO_SLOT {
                    *slot = u32::try_from(sets.len()).expect("set slots fit in u32");
                    sets.push(Vec::new());
                }
                &mut sets[*slot as usize]
            }
            SetStore::Sparse(m) => m.entry(idx).or_default(),
        }
    }

    /// The present entry for `line`, if any.
    #[inline]
    fn entry_mut(&mut self, line: LineAddr) -> Option<&mut Entry> {
        let idx = self.set_index(line);
        self.set_mut(idx).iter_mut().find(|e| e.line == line)
    }

    /// The state of `line` if present.
    pub fn probe(&self, line: LineAddr) -> Option<Mesi> {
        self.set(self.set_index(line))
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.state)
    }

    /// Probe and touch in one set scan: if `line` is present, marks it
    /// most-recently-used and returns its state. Equivalent to
    /// `probe(line)` followed by `touch(line)` on a hit (the LRU tick
    /// only advances on hits, exactly as a probe-then-touch pair would),
    /// but pays a single scan — the hot-path fusion the per-access
    /// pipeline relies on.
    #[inline]
    pub fn touch_probe(&mut self, line: LineAddr) -> Option<Mesi> {
        let tick = self.tick + 1;
        let e = self.entry_mut(line)?;
        e.lru = tick;
        let state = e.state;
        self.tick = tick;
        Some(state)
    }

    /// Set-state and touch in one scan: changes the state of a present
    /// line and marks it most-recently-used. Equivalent to `set_state`
    /// followed by `touch`, in one scan.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    #[inline]
    pub fn set_state_touch(&mut self, line: LineAddr, state: Mesi) {
        self.tick += 1;
        let tick = self.tick;
        let e = self
            .entry_mut(line)
            .expect("set_state_touch of absent line");
        e.state = state;
        e.lru = tick;
    }

    /// `true` if `line` is present in any state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.probe(line).is_some()
    }

    /// Marks `line` most-recently-used.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn touch(&mut self, line: LineAddr) {
        self.tick += 1;
        let tick = self.tick;
        self.entry_mut(line).expect("touch of absent line").lru = tick;
    }

    /// Changes the state of a present line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn set_state(&mut self, line: LineAddr, state: Mesi) {
        self.entry_mut(line)
            .expect("set_state of absent line")
            .state = state;
    }

    /// Inserts `line` with `state`, evicting the LRU entry of a full set.
    /// Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (callers must use
    /// [`Cache::set_state`] for state changes).
    pub fn insert(&mut self, line: LineAddr, state: Mesi) -> Option<Victim> {
        assert!(
            !self.contains(line),
            "insert of already-present line {line}"
        );
        self.tick += 1;
        let entry = Entry {
            line,
            state,
            lru: self.tick,
        };
        let ways = self.ways;
        let idx = self.set_index(line);
        let evicted = if let SetStore::Dense { slots, fill } = &mut self.sets {
            let n = &mut fill[idx as usize];
            let set = &mut slots[idx as usize * ways..][..ways];
            // Evict as `Vec::swap_remove` would, then append.
            let evicted = (*n as usize == ways).then(|| {
                let vi = lru_position(set);
                let v = set[vi];
                set[vi] = set[ways - 1];
                *n -= 1;
                v
            });
            set[*n as usize] = entry;
            *n += 1;
            evicted
        } else {
            let set = self.set_vec(idx);
            let evicted = (set.len() == ways).then(|| set.swap_remove(lru_position(set)));
            set.push(entry);
            evicted
        };
        evicted.map(|v| Victim {
            line: v.line,
            state: v.state,
        })
    }

    /// Removes `line` (invalidation); returns its prior state if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<Mesi> {
        let idx = self.set_index(line);
        let pos = self.set(idx).iter().position(|e| e.line == line)?;
        let removed = match &mut self.sets {
            SetStore::Dense { slots, fill } => {
                let n = &mut fill[idx as usize];
                let set = &mut slots[idx as usize * self.ways..][..*n as usize];
                let removed = set[pos];
                set[pos] = set[*n as usize - 1];
                *n -= 1;
                removed
            }
            _ => self.set_vec(idx).swap_remove(pos),
        };
        Some(removed.state)
    }

    /// Iterates over all resident lines and their states. Iteration
    /// order depends on the backing store; callers must not rely on it.
    pub fn lines(&self) -> impl Iterator<Item = (LineAddr, Mesi)> + '_ {
        let (dense, mapped, sparse) = match &self.sets {
            SetStore::Dense { slots, fill } => (Some((slots, fill)), None, None),
            SetStore::Mapped { sets, .. } => (None, Some(sets.iter()), None),
            SetStore::Sparse(m) => (None, None, Some(m.values())),
        };
        let dense = dense.into_iter().flat_map(|(slots, fill)| {
            slots
                .chunks(self.ways)
                .zip(fill)
                .flat_map(|(set, &n)| &set[..n as usize])
        });
        let vecs = mapped
            .into_iter()
            .flatten()
            .chain(sparse.into_iter().flatten())
            .flatten();
        dense.chain(vecs).map(|e| (e.line, e.state))
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        match &self.sets {
            SetStore::Dense { fill, .. } => fill.iter().map(|&n| n as usize).sum(),
            SetStore::Mapped { sets, .. } => sets.iter().map(Vec::len).sum(),
            SetStore::Sparse(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 2 ways x 2 sets.
        Cache::new(CacheGeometry::new(4 * 64, 2))
    }

    #[test]
    fn insert_probe_remove_roundtrip() {
        let mut c = small_cache();
        assert_eq!(c.probe(LineAddr(0)), None);
        assert!(c.insert(LineAddr(0), Mesi::Exclusive).is_none());
        assert_eq!(c.probe(LineAddr(0)), Some(Mesi::Exclusive));
        assert_eq!(c.remove(LineAddr(0)), Some(Mesi::Exclusive));
        assert_eq!(c.probe(LineAddr(0)), None);
        assert_eq!(c.remove(LineAddr(0)), None);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = small_cache();
        // Lines 0, 2, 4 all map to set 0 (even line numbers, 2 sets).
        c.insert(LineAddr(0), Mesi::Shared);
        c.insert(LineAddr(2), Mesi::Shared);
        c.touch(LineAddr(0)); // 2 is now LRU
        let v = c.insert(LineAddr(4), Mesi::Shared).expect("eviction");
        assert_eq!(v.line, LineAddr(2));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache();
        c.insert(LineAddr(0), Mesi::Shared);
        c.insert(LineAddr(1), Mesi::Shared); // odd -> set 1
        c.insert(LineAddr(2), Mesi::Shared);
        assert!(c.insert(LineAddr(3), Mesi::Shared).is_none());
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn set_state_changes_in_place() {
        let mut c = small_cache();
        c.insert(LineAddr(6), Mesi::Shared);
        c.set_state(LineAddr(6), Mesi::Modified);
        assert_eq!(c.probe(LineAddr(6)), Some(Mesi::Modified));
        assert!(Mesi::Modified.dirty());
        assert!(Mesi::Modified.writable());
        assert!(Mesi::Exclusive.writable());
        assert!(!Mesi::Shared.writable());
        assert!(!Mesi::Shared.dirty());
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_insert_panics() {
        let mut c = small_cache();
        c.insert(LineAddr(0), Mesi::Shared);
        c.insert(LineAddr(0), Mesi::Shared);
    }

    #[test]
    fn lines_iterates_everything() {
        let mut c = small_cache();
        c.insert(LineAddr(0), Mesi::Shared);
        c.insert(LineAddr(1), Mesi::Modified);
        let mut got: Vec<_> = c.lines().collect();
        got.sort_by_key(|(l, _)| l.0);
        assert_eq!(
            got,
            vec![(LineAddr(0), Mesi::Shared), (LineAddr(1), Mesi::Modified)]
        );
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use crate::config::CacheGeometry;

    #[test]
    fn huge_caches_use_mapped_storage_transparently() {
        // 256 MB, 16-way: past the dense threshold, within the slot map.
        let mut c = Cache::new(CacheGeometry::new(256 * 1024 * 1024, 16));
        assert!(matches!(c.sets, SetStore::Mapped { .. }));
        for i in 0..1000u64 {
            assert!(c.insert(LineAddr(i * 7919), Mesi::Shared).is_none());
        }
        assert_eq!(c.occupancy(), 1000);
        assert_eq!(c.probe(LineAddr(7919)), Some(Mesi::Shared));
        c.set_state(LineAddr(7919), Mesi::Modified);
        c.touch(LineAddr(7919));
        assert_eq!(c.remove(LineAddr(7919)), Some(Mesi::Modified));
        assert_eq!(c.occupancy(), 999);
        assert_eq!(c.lines().count(), 999);
        assert_eq!(c.remove(LineAddr(424242)), None);
    }

    #[test]
    fn paper_caches_stay_dense() {
        let c = Cache::new(CacheGeometry::new(32 * 1024, 8));
        assert!(matches!(c.sets, SetStore::Dense { .. }));
    }

    #[test]
    fn oversized_caches_fall_back_to_sparse_storage() {
        // Direct-mapped 512 MB: 2^23 sets, past the slot-map threshold.
        let mut c = Cache::new(CacheGeometry::new(512 * 1024 * 1024, 1));
        assert!(matches!(c.sets, SetStore::Sparse(_)));
        for i in 0..100u64 {
            assert!(c.insert(LineAddr(i * 104_729), Mesi::Shared).is_none());
        }
        assert_eq!(c.occupancy(), 100);
        assert_eq!(c.lines().count(), 100);
        assert_eq!(c.remove(LineAddr(104_729)), Some(Mesi::Shared));
        assert_eq!(c.occupancy(), 99);
    }
}
