//! Address-space layout: where data and synchronization objects live.
//!
//! Synchronization variables are ordinary memory locations in the paper —
//! what distinguishes them is that the (modified) synchronization library
//! accesses them with labeled instructions. The layout gives every lock
//! and flag its own cache line in a dedicated region above the data heap
//! so workload generators can lay out data freely below it, and so a
//! barrier's constituent objects (its internal mutex, its two
//! sense-reversing flags, and its arrival counter word) resolve to stable
//! addresses.

use crate::types::{
    Addr, AtomicId, BarrierId, FlagId, LineAddr, LockId, LINE_BYTES, WORDS_PER_LINE,
};

/// First byte of the synchronization-object region. Data allocations must
/// stay below this.
pub const SYNC_BASE: u64 = 0x1000_0000;

/// First *line* of the synchronization-object region
/// ([`SYNC_BASE`]` / LINE_BYTES`).
pub const SYNC_BASE_LINE: u64 = SYNC_BASE / LINE_BYTES;

/// Maps a line address to its dense line index.
///
/// The workload address space has two live bands — the data heap
/// growing up from zero and the sync-object region at [`SYNC_BASE`] —
/// so raw line numbers are unusable as vector indices (the sync band
/// starts at line 4M). Interleaving the two bands closes the gap with
/// pure arithmetic: data line `L` maps to `2L`, the `o`-th sync line to
/// `2o + 1`. The mapping is total, injective, and layout-independent,
/// which lets shadow state index flat vectors instead of hashing per
/// access while keeping detector constructors free of layout plumbing.
#[inline]
pub fn dense_line_index(line: LineAddr) -> usize {
    if line.0 >= SYNC_BASE_LINE {
        (((line.0 - SYNC_BASE_LINE) << 1) | 1) as usize
    } else {
        (line.0 << 1) as usize
    }
}

/// Maps a word address to its dense word index:
/// `dense_line_index(line) * 16 + word_in_line`.
#[inline]
pub fn dense_word_index(addr: Addr) -> usize {
    dense_line_index(addr.line()) * WORDS_PER_LINE as usize + addr.word_in_line()
}

/// Up-front capacity bounds for [`dense_line_index`] /
/// [`dense_word_index`] under a given [`AddressLayout`] — the footprint
/// is known before a run starts, so shadow structures can pre-size
/// their vectors instead of growing on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseLineMap {
    line_capacity: usize,
}

impl DenseLineMap {
    /// Capacity bounds for `layout`. The data heap is laid out from
    /// address zero (as the workload builder does), and
    /// `Workload::validate` rejects a data access past it, so every
    /// line a valid workload touches is inside the bound.
    pub fn new(layout: &AddressLayout) -> Self {
        let data_lines = layout.data_words().div_ceil(WORDS_PER_LINE);
        let sync_lines = u64::from(layout.total_locks())
            + u64::from(layout.total_flags())
            + u64::from(layout.barriers())
            + u64::from(layout.user_atomics());
        let max_index = (2 * data_lines).max(2 * sync_lines);
        DenseLineMap {
            line_capacity: max_index as usize,
        }
    }

    /// One past the largest dense *line* index the layout can produce.
    pub fn line_capacity(&self) -> usize {
        self.line_capacity
    }

    /// One past the largest dense *word* index the layout can produce.
    pub fn word_capacity(&self) -> usize {
        self.line_capacity * WORDS_PER_LINE as usize
    }
}

/// Maps synchronization object IDs to memory addresses.
///
/// Lock and flag IDs are split into *user* IDs (allocated by the workload
/// builder) followed by *barrier-internal* IDs: barrier `b` owns lock
/// `user_locks + b` and flags `user_flags + 2b` / `user_flags + 2b + 1`
/// (the two sense-reversing generations).
///
/// # Examples
///
/// ```
/// use cord_trace::layout::AddressLayout;
/// use cord_trace::types::{BarrierId, LockId};
///
/// let l = AddressLayout::new(2, 1, 1, 4096);
/// // Barrier 0's internal mutex is lock id 2 (after the 2 user locks).
/// assert_eq!(l.barrier_lock(BarrierId(0)), LockId(2));
/// // Every sync object gets its own cache line.
/// assert_ne!(
///     l.lock_addr(LockId(0)).line(),
///     l.lock_addr(LockId(1)).line()
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressLayout {
    user_locks: u32,
    user_flags: u32,
    barriers: u32,
    atomics: u32,
    data_words: u64,
}

impl AddressLayout {
    /// Creates a layout for the given object counts and data-heap size
    /// (in words).
    pub fn new(user_locks: u32, user_flags: u32, barriers: u32, data_words: u64) -> Self {
        AddressLayout {
            user_locks,
            user_flags,
            barriers,
            atomics: 0,
            data_words,
        }
    }

    /// The same layout with `atomics` atomic RMW words (each on its own
    /// line, after the barrier counters so pre-atomic layouts keep their
    /// addresses byte for byte).
    #[must_use]
    pub fn with_atomics(mut self, atomics: u32) -> Self {
        self.atomics = atomics;
        self
    }

    /// Number of user-allocated atomic words.
    pub fn user_atomics(&self) -> u32 {
        self.atomics
    }

    /// Number of user-allocated locks.
    pub fn user_locks(&self) -> u32 {
        self.user_locks
    }

    /// Number of user-allocated flags.
    pub fn user_flags(&self) -> u32 {
        self.user_flags
    }

    /// Number of barriers.
    pub fn barriers(&self) -> u32 {
        self.barriers
    }

    /// Size of the data heap in words.
    pub fn data_words(&self) -> u64 {
        self.data_words
    }

    /// Total locks including one internal lock per barrier.
    pub fn total_locks(&self) -> u32 {
        self.user_locks + self.barriers
    }

    /// Total flags including two internal flags per barrier.
    pub fn total_flags(&self) -> u32 {
        self.user_flags + 2 * self.barriers
    }

    /// Address of a lock word (one line per lock).
    ///
    /// # Panics
    ///
    /// Panics if the ID is out of range (≥ [`AddressLayout::total_locks`]).
    pub fn lock_addr(&self, lock: LockId) -> Addr {
        assert!(
            lock.0 < self.total_locks(),
            "lock id {} out of range",
            lock.0
        );
        Addr::new(SYNC_BASE + u64::from(lock.0) * LINE_BYTES)
    }

    /// Address of a flag word (one line per flag, after all locks).
    ///
    /// # Panics
    ///
    /// Panics if the ID is out of range (≥ [`AddressLayout::total_flags`]).
    pub fn flag_addr(&self, flag: FlagId) -> Addr {
        assert!(
            flag.0 < self.total_flags(),
            "flag id {} out of range",
            flag.0
        );
        let base = SYNC_BASE + u64::from(self.total_locks()) * LINE_BYTES;
        Addr::new(base + u64::from(flag.0) * LINE_BYTES)
    }

    /// The internal mutex protecting barrier `b`'s arrival counter.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn barrier_lock(&self, b: BarrierId) -> LockId {
        assert!(b.0 < self.barriers, "barrier id {} out of range", b.0);
        LockId(self.user_locks + b.0)
    }

    /// The two sense-reversing release flags of barrier `b`; episode `e`
    /// uses flag `e % 2`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn barrier_flags(&self, b: BarrierId) -> (FlagId, FlagId) {
        assert!(b.0 < self.barriers, "barrier id {} out of range", b.0);
        (
            FlagId(self.user_flags + 2 * b.0),
            FlagId(self.user_flags + 2 * b.0 + 1),
        )
    }

    /// Address of barrier `b`'s arrival-counter word. The counter is a
    /// *data* word protected by [`AddressLayout::barrier_lock`], exactly
    /// as in the paper's barrier implementation — removing the internal
    /// lock exposes real data races on this counter.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn barrier_counter_addr(&self, b: BarrierId) -> Addr {
        assert!(b.0 < self.barriers, "barrier id {} out of range", b.0);
        let base = SYNC_BASE
            + (u64::from(self.total_locks()) + u64::from(self.total_flags())) * LINE_BYTES;
        Addr::new(base + u64::from(b.0) * LINE_BYTES)
    }

    /// Address of atomic word `a` (one line per atomic, after the
    /// barrier counters).
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range (≥ [`AddressLayout::user_atomics`]).
    pub fn atomic_addr(&self, a: AtomicId) -> Addr {
        assert!(a.0 < self.atomics, "atomic id {} out of range", a.0);
        let base = SYNC_BASE
            + (u64::from(self.total_locks())
                + u64::from(self.total_flags())
                + u64::from(self.barriers))
                * LINE_BYTES;
        Addr::new(base + u64::from(a.0) * LINE_BYTES)
    }

    /// `true` if `addr` belongs to the synchronization-object region
    /// (including barrier counters).
    pub fn is_sync_region(&self, addr: Addr) -> bool {
        addr.byte() >= SYNC_BASE
    }

    /// One byte past the last address the layout uses (for sizing
    /// simulated memory).
    pub fn address_space_end(&self) -> u64 {
        SYNC_BASE
            + (u64::from(self.total_locks())
                + u64::from(self.total_flags())
                + u64::from(self.barriers)
                + u64::from(self.atomics))
                * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_counts_include_barrier_internals() {
        let l = AddressLayout::new(3, 2, 2, 1024);
        assert_eq!(l.total_locks(), 5);
        assert_eq!(l.total_flags(), 6);
    }

    #[test]
    fn each_object_has_its_own_line() {
        let l = AddressLayout::new(2, 2, 1, 0);
        let mut lines = std::collections::HashSet::new();
        for i in 0..l.total_locks() {
            assert!(lines.insert(l.lock_addr(LockId(i)).line()));
        }
        for i in 0..l.total_flags() {
            assert!(lines.insert(l.flag_addr(FlagId(i)).line()));
        }
        assert!(lines.insert(l.barrier_counter_addr(BarrierId(0)).line()));
    }

    #[test]
    fn barrier_internal_ids_follow_user_ids() {
        let l = AddressLayout::new(4, 3, 2, 0);
        assert_eq!(l.barrier_lock(BarrierId(0)), LockId(4));
        assert_eq!(l.barrier_lock(BarrierId(1)), LockId(5));
        assert_eq!(l.barrier_flags(BarrierId(1)), (FlagId(5), FlagId(6)));
    }

    #[test]
    fn sync_region_classification() {
        let l = AddressLayout::new(1, 0, 0, 64);
        assert!(!l.is_sync_region(Addr::new(0x100)));
        assert!(l.is_sync_region(l.lock_addr(LockId(0))));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lock_panics() {
        AddressLayout::new(1, 0, 0, 0).lock_addr(LockId(1));
    }

    #[test]
    fn dense_line_index_interleaves_bands() {
        // Data lines take even indices, sync lines odd ones.
        assert_eq!(dense_line_index(LineAddr(0)), 0);
        assert_eq!(dense_line_index(LineAddr(1)), 2);
        assert_eq!(dense_line_index(LineAddr(SYNC_BASE_LINE)), 1);
        assert_eq!(dense_line_index(LineAddr(SYNC_BASE_LINE + 2)), 5);
    }

    #[test]
    fn dense_line_index_is_injective_across_bands() {
        let mut seen = std::collections::HashSet::new();
        for l in 0..1000 {
            assert!(seen.insert(dense_line_index(LineAddr(l))));
            assert!(seen.insert(dense_line_index(LineAddr(SYNC_BASE_LINE + l))));
        }
    }

    #[test]
    fn dense_word_index_tracks_word_in_line() {
        let a = Addr::new(0x44);
        assert_eq!(
            dense_word_index(a),
            dense_line_index(a.line()) * 16 + a.word_in_line()
        );
        let s = Addr::new(SYNC_BASE + 8);
        assert_eq!(dense_word_index(s), 16 + 2);
    }

    #[test]
    fn dense_map_capacity_covers_layout() {
        let l = AddressLayout::new(2, 2, 2, 1024);
        let m = DenseLineMap::new(&l);
        // Largest sync object line: 2 + 2 + (2 locks + 4 flags) → 10
        // sync lines; largest data line: 1024/16 = 64 lines.
        for i in 0..l.total_locks() {
            assert!(dense_line_index(l.lock_addr(LockId(i)).line()) < m.line_capacity());
        }
        for i in 0..l.total_flags() {
            assert!(dense_line_index(l.flag_addr(FlagId(i)).line()) < m.line_capacity());
        }
        assert!(dense_line_index(LineAddr(63)) < m.line_capacity());
        assert_eq!(m.word_capacity(), m.line_capacity() * 16);
    }

    #[test]
    fn atomics_band_follows_barrier_counters() {
        let l = AddressLayout::new(2, 1, 1, 256).with_atomics(3);
        assert_eq!(l.user_atomics(), 3);
        // The first atomic sits one line past the last barrier counter,
        // so layouts without atomics are byte-identical to before.
        let base = AddressLayout::new(2, 1, 1, 256);
        assert_eq!(l.lock_addr(LockId(0)), base.lock_addr(LockId(0)));
        assert_eq!(
            l.barrier_counter_addr(BarrierId(0)),
            base.barrier_counter_addr(BarrierId(0))
        );
        assert_eq!(l.atomic_addr(AtomicId(0)).byte(), base.address_space_end());
        assert!(l.is_sync_region(l.atomic_addr(AtomicId(2))));
        assert!(l.atomic_addr(AtomicId(2)).byte() < l.address_space_end());
        let mut lines = std::collections::HashSet::new();
        for i in 0..3 {
            assert!(lines.insert(l.atomic_addr(AtomicId(i)).line()));
        }
        let m = DenseLineMap::new(&l);
        for i in 0..3 {
            assert!(dense_line_index(l.atomic_addr(AtomicId(i)).line()) < m.line_capacity());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_atomic_panics() {
        AddressLayout::new(0, 0, 0, 0)
            .with_atomics(1)
            .atomic_addr(AtomicId(1));
    }

    #[test]
    fn address_space_end_covers_everything() {
        let l = AddressLayout::new(2, 2, 2, 0);
        let end = l.address_space_end();
        assert!(l.barrier_counter_addr(BarrierId(1)).byte() < end);
        assert!(l.flag_addr(FlagId(5)).byte() < end);
    }
}
