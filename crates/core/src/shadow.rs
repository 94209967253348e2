//! Dense shadow-state storage keyed by
//! [`dense_line_index`](cord_trace::layout::dense_line_index).
//!
//! Every per-access structure in the detector stack — CORD's per-core
//! line histories, the comparison detectors' word shadow state — used
//! to live in `HashMap`s probed on the hot path. The workload address
//! space is two compact bands (data heap + sync region), so the dense
//! interleaved line index turns each of those probes into a vector
//! index. [`ShadowSpace`] is the flat auto-growing store; [`LineTable`]
//! wraps it with a `HashMap`-shaped API keyed by `LineAddr` so call
//! sites stay readable.
//!
//! Iteration walks slots in dense-index order, which is deterministic —
//! unlike `HashMap` iteration — and only runs on cold paths (the cache
//! walker, end-of-run accounting), never per access.

use cord_trace::layout::dense_line_index;
use cord_trace::types::LineAddr;

/// Occupancy state of one shadow slot (one byte in the state array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum SlotState {
    /// Never occupied (value is `T::default()`).
    Empty = 0,
    /// Previously occupied, vacated with buffers parked for reuse. The
    /// parked value is *logically* default (see [`ShadowSpace::vacate`])
    /// but keeps its heap allocations.
    Parked = 1,
    /// Occupied.
    Live = 2,
}

/// A flat, auto-growing map from small dense indices to `T`, laid out as
/// a structure of arrays: a one-byte-per-slot occupancy array probed on
/// the hot path, and a parallel value array touched only on live slots.
///
/// `get`/`get_mut`/`insert`/`vacate` are O(1) vector indexing; the
/// presence test reads a single dense byte, so scanning several spaces
/// for the same index (the detector's remote-core probe) stays friendly
/// to the cache even when the values themselves are large. Iteration is
/// O(capacity) over the state array in index order.
///
/// Vacating a slot ([`ShadowSpace::vacate`]) parks the
/// value in place, so per-slot heap buffers (history vectors, clock
/// allocations) survive an occupant's removal and are reused by the next
/// [`ShadowSpace::entry_or_default`] — the arena behaviour the detectors
/// rely on to keep line fill/evict cycles allocation-free.
#[derive(Debug, Clone)]
pub struct ShadowSpace<T> {
    state: Vec<SlotState>,
    values: Vec<T>,
    len: usize,
}

impl<T> Default for ShadowSpace<T> {
    fn default() -> Self {
        ShadowSpace {
            state: Vec::new(),
            values: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Default> ShadowSpace<T> {
    /// An empty space.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty space pre-sized for indices `0..capacity` (e.g. from
    /// [`DenseLineMap::line_capacity`](cord_trace::layout::DenseLineMap)).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut s = Self::default();
        s.grow_to(capacity);
        s
    }

    fn grow_to(&mut self, capacity: usize) {
        if capacity > self.state.len() {
            self.state.resize(capacity, SlotState::Empty);
            self.values.resize_with(capacity, T::default);
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `index`, if present.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        match self.state.get(index) {
            Some(SlotState::Live) => Some(&self.values[index]),
            _ => None,
        }
    }

    /// Mutable access to the value at `index`, if present.
    #[inline]
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        match self.state.get(index) {
            Some(SlotState::Live) => Some(&mut self.values[index]),
            _ => None,
        }
    }

    /// Inserts `value` at `index`, returning the previous occupant.
    #[inline]
    pub fn insert(&mut self, index: usize, value: T) -> Option<T> {
        self.grow_to(index + 1);
        let prev = std::mem::replace(&mut self.values[index], value);
        let was_live = self.state[index] == SlotState::Live;
        self.state[index] = SlotState::Live;
        if was_live {
            Some(prev)
        } else {
            self.len += 1;
            None
        }
    }

    /// Vacates the slot at `index`, returning a mutable reference the
    /// caller uses to drain the occupant in place. The value stays
    /// parked in the slot with its heap buffers intact and will be
    /// handed back by the next [`ShadowSpace::entry_or_default`] on this
    /// index — so the caller MUST leave it logically equivalent to
    /// `T::default()` (e.g. a drained [`LineHistory`]) before the
    /// reference is dropped.
    ///
    /// [`LineHistory`]: crate::history::LineHistory
    #[inline]
    pub fn vacate(&mut self, index: usize) -> Option<&mut T> {
        match self.state.get(index) {
            Some(SlotState::Live) => {
                self.state[index] = SlotState::Parked;
                self.len -= 1;
                Some(&mut self.values[index])
            }
            _ => None,
        }
    }

    /// The slot at `index`, inserting `T::default()` if vacant. A parked
    /// occupant ([`ShadowSpace::vacate`]) is revived in place — by the
    /// vacate contract it is logically default, but keeps its buffers.
    #[inline]
    pub fn entry_or_default(&mut self, index: usize) -> &mut T {
        self.grow_to(index + 1);
        match self.state[index] {
            SlotState::Live => {}
            SlotState::Parked => {
                self.state[index] = SlotState::Live;
                self.len += 1;
            }
            SlotState::Empty => {
                self.state[index] = SlotState::Live;
                self.len += 1;
            }
        }
        &mut self.values[index]
    }

    /// Iterates occupied values in index order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.state
            .iter()
            .zip(self.values.iter())
            .filter_map(|(s, v)| (*s == SlotState::Live).then_some(v))
    }

    /// Iterates occupied values mutably in index order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.state
            .iter()
            .zip(self.values.iter_mut())
            .filter_map(|(s, v)| (*s == SlotState::Live).then_some(v))
    }
}

/// [`ShadowSpace`] keyed directly by [`LineAddr`] via the dense
/// interleaved index — a drop-in replacement for
/// `HashMap<LineAddr, T>` on the per-access path.
#[derive(Debug, Clone, Default)]
pub struct LineTable<T> {
    space: ShadowSpace<T>,
}

impl<T: Default> LineTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        LineTable {
            space: ShadowSpace::new(),
        }
    }

    /// An empty table pre-sized for `line_capacity` dense line indices.
    pub fn with_capacity(line_capacity: usize) -> Self {
        LineTable {
            space: ShadowSpace::with_capacity(line_capacity),
        }
    }

    /// Number of lines with shadow state.
    pub fn len(&self) -> usize {
        self.space.len()
    }

    /// `true` if no line has shadow state.
    pub fn is_empty(&self) -> bool {
        self.space.is_empty()
    }

    /// The state for `line`, if present.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.space.get(dense_line_index(line))
    }

    /// Mutable state for `line`, if present.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.space.get_mut(dense_line_index(line))
    }

    /// Vacates the state for `line` in place — see
    /// [`ShadowSpace::vacate`] for the drain-before-drop contract.
    #[inline]
    pub fn vacate(&mut self, line: LineAddr) -> Option<&mut T> {
        self.space.vacate(dense_line_index(line))
    }

    /// The state for `line`, inserting `T::default()` if vacant.
    #[inline]
    pub fn entry_or_default(&mut self, line: LineAddr) -> &mut T {
        self.space.entry_or_default(dense_line_index(line))
    }

    /// Iterates present values in dense-index order (deterministic).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.space.values()
    }

    /// Iterates present values mutably in dense-index order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.space.values_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_trace::layout::SYNC_BASE_LINE;

    #[test]
    fn insert_get_vacate_roundtrip() {
        let mut s: ShadowSpace<u32> = ShadowSpace::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(5, 7), None);
        assert_eq!(s.insert(5, 9), Some(7));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(5), Some(&9));
        assert_eq!(s.get(4), None);
        assert_eq!(s.vacate(5).copied(), Some(9));
        assert_eq!(s.vacate(5), None);
        assert!(s.is_empty());
    }

    #[test]
    fn entry_or_default_inserts_once() {
        let mut s: ShadowSpace<Vec<u8>> = ShadowSpace::new();
        s.entry_or_default(3).push(1);
        s.entry_or_default(3).push(2);
        assert_eq!(s.get(3), Some(&vec![1, 2]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_index_ordered() {
        let mut s: ShadowSpace<&str> = ShadowSpace::with_capacity(2);
        s.insert(9, "c");
        s.insert(0, "a");
        s.insert(4, "b");
        let got: Vec<_> = s.values().collect();
        assert_eq!(got, vec![&"a", &"b", &"c"]);
    }

    #[test]
    fn line_table_separates_bands() {
        let mut t: LineTable<u64> = LineTable::new();
        *t.entry_or_default(LineAddr(0)) = 10;
        *t.entry_or_default(LineAddr(SYNC_BASE_LINE)) = 20;
        assert_eq!(t.get(LineAddr(0)), Some(&10));
        assert_eq!(t.get(LineAddr(SYNC_BASE_LINE)), Some(&20));
        assert_eq!(t.len(), 2);
        assert_eq!(t.vacate(LineAddr(0)).copied(), Some(10));
        assert_eq!(t.get(LineAddr(0)), None);
    }

    #[test]
    fn line_table_values_deterministic() {
        let mut t: LineTable<u64> = LineTable::new();
        for l in [7u64, 3, 5, 1] {
            *t.entry_or_default(LineAddr(l)) = l;
        }
        let vals: Vec<u64> = t.values().copied().collect();
        assert_eq!(vals, vec![1, 3, 5, 7]);
    }
}
