//! Per-cache-line access histories: the gray state of Figure 2.
//!
//! Each cache line carries up to `ts_per_line` history entries (two in
//! the shipping CORD), each holding one timestamp and two 16-bit
//! per-word bit vectors recording which words were read/written *at that
//! timestamp* (§2.3). Keeping the previous timestamp alongside the newest
//! one preserves the line's history across a timestamp change — with a
//! single entry, one access at a new logical time would erase everything
//! (Figure 2's problem).
//!
//! The structure is generic over the stamp type so CORD (scalar
//! [`ScalarTime`](cord_clocks::scalar::ScalarTime)) and the comparison
//! configurations of §4.3 (vector clocks, and the *Ideal* oracle with
//! unlimited entries) share one implementation.

use cord_trace::types::WORD_BYTES;

/// Words per line as `usize` (16 for 64-byte lines).
pub const WORDS_PER_LINE: usize = (cord_trace::types::LINE_BYTES / WORD_BYTES) as usize;

/// One history entry: a timestamp and the per-word read/write bits that
/// say which words were accessed at that timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistEntry<S> {
    /// The logical timestamp shared by all accesses recorded in this
    /// entry.
    pub stamp: S,
    /// Bit `w` set ⇔ word `w` was read at `stamp`.
    pub read_bits: u16,
    /// Bit `w` set ⇔ word `w` was written at `stamp`.
    pub write_bits: u16,
}

impl<S> HistEntry<S> {
    /// An entry with no accesses recorded yet.
    pub fn new(stamp: S) -> Self {
        HistEntry {
            stamp,
            read_bits: 0,
            write_bits: 0,
        }
    }

    /// Whether word `w` was read at this entry's timestamp.
    #[inline]
    pub fn read(&self, w: usize) -> bool {
        debug_assert!(w < WORDS_PER_LINE);
        self.read_bits & (1 << w) != 0
    }

    /// Whether word `w` was written at this entry's timestamp.
    #[inline]
    pub fn written(&self, w: usize) -> bool {
        debug_assert!(w < WORDS_PER_LINE);
        self.write_bits & (1 << w) != 0
    }

    /// Records an access to word `w`.
    #[inline]
    pub fn set(&mut self, w: usize, is_write: bool) {
        debug_assert!(w < WORDS_PER_LINE);
        if is_write {
            self.write_bits |= 1 << w;
        } else {
            self.read_bits |= 1 << w;
        }
    }

    /// Whether this entry *conflicts* with an access of the given mode to
    /// word `w`: a write conflicts with any recorded access, a read only
    /// with recorded writes (§2.1: at least one access in a conflict must
    /// be a write).
    #[inline]
    pub fn conflicts_with(&self, w: usize, incoming_is_write: bool) -> bool {
        if incoming_is_write {
            self.read(w) || self.written(w)
        } else {
            self.written(w)
        }
    }

    /// `true` if any word has its read bit set.
    #[inline]
    pub fn any_read(&self) -> bool {
        self.read_bits != 0
    }

    /// `true` if any word has its write bit set.
    #[inline]
    pub fn any_written(&self) -> bool {
        self.write_bits != 0
    }
}

/// The CORD state attached to one resident cache line: history entries
/// in push order (oldest first) plus the two check-filter bits of
/// §2.7.2.
///
/// Entries are stored oldest-first so a push is an O(1) append — the
/// unlimited-entry configurations (*Ideal*, VC-inf) would otherwise pay
/// a front-insert shift per access. Every conflict/filter consumer is
/// order-insensitive (any/all/max over entries), so the physical order
/// is an implementation detail; the one order-sensitive operation, the
/// displacement tie-break in [`LineHistory::push_stamp_displace_min`],
/// explicitly preserves the historical "newest tied minimum" choice.
///
/// Histories are designed to live in an arena slot
/// ([`ShadowSpace`](crate::shadow::ShadowSpace)): [`LineHistory::reset`]
/// and [`LineHistory::drain_into`] return a history to its
/// freshly-filled state while keeping the entry buffer's allocation, so
/// a line fill/evict cycle allocates nothing in steady state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineHistory<S> {
    /// Oldest-first (push-order) entries.
    entries: Vec<HistEntry<S>>,
    /// Line-level permission: the whole line may be *read* without
    /// race-check broadcasts.
    pub read_filter: bool,
    /// Line-level permission: the whole line may be *written* without
    /// race-check broadcasts.
    pub write_filter: bool,
    /// Largest stamp of any *write-carrying* entry displaced from this
    /// history while the line stayed resident. A synchronization read
    /// must take its +D jump over the variable's latest write timestamp
    /// (§2.6) even when that write's entry has been displaced by newer
    /// spin-read stamps; this bound preserves it.
    pub shed_write_stamp: Option<S>,
}

impl<S> Default for LineHistory<S> {
    fn default() -> Self {
        LineHistory {
            entries: Vec::new(),
            read_filter: false,
            write_filter: false,
            shed_write_stamp: None,
        }
    }
}

impl<S> LineHistory<S> {
    /// An empty history (a freshly filled line).
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries in push order (oldest first).
    pub fn entries(&self) -> &[HistEntry<S>] {
        &self.entries
    }

    /// The newest entry, if any.
    pub fn newest(&self) -> Option<&HistEntry<S>> {
        self.entries.last()
    }

    /// Mutable access to the newest entry.
    pub fn newest_mut(&mut self) -> Option<&mut HistEntry<S>> {
        self.entries.last_mut()
    }

    /// Pushes a new newest entry with `stamp`; if the history already
    /// holds `max_entries`, the *oldest* (least recently pushed) entry
    /// is displaced and returned (CORD folds it into the main-memory
    /// timestamps, §2.5).
    pub fn push_stamp(&mut self, stamp: S, max_entries: usize) -> Option<HistEntry<S>> {
        debug_assert!(max_entries >= 1);
        let displaced = if self.entries.len() >= max_entries {
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push(HistEntry::new(stamp));
        displaced
    }

    /// Like [`LineHistory::push_stamp`], but displaces the entry with
    /// the *smallest* stamp, per §2.7.2: "the lower of the two
    /// timestamps and its access bits are removed". With one thread per
    /// core the two rules agree (stamps grow monotonically); they differ
    /// after thread migration, and the minimum rule is what keeps the
    /// line's maximum stamp an upper bound for every stamp ever
    /// displaced from it — the invariant the ordering argument in
    /// DESIGN.md relies on.
    pub fn push_stamp_displace_min(&mut self, stamp: S, max_entries: usize) -> Option<HistEntry<S>>
    where
        S: Ord,
    {
        debug_assert!(max_entries >= 1);
        let displaced = if self.entries.len() >= max_entries {
            // Tie-break: among equal minimum stamps, displace the
            // *newest* — the historical behaviour of a first-match
            // `min_by` over the old newest-first layout. In push order
            // that is the last tied minimum, hence `<=`.
            let mut idx = 0;
            for i in 1..self.entries.len() {
                if self.entries[i].stamp <= self.entries[idx].stamp {
                    idx = i;
                }
            }
            Some(self.entries.remove(idx))
        } else {
            None
        };
        self.entries.push(HistEntry::new(stamp));
        displaced
    }

    /// The largest stamp in the history, if any.
    pub fn max_stamp(&self) -> Option<&S>
    where
        S: Ord,
    {
        self.entries.iter().map(|e| &e.stamp).max()
    }

    /// Moves every entry matching `pred` into `out`, keeping the
    /// survivors in their original push order with their access bits
    /// intact. Unlike [`LineHistory::drain_into`], the check filters and
    /// shed-write bound are left untouched — the line stays resident
    /// (this is the walker's eviction primitive, not a line removal).
    /// Taken entries are appended to `out` in push order (oldest first).
    pub fn take_entries_into<F>(&mut self, mut pred: F, out: &mut Vec<HistEntry<S>>)
    where
        F: FnMut(&HistEntry<S>) -> bool,
    {
        out.extend(self.entries.extract_if(.., |e| pred(e)));
    }

    /// Removes and returns every entry matching `pred` (see
    /// [`LineHistory::take_entries_into`], which cold callers with a
    /// reusable scratch buffer should prefer).
    pub fn take_entries_where<F>(&mut self, pred: F) -> Vec<HistEntry<S>>
    where
        F: FnMut(&HistEntry<S>) -> bool,
    {
        let mut taken = Vec::new();
        self.take_entries_into(pred, &mut taken);
        taken
    }

    /// Drains all entries into `out` (line leaving the cache), appending
    /// them in push order (oldest first), and resets the filters and
    /// shed-write bound. The entry buffer's allocation is retained, so a
    /// history parked in an arena slot costs nothing to refill.
    pub fn drain_into(&mut self, out: &mut Vec<HistEntry<S>>) {
        self.read_filter = false;
        self.write_filter = false;
        self.shed_write_stamp = None;
        out.append(&mut self.entries);
    }

    /// Drains all entries (line leaving the cache). Hot callers should
    /// prefer [`LineHistory::drain_into`] with a reusable scratch buffer.
    pub fn drain(&mut self) -> Vec<HistEntry<S>> {
        let mut out = Vec::with_capacity(self.entries.len());
        self.drain_into(&mut out);
        out
    }

    /// Returns the history to its freshly-filled state — no entries, no
    /// filters, no shed-write bound — retaining the entry buffer's
    /// allocation. Called on line fill so a parked arena slot is reused
    /// without reallocating.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.read_filter = false;
        self.write_filter = false;
        self.shed_write_stamp = None;
    }

    /// Records that a write-carrying entry with `stamp` was displaced
    /// from this (still-resident) line.
    pub fn note_shed_write(&mut self, stamp: S)
    where
        S: Ord,
    {
        self.shed_write_stamp = Some(match self.shed_write_stamp.take() {
            Some(old) => old.max(stamp),
            None => stamp,
        });
    }

    /// Clears both check-filter bits (remote activity observed on the
    /// line).
    pub fn clear_filters(&mut self) {
        self.read_filter = false;
        self.write_filter = false;
    }

    /// Whether the filter for the given access mode is set.
    #[inline]
    pub fn filter_allows(&self, is_write: bool) -> bool {
        if is_write {
            self.write_filter
        } else {
            self.read_filter
        }
    }

    /// Grants the filter for the given mode.
    pub fn grant_filter(&mut self, is_write: bool) {
        if is_write {
            self.write_filter = true;
        } else {
            self.read_filter = true;
        }
    }

    /// `true` if any entry records a conflict with an access of the
    /// given mode to word `w`.
    pub fn any_conflict(&self, w: usize, incoming_is_write: bool) -> bool {
        self.entries
            .iter()
            .any(|e| e.conflicts_with(w, incoming_is_write))
    }

    /// `true` if any entry records any access at all (used for
    /// line-granular filter grants).
    pub fn any_access(&self) -> bool {
        self.entries.iter().any(|e| e.any_read() || e.any_written())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_clocks::scalar::ScalarTime;

    fn ts(n: u64) -> ScalarTime {
        ScalarTime::new(n)
    }

    #[test]
    fn bits_record_per_word_modes() {
        let mut e = HistEntry::new(ts(5));
        e.set(0, false);
        e.set(3, true);
        assert!(e.read(0) && !e.written(0));
        assert!(e.written(3) && !e.read(3));
        assert!(!e.read(1) && !e.written(1));
        assert!(e.any_read() && e.any_written());
    }

    #[test]
    fn conflict_rules_require_a_write() {
        let mut e = HistEntry::new(ts(1));
        e.set(2, false); // read of word 2
        assert!(!e.conflicts_with(2, false)); // read-read: no conflict
        assert!(e.conflicts_with(2, true)); // write-after-read: conflict
        e.set(4, true); // write of word 4
        assert!(e.conflicts_with(4, false)); // read-after-write
        assert!(e.conflicts_with(4, true)); // write-after-write
        assert!(!e.conflicts_with(5, true)); // untouched word
    }

    #[test]
    fn push_stamp_keeps_two_and_displaces_oldest() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        assert!(h.push_stamp(ts(10), 2).is_none());
        h.newest_mut().unwrap().set(0, true);
        assert!(h.push_stamp(ts(14), 2).is_none());
        h.newest_mut().unwrap().set(1, false);
        // Third stamp displaces ts(10) with its bits intact.
        let displaced = h.push_stamp(ts(17), 2).expect("displacement");
        assert_eq!(displaced.stamp, ts(10));
        assert!(displaced.written(0));
        assert_eq!(h.entries().len(), 2);
        assert_eq!(h.newest().unwrap().stamp, ts(17));
        assert_eq!(h.entries()[0].stamp, ts(14));
    }

    #[test]
    fn displace_min_evicts_newest_tied_minimum() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        h.push_stamp(ts(5), 3);
        h.newest_mut().unwrap().set(0, false);
        h.push_stamp(ts(9), 3);
        h.push_stamp(ts(5), 3);
        h.newest_mut().unwrap().set(1, false);
        // Two entries tie at ts(5); the newest of them (word-1 bits) must
        // be the one displaced, matching the historical tie-break.
        let displaced = h.push_stamp_displace_min(ts(12), 3).expect("displacement");
        assert_eq!(displaced.stamp, ts(5));
        assert!(displaced.read(1) && !displaced.read(0));
        assert!(h.entries().iter().any(|e| e.stamp == ts(5) && e.read(0)));
    }

    #[test]
    fn figure2_single_entry_erases_history() {
        // With one entry per line (Figure 2), a timestamp change loses
        // the old access bits entirely.
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        h.push_stamp(ts(14), 1);
        for w in 0..WORDS_PER_LINE {
            h.newest_mut().unwrap().set(w, true);
        }
        let displaced = h.push_stamp(ts(17), 1).unwrap();
        assert_eq!(displaced.write_bits, u16::MAX);
        // The new entry knows nothing.
        assert!(!h.any_conflict(0, false));
    }

    #[test]
    fn filters_grant_and_clear() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        assert!(!h.filter_allows(false) && !h.filter_allows(true));
        h.grant_filter(false);
        assert!(h.filter_allows(false) && !h.filter_allows(true));
        h.grant_filter(true);
        h.clear_filters();
        assert!(!h.filter_allows(false) && !h.filter_allows(true));
    }

    #[test]
    fn drain_empties_and_resets() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        h.push_stamp(ts(3), 2);
        h.grant_filter(true);
        let drained = h.drain();
        assert_eq!(drained.len(), 1);
        assert!(h.entries().is_empty());
        assert!(!h.filter_allows(true));
    }

    #[test]
    fn unlimited_entries_for_ideal() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        for i in 0..100 {
            assert!(h.push_stamp(ts(i), usize::MAX).is_none());
        }
        assert_eq!(h.entries().len(), 100);
        assert_eq!(h.newest().unwrap().stamp, ts(99));
    }

    #[test]
    fn take_entries_where_preserves_order_bits_and_filters() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        for (i, n) in [2u64, 9, 4, 11].iter().enumerate() {
            h.push_stamp(ts(*n), usize::MAX);
            h.newest_mut().unwrap().set(i, i % 2 == 0);
        }
        h.grant_filter(true);
        h.note_shed_write(ts(7));
        // Entries are push-ordered (oldest first): stamps [2, 9, 4, 11].
        let taken = h.take_entries_where(|e| e.stamp.ticks() < 5);
        assert_eq!(
            taken.iter().map(|e| e.stamp).collect::<Vec<_>>(),
            vec![ts(2), ts(4)]
        );
        // Survivors keep push order and their bits.
        assert_eq!(
            h.entries().iter().map(|e| e.stamp).collect::<Vec<_>>(),
            vec![ts(9), ts(11)]
        );
        assert_eq!(h.newest().unwrap().stamp, ts(11));
        assert!(h.entries()[0].read(1));
        // Resident-line metadata survives, unlike drain().
        assert!(h.filter_allows(true));
        assert_eq!(h.shed_write_stamp, Some(ts(7)));
    }

    #[test]
    fn any_conflict_scans_all_entries() {
        let mut h: LineHistory<ScalarTime> = LineHistory::new();
        h.push_stamp(ts(1), 2);
        h.newest_mut().unwrap().set(7, true);
        h.push_stamp(ts(2), 2);
        // Write recorded in the *older* entry still conflicts.
        assert!(h.any_conflict(7, false));
        assert!(h.any_access());
    }
}
