//! Ready-core selection and core assignment.
//!
//! The engine repeatedly steps the runnable scheduled thread with the
//! smallest `(ready_at, thread index)` key. The seed implementation
//! re-scanned every context per step — O(threads) on the hottest loop
//! in the simulator. [`ReadyQueue`] replaces the scan with a lazy
//! binary heap: every transition into the Ready-with-core state pushes
//! an entry, and stale entries (the thread stepped, blocked, finished,
//! or lost its core since the push) are discarded at pop time by
//! revalidating against the live context. The pop order is exactly the
//! scan's min key, so schedules are bit-for-bit unchanged — a
//! `debug_assertions` cross-check against the linear scan enforces
//! this on every step in debug builds.

use crate::engine::{Machine, Status};
use crate::observer::MemoryObserver;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lazy min-heap of `(ready_at, thread index)` scheduling keys.
///
/// Entries are snapshots, not live state: an entry is *valid* iff the
/// thread is still Ready, still holds a core, and its `ready_at` still
/// equals the snapshotted key. Anything else is a leftover from an
/// earlier transition and is dropped on pop.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReadyQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ReadyQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records that thread `idx` became runnable-on-a-core at
    /// `ready_at`.
    pub(crate) fn push(&mut self, ready_at: u64, idx: usize) {
        self.heap.push(Reverse((ready_at, idx)));
    }

    /// Number of (possibly stale) entries currently in the heap. The
    /// engine's same-thread fast path uses this to detect that a step
    /// pushed no new scheduling entries.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// The smallest (possibly stale) key in the heap. Stale entries only
    /// make a "below the top" test conservative: every valid entry is
    /// at or above this key.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        self.heap.peek().map(|&Reverse(key)| key)
    }
}

impl<O: MemoryObserver> Machine<'_, O> {
    /// Pops the next valid scheduling entry: the Ready thread holding a
    /// core with the smallest `(ready_at, index)` key, or `None` if no
    /// scheduled thread is runnable.
    pub(crate) fn next_ready(&mut self) -> Option<usize> {
        while let Some(Reverse((at, t))) = self.ready.heap.pop() {
            if self.ctxs[t].status == Status::Ready
                && self.core_of[t].is_some()
                && self.ctxs[t].ready_at == at
            {
                return Some(t);
            }
        }
        None
    }

    /// Debug-build equivalence check: the heap's pick must match what
    /// the seed's linear scan would have chosen.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_pick_matches_scan(&self, picked: Option<usize>) {
        let scan = self
            .ctxs
            .iter()
            .enumerate()
            .filter(|(i, c)| c.status == Status::Ready && self.core_of[*i].is_some())
            .min_by_key(|(i, c)| (c.ready_at, *i))
            .map(|(i, _)| i);
        debug_assert_eq!(picked, scan, "ready-heap diverged from linear scan");
    }

    /// Releases thread `t`'s core (it finished) and hands it to a
    /// waiting Ready thread, if any.
    pub(crate) fn release_core(&mut self, t: usize) {
        let Some(core) = self.core_of[t].take() else {
            return;
        };
        let now = self.ctxs[t].ready_at;
        self.free_cores.push(core);
        self.schedule_waiting_threads_at(now);
    }

    /// Assigns cores (free ones first, then cores preempted from blocked
    /// holders) to Ready-but-unscheduled threads. Returns `true` if any
    /// assignment happened.
    pub(crate) fn schedule_waiting_threads(&mut self) -> bool {
        let now = self
            .ctxs
            .iter()
            .enumerate()
            .filter(|(i, c)| c.status == Status::Ready && self.core_of[*i].is_none())
            .map(|(_, c)| c.ready_at)
            .min()
            .unwrap_or(0);
        self.schedule_waiting_threads_at(now)
    }

    fn schedule_waiting_threads_at(&mut self, now: u64) -> bool {
        let mut any = false;
        loop {
            let next = self
                .ctxs
                .iter()
                .enumerate()
                .filter(|(i, c)| c.status == Status::Ready && self.core_of[*i].is_none())
                .min_by_key(|(i, c)| (c.ready_at, *i))
                .map(|(i, _)| i);
            let Some(t) = next else { break };
            if !self.acquire_core_for(t, now) {
                break;
            }
            any = true;
        }
        any
    }

    /// Finds a core for thread `t`: a free one, or one preempted from a
    /// blocked holder. Grants it with the §2.7.4 migration bump when the
    /// core differs from the thread's previous one.
    pub(crate) fn acquire_core_for(&mut self, t: usize, at: u64) -> bool {
        debug_assert!(self.core_of[t].is_none());
        let core = self.free_cores.pop().or_else(|| {
            (0..self.ctxs.len())
                .find(|&v| {
                    self.core_of[v].is_some()
                        && matches!(
                            self.ctxs[v].status,
                            Status::BlockedOnLock | Status::BlockedOnFlag
                        )
                })
                .and_then(|v| self.core_of[v].take())
        });
        let Some(core) = core else {
            return false;
        };
        self.core_of[t] = Some(core);
        let ctx = &mut self.ctxs[t];
        ctx.ready_at = ctx.ready_at.max(at) + self.cfg.reschedule_cycles;
        self.resync_on_reschedule(t, core);
        self.ready.push(self.ctxs[t].ready_at, t);
        true
    }
}
