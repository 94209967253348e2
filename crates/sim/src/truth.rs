//! Ground-truth functional outcomes, used to verify deterministic replay.
//!
//! The simulator commits memory accesses one at a time in global time
//! order, which defines a sequentially consistent execution. For every
//! word we track a monotonically increasing *write version*; each read
//! observes the version of the last write to its word. A run's outcome is
//! summarized as one order-sensitive hash per thread over
//! `(instr_index, addr, kind, observed_version)` tuples — two executions
//! have identical per-thread hashes iff every thread observed exactly the
//! same reads-see-writes relation in the same program order, which is the
//! correctness criterion for CORD's deterministic replay (§3.3: "the
//! entire execution can be accurately replayed").

use crate::observer::AccessKind;
use cord_trace::layout::dense_word_index;
use cord_trace::types::{Addr, ThreadId};

/// One access in a thread's resolved (post-expansion) stream, captured
/// when [`MachineConfig::capture_resolved`](crate::config::MachineConfig)
/// is on. The replayer re-executes these streams under the order log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedAccess {
    /// Thread-local instruction index *before* the access retires.
    pub instr_index: u64,
    /// Word accessed.
    pub addr: Addr,
    /// Access kind.
    pub kind: AccessKind,
}

/// FNV-1a step over a 64-bit value.
#[inline]
pub fn fnv_fold(hash: u64, value: u64) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a offset basis (the initial value [`fnv_fold`] chains start
/// from).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One committed access whose hash fold has been deferred (see
/// [`GroundTruth::commit`]).
#[derive(Debug, Clone, Copy)]
struct PendingFold {
    thread: u32,
    is_write: u32,
    instr_index: u64,
    addr_byte: u64,
    version: u64,
}

/// Deferred-fold chunk size: bounds the buffer at ~128 KiB while
/// keeping flushes rare.
const FOLD_CHUNK: usize = 4096;

/// Tracks write versions and per-thread outcome hashes during a run.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Per-word write version (how many writes this word has seen),
    /// indexed by the dense word index and grown on demand. Versions are
    /// per-word, not global, so reorderings of *non-conflicting*
    /// accesses leave every hash unchanged — replay verification must
    /// only be sensitive to conflict outcomes.
    versions: Vec<u64>,
    thread_hashes: Vec<u64>,
    /// Commits whose FNV folds have not been applied yet. Each
    /// [`fnv_fold`] chain is a 32-deep serial multiply per commit;
    /// folding inline puts that latency on the engine's critical path.
    /// Buffering commits and folding a chunk at a time keeps the exact
    /// per-thread fold order (the buffer is drained in global commit
    /// order) while adjacent buffer entries — which usually belong to
    /// different threads and therefore different hash chains — overlap
    /// in the CPU's out-of-order window.
    pending: Vec<PendingFold>,
    resolved: Option<Vec<Vec<ResolvedAccess>>>,
    total_writes: u64,
    total_reads: u64,
}

impl GroundTruth {
    /// A tracker for `threads` threads; pass `capture_resolved = true` to
    /// also record per-thread resolved access streams for the replayer.
    pub fn new(threads: usize, capture_resolved: bool) -> Self {
        GroundTruth {
            versions: Vec::new(),
            thread_hashes: vec![FNV_OFFSET; threads],
            // Grown on the first commit, so a machine whose run keeps
            // no truth (`Machine::run_stats`) allocates no buffer.
            pending: Vec::new(),
            resolved: capture_resolved.then(|| vec![Vec::new(); threads]),
            total_writes: 0,
            total_reads: 0,
        }
    }

    /// Commits one access and folds its outcome into the thread's hash.
    ///
    /// The version bookkeeping happens immediately (it is
    /// order-sensitive across threads); the hash folds themselves are
    /// buffered and applied chunk-wise in the same global order, which
    /// produces bit-identical per-thread hashes — each thread's chain
    /// still sees its own commits in program order.
    pub fn commit(&mut self, thread: ThreadId, instr_index: u64, addr: Addr, kind: AccessKind) {
        let w = dense_word_index(addr);
        let version = if kind.is_write() {
            self.total_writes += 1;
            if w >= self.versions.len() {
                self.versions.resize(w + 1, 0);
            }
            self.versions[w] += 1;
            self.versions[w]
        } else {
            self.total_reads += 1;
            self.versions.get(w).copied().unwrap_or(0)
        };
        self.pending.push(PendingFold {
            thread: thread.index() as u32,
            is_write: kind.is_write() as u32,
            instr_index,
            addr_byte: addr.byte(),
            version,
        });
        if self.pending.len() >= FOLD_CHUNK {
            self.flush_folds();
        }
        if let Some(streams) = &mut self.resolved {
            streams[thread.index()].push(ResolvedAccess {
                instr_index,
                addr,
                kind,
            });
        }
    }

    /// Applies every buffered fold in global commit order. Distinct
    /// threads' chains are independent, so the serial multiply chains of
    /// adjacent (different-thread) entries overlap instead of
    /// serializing behind the engine's step loop.
    fn flush_folds(&mut self) {
        for p in self.pending.drain(..) {
            let h = &mut self.thread_hashes[p.thread as usize];
            let mut v = *h;
            v = fnv_fold(v, p.instr_index);
            v = fnv_fold(v, p.addr_byte);
            v = fnv_fold(v, u64::from(p.is_write));
            v = fnv_fold(v, p.version);
            *h = v;
        }
    }

    /// Finalizes into a summary.
    pub fn into_summary(mut self) -> TruthSummary {
        self.flush_folds();
        TruthSummary {
            thread_hashes: self.thread_hashes,
            resolved: self.resolved,
            total_writes: self.total_writes,
            total_reads: self.total_reads,
        }
    }
}

/// The functional outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthSummary {
    /// Order-sensitive outcome hash per thread.
    pub thread_hashes: Vec<u64>,
    /// Per-thread resolved access streams (present iff capture was on).
    pub resolved: Option<Vec<Vec<ResolvedAccess>>>,
    /// Total committed writes.
    pub total_writes: u64,
    /// Total committed reads.
    pub total_reads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u16) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn identical_commit_sequences_hash_identically() {
        let mut a = GroundTruth::new(2, false);
        let mut b = GroundTruth::new(2, false);
        for g in [&mut a, &mut b] {
            g.commit(t(0), 0, Addr::new(0x40), AccessKind::DataWrite);
            g.commit(t(1), 0, Addr::new(0x40), AccessKind::DataRead);
        }
        assert_eq!(
            a.into_summary().thread_hashes,
            b.into_summary().thread_hashes
        );
    }

    #[test]
    fn read_sees_latest_write_version() {
        // Different write orders change what the reader observes and so
        // change the reader's hash.
        let mut a = GroundTruth::new(3, false);
        a.commit(t(0), 0, Addr::new(0x40), AccessKind::DataWrite);
        a.commit(t(1), 0, Addr::new(0x40), AccessKind::DataWrite);
        a.commit(t(2), 0, Addr::new(0x40), AccessKind::DataRead);

        let mut b = GroundTruth::new(3, false);
        b.commit(t(1), 0, Addr::new(0x40), AccessKind::DataWrite);
        b.commit(t(0), 0, Addr::new(0x40), AccessKind::DataWrite);
        b.commit(t(2), 0, Addr::new(0x40), AccessKind::DataRead);

        let sa = a.into_summary();
        let sb = b.into_summary();
        // The reader in run A saw version 2 from t1, in run B saw
        // version 2 from t0 — versions are positional so the hashes for
        // the *writers* differ while the reader's happens to match; the
        // full vector comparison distinguishes the runs.
        assert_ne!(sa.thread_hashes, sb.thread_hashes);
    }

    #[test]
    fn read_before_any_write_sees_version_zero() {
        let mut g = GroundTruth::new(1, false);
        g.commit(t(0), 0, Addr::new(0x80), AccessKind::DataRead);
        let s = g.into_summary();
        assert_eq!(s.total_reads, 1);
        assert_eq!(s.total_writes, 0);
    }

    #[test]
    fn resolved_streams_capture_order() {
        let mut g = GroundTruth::new(2, true);
        g.commit(t(0), 0, Addr::new(0x40), AccessKind::DataWrite);
        g.commit(t(0), 1, Addr::new(0x44), AccessKind::DataRead);
        g.commit(t(1), 5, Addr::new(0x40), AccessKind::SyncRead);
        let s = g.into_summary();
        let streams = s.resolved.expect("captured");
        assert_eq!(streams[0].len(), 2);
        assert_eq!(streams[1].len(), 1);
        assert_eq!(streams[0][1].addr, Addr::new(0x44));
        assert_eq!(streams[1][0].instr_index, 5);
    }

    #[test]
    fn fnv_fold_is_order_sensitive() {
        let a = fnv_fold(fnv_fold(FNV_OFFSET, 1), 2);
        let b = fnv_fold(fnv_fold(FNV_OFFSET, 2), 1);
        assert_ne!(a, b);
    }
}
