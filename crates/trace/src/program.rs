//! Thread programs, workloads, and structural validation.

use crate::layout::AddressLayout;
use crate::op::Op;
use crate::types::{Addr, BarrierId, ThreadId, WORD_BYTES};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// One thread's operation stream.
///
/// Programs are immutable once built; use
/// [`WorkloadBuilder`](crate::builder::WorkloadBuilder) to create them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadProgram {
    ops: Vec<Op>,
}

impl ThreadProgram {
    /// Creates a program from an explicit op list.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        ThreadProgram { ops }
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the operations.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Total instructions the program retires (compute counts per cycle).
    pub fn instruction_count(&self) -> u64 {
        self.ops.iter().map(Op::instructions).sum()
    }

    /// The sequence of barrier IDs this program passes, in order. Used by
    /// validation: all threads must agree on this sequence or the
    /// workload deadlocks.
    pub fn barrier_sequence(&self) -> Vec<BarrierId> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Barrier(b) => Some(*b),
                _ => None,
            })
            .collect()
    }
}

/// Aggregate operation counts for a workload, mostly for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Data loads.
    pub reads: u64,
    /// Data stores.
    pub writes: u64,
    /// Lock acquisitions.
    pub locks: u64,
    /// Lock releases.
    pub unlocks: u64,
    /// Flag sets (including resets).
    pub flag_sets: u64,
    /// Flag waits.
    pub flag_waits: u64,
    /// Barrier arrivals (per thread per barrier op).
    pub barriers: u64,
    /// Atomic read-modify-writes (all three RMW flavors).
    pub atomics: u64,
    /// Total compute cycles.
    pub compute_cycles: u64,
}

/// A complete multi-threaded workload: one program per thread plus the
/// address layout shared with the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: String,
    threads: Vec<ThreadProgram>,
    layout: AddressLayout,
}

/// Structural problems detected by [`Workload::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// An `Unlock` with no matching held lock, or a `Lock` of an
    /// already-held lock (self-deadlock).
    LockDiscipline {
        /// The offending thread.
        thread: ThreadId,
        /// Index of the offending op in the thread's program.
        op_index: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A thread ends while still holding locks.
    LocksHeldAtExit {
        /// The offending thread.
        thread: ThreadId,
        /// How many locks are still held.
        held: usize,
    },
    /// Threads disagree on the order/multiset of barriers they pass.
    BarrierMismatch {
        /// The first thread whose barrier sequence deviates from thread 0's.
        thread: ThreadId,
    },
    /// A sync-object ID is out of range for the layout.
    IdOutOfRange {
        /// The offending thread.
        thread: ThreadId,
        /// Index of the offending op.
        op_index: usize,
    },
    /// A data access targets the synchronization region (data and sync
    /// accesses must be distinguishable, §2.7.3).
    DataAccessInSyncRegion {
        /// The offending thread.
        thread: ThreadId,
        /// The offending address.
        addr: Addr,
    },
    /// A data access past the layout's data heap: the layout's
    /// `DenseLineMap` bounds the lines a valid workload touches, and a
    /// streaming daemon rejects events past that bound.
    DataAccessPastHeap {
        /// The offending thread.
        thread: ThreadId,
        /// The offending address.
        addr: Addr,
    },
    /// A flag is waited on but never set by any thread (guaranteed
    /// deadlock).
    FlagNeverSet {
        /// The flag's user-visible ID.
        flag: u32,
    },
    /// A flag wait that only the waiting thread itself could satisfy —
    /// and only *after* the wait (guaranteed deadlock: the thread blocks
    /// before reaching its own set, and no other thread ever sets the
    /// flag).
    FlagWaitUnsatisfiable {
        /// The flag's user-visible ID.
        flag: u32,
        /// The waiting thread.
        thread: ThreadId,
        /// Index of the wait in the thread's program.
        op_index: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::LockDiscipline {
                thread,
                op_index,
                detail,
            } => write!(
                f,
                "lock discipline violation at {thread} op {op_index}: {detail}"
            ),
            WorkloadError::LocksHeldAtExit { thread, held } => {
                write!(f, "{thread} exits holding {held} lock(s)")
            }
            WorkloadError::BarrierMismatch { thread } => {
                write!(f, "{thread} passes a different barrier sequence than T0")
            }
            WorkloadError::IdOutOfRange { thread, op_index } => {
                write!(f, "sync object id out of range at {thread} op {op_index}")
            }
            WorkloadError::DataAccessInSyncRegion { thread, addr } => {
                write!(f, "data access to sync region address {addr} by {thread}")
            }
            WorkloadError::DataAccessPastHeap { thread, addr } => {
                write!(f, "data access to {addr} past the data heap by {thread}")
            }
            WorkloadError::FlagNeverSet { flag } => {
                write!(f, "flag #{flag} is waited on but never set")
            }
            WorkloadError::FlagWaitUnsatisfiable {
                flag,
                thread,
                op_index,
            } => write!(
                f,
                "flag #{flag} wait at {thread} op {op_index} can only be \
                 satisfied by the same thread's later set (deadlock)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl Workload {
    /// Assembles a workload; prefer
    /// [`WorkloadBuilder`](crate::builder::WorkloadBuilder).
    pub fn new(
        name: impl Into<String>,
        threads: Vec<ThreadProgram>,
        layout: AddressLayout,
    ) -> Self {
        Workload {
            name: name.into(),
            threads,
            layout,
        }
    }

    /// The workload's name (e.g. `"fft"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-thread programs, indexed by [`ThreadId`].
    pub fn threads(&self) -> &[ThreadProgram] {
        &self.threads
    }

    /// The program for one thread.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn thread(&self, tid: ThreadId) -> &ThreadProgram {
        &self.threads[tid.index()]
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The shared address layout.
    pub fn layout(&self) -> &AddressLayout {
        &self.layout
    }

    /// Total operations across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(ThreadProgram::len).sum()
    }

    /// Aggregate op counts across all threads.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for t in &self.threads {
            for op in t.iter() {
                match op {
                    Op::Read(_) => c.reads += 1,
                    Op::Write(_) => c.writes += 1,
                    Op::Lock(_) => c.locks += 1,
                    Op::Unlock(_) => c.unlocks += 1,
                    Op::FlagSet(_) | Op::FlagReset(_) => c.flag_sets += 1,
                    Op::FlagWait(_) => c.flag_waits += 1,
                    Op::Barrier(_) => c.barriers += 1,
                    Op::Atomic(_, _) => c.atomics += 1,
                    Op::Compute(n) => c.compute_cycles += u64::from(*n),
                }
            }
        }
        c
    }

    /// Returns a copy under a different name (shrunk reproducers get
    /// renamed so corpus entries are self-describing).
    #[must_use]
    pub fn renamed(&self, name: impl Into<String>) -> Workload {
        Workload {
            name: name.into(),
            threads: self.threads.clone(),
            layout: self.layout,
        }
    }

    /// Returns a copy with thread `tid`'s program removed (higher
    /// threads shift down). The layout is kept: addresses and sync-object
    /// IDs stay stable so a shrunk workload exercises the same lines.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range or the workload has one thread.
    #[must_use]
    pub fn without_thread(&self, tid: usize) -> Workload {
        assert!(tid < self.threads.len(), "thread {tid} out of range");
        assert!(self.threads.len() > 1, "cannot remove the last thread");
        let mut threads = self.threads.clone();
        threads.remove(tid);
        Workload {
            name: self.name.clone(),
            threads,
            layout: self.layout,
        }
    }

    /// Returns a copy with op `op_index` of thread `tid` removed.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn without_op(&self, tid: usize, op_index: usize) -> Workload {
        let mut threads = self.threads.clone();
        let mut ops = std::mem::take(&mut threads[tid].ops);
        ops.remove(op_index);
        threads[tid] = ThreadProgram::from_ops(ops);
        Workload {
            name: self.name.clone(),
            threads,
            layout: self.layout,
        }
    }

    /// Returns a copy keeping only the ops for which `keep` returns
    /// `true` (called with the thread, the op's index in that thread,
    /// and the op). The workhorse of programmatic shrinking: dropping a
    /// sync object, a barrier crossing, or a lock region is one
    /// predicate.
    #[must_use]
    pub fn filter_ops(&self, mut keep: impl FnMut(ThreadId, usize, &Op) -> bool) -> Workload {
        let threads = self
            .threads
            .iter()
            .enumerate()
            .map(|(ti, prog)| {
                let tid = ThreadId(ti as u16);
                ThreadProgram::from_ops(
                    prog.iter()
                        .enumerate()
                        .filter(|(i, op)| keep(tid, *i, op))
                        .map(|(_, op)| *op)
                        .collect(),
                )
            })
            .collect();
        Workload {
            name: self.name.clone(),
            threads,
            layout: self.layout,
        }
    }

    /// Checks structural well-formedness: balanced lock/unlock per
    /// thread, identical barrier sequences across threads, in-range
    /// object IDs, data accesses outside the sync region, and every
    /// waited flag set somewhere.
    ///
    /// # Errors
    ///
    /// Returns the first [`WorkloadError`] found.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let mut set_flags: HashSet<u32> = HashSet::new();
        // First `FlagSet` index per (flag, thread), for the wait
        // satisfiability check below.
        let mut first_set: HashMap<(u32, usize), usize> = HashMap::new();
        // Every wait site in scan order, so errors are reported at the
        // first offending wait deterministically.
        let mut waits: Vec<(usize, usize, u32)> = Vec::new();

        for (ti, prog) in self.threads.iter().enumerate() {
            let thread = ThreadId(ti as u16);
            let mut held: HashSet<u32> = HashSet::new();
            for (i, op) in prog.iter().enumerate() {
                match op {
                    Op::Read(a) | Op::Write(a) => {
                        if self.layout.is_sync_region(*a) {
                            return Err(WorkloadError::DataAccessInSyncRegion { thread, addr: *a });
                        }
                        if a.byte() / WORD_BYTES >= self.layout.data_words() {
                            return Err(WorkloadError::DataAccessPastHeap { thread, addr: *a });
                        }
                    }
                    Op::Lock(l) => {
                        if l.0 >= self.layout.user_locks() {
                            return Err(WorkloadError::IdOutOfRange {
                                thread,
                                op_index: i,
                            });
                        }
                        if !held.insert(l.0) {
                            return Err(WorkloadError::LockDiscipline {
                                thread,
                                op_index: i,
                                detail: format!("lock #{} acquired while already held", l.0),
                            });
                        }
                    }
                    Op::Unlock(l) => {
                        if !held.remove(&l.0) {
                            return Err(WorkloadError::LockDiscipline {
                                thread,
                                op_index: i,
                                detail: format!("lock #{} released while not held", l.0),
                            });
                        }
                    }
                    Op::FlagSet(g) | Op::FlagReset(g) => {
                        if g.0 >= self.layout.user_flags() {
                            return Err(WorkloadError::IdOutOfRange {
                                thread,
                                op_index: i,
                            });
                        }
                        if matches!(op, Op::FlagSet(_)) {
                            set_flags.insert(g.0);
                            first_set.entry((g.0, ti)).or_insert(i);
                        }
                    }
                    Op::FlagWait(g) => {
                        if g.0 >= self.layout.user_flags() {
                            return Err(WorkloadError::IdOutOfRange {
                                thread,
                                op_index: i,
                            });
                        }
                        waits.push((ti, i, g.0));
                    }
                    Op::Barrier(b) => {
                        if b.0 >= self.layout.barriers() {
                            return Err(WorkloadError::IdOutOfRange {
                                thread,
                                op_index: i,
                            });
                        }
                    }
                    Op::Atomic(a, _) => {
                        if a.0 >= self.layout.user_atomics() {
                            return Err(WorkloadError::IdOutOfRange {
                                thread,
                                op_index: i,
                            });
                        }
                    }
                    Op::Compute(_) => {}
                }
            }
            if !held.is_empty() {
                return Err(WorkloadError::LocksHeldAtExit {
                    thread,
                    held: held.len(),
                });
            }
        }

        if let Some(reference) = self.threads.first().map(ThreadProgram::barrier_sequence) {
            for (ti, prog) in self.threads.iter().enumerate().skip(1) {
                if prog.barrier_sequence() != reference {
                    return Err(WorkloadError::BarrierMismatch {
                        thread: ThreadId(ti as u16),
                    });
                }
            }
        }

        for (ti, i, flag) in waits {
            if !set_flags.contains(&flag) {
                return Err(WorkloadError::FlagNeverSet { flag });
            }
            // A wait is satisfiable if another thread sets the flag
            // (anywhere — concurrency decides when), or the waiting
            // thread itself set it *earlier* in program order. A flag
            // whose only sets sit behind the wait in the same thread is
            // a guaranteed deadlock the old never-set check missed.
            let other_setter =
                (0..self.threads.len()).any(|tj| tj != ti && first_set.contains_key(&(flag, tj)));
            let own_earlier = first_set.get(&(flag, ti)).is_some_and(|&s| s < i);
            if !other_setter && !own_earlier {
                return Err(WorkloadError::FlagWaitUnsatisfiable {
                    flag,
                    thread: ThreadId(ti as u16),
                    op_index: i,
                });
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FlagId, LockId};

    fn layout() -> AddressLayout {
        AddressLayout::new(2, 2, 1, 1024)
    }

    fn wl(threads: Vec<Vec<Op>>) -> Workload {
        Workload::new(
            "test",
            threads.into_iter().map(ThreadProgram::from_ops).collect(),
            layout(),
        )
    }

    #[test]
    fn valid_workload_passes() {
        let w = wl(vec![
            vec![
                Op::Lock(LockId(0)),
                Op::Write(Addr::new(0x40)),
                Op::Unlock(LockId(0)),
                Op::FlagSet(FlagId(0)),
                Op::Barrier(BarrierId(0)),
            ],
            vec![
                Op::FlagWait(FlagId(0)),
                Op::Read(Addr::new(0x40)),
                Op::Barrier(BarrierId(0)),
            ],
        ]);
        w.validate().unwrap();
        let c = w.op_counts();
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 1);
        assert_eq!(c.locks, 1);
        assert_eq!(c.barriers, 2);
    }

    #[test]
    fn unlock_without_lock_rejected() {
        let w = wl(vec![vec![Op::Unlock(LockId(0))]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::LockDiscipline { .. })
        ));
    }

    #[test]
    fn double_lock_rejected() {
        let w = wl(vec![vec![Op::Lock(LockId(0)), Op::Lock(LockId(0))]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::LockDiscipline { .. })
        ));
    }

    #[test]
    fn exit_holding_lock_rejected() {
        let w = wl(vec![vec![Op::Lock(LockId(0))]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::LocksHeldAtExit { held: 1, .. })
        ));
    }

    #[test]
    fn barrier_sequence_mismatch_rejected() {
        let w = wl(vec![vec![Op::Barrier(BarrierId(0))], vec![]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::BarrierMismatch { .. })
        ));
    }

    #[test]
    fn data_access_to_sync_region_rejected() {
        let sync_addr = layout().lock_addr(LockId(0));
        let w = wl(vec![vec![Op::Read(sync_addr)]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::DataAccessInSyncRegion { .. })
        ));
    }

    #[test]
    fn data_access_past_the_heap_rejected() {
        let last = Addr::new(1023 * WORD_BYTES);
        assert!(wl(vec![vec![Op::Write(last)]]).validate().is_ok());
        let w = wl(vec![vec![Op::Write(last.offset_words(1))]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::DataAccessPastHeap { .. })
        ));
    }

    #[test]
    fn unset_flag_rejected() {
        let w = wl(vec![vec![Op::FlagWait(FlagId(1))]]);
        assert_eq!(w.validate(), Err(WorkloadError::FlagNeverSet { flag: 1 }));
    }

    #[test]
    fn atomic_ops_validated_and_counted() {
        use crate::op::AtomicRmwKind;
        use crate::types::AtomicId;
        let l = AddressLayout::new(0, 0, 0, 64).with_atomics(1);
        let ok = Workload::new(
            "a",
            vec![ThreadProgram::from_ops(vec![
                Op::Atomic(AtomicId(0), AtomicRmwKind::CasLoop),
                Op::Atomic(AtomicId(0), AtomicRmwKind::FetchAdd),
            ])],
            l,
        );
        ok.validate().unwrap();
        assert_eq!(ok.op_counts().atomics, 2);
        let bad = Workload::new(
            "b",
            vec![ThreadProgram::from_ops(vec![Op::Atomic(
                AtomicId(1),
                AtomicRmwKind::Exchange,
            )])],
            l,
        );
        assert!(matches!(
            bad.validate(),
            Err(WorkloadError::IdOutOfRange { .. })
        ));
    }

    #[test]
    fn out_of_range_ids_rejected() {
        // User lock ids stop below the barrier-internal ids.
        let w = wl(vec![vec![Op::Lock(LockId(2)), Op::Unlock(LockId(2))]]);
        assert!(matches!(
            w.validate(),
            Err(WorkloadError::IdOutOfRange { .. })
        ));
    }

    #[test]
    fn self_set_after_wait_rejected() {
        // The only set of flag 0 sits *behind* the wait in the same
        // thread: the thread blocks before reaching it. The old
        // never-set check accepted this (the flag *is* set somewhere)
        // and the deadlock surfaced only at sim time.
        let w = wl(vec![vec![Op::FlagWait(FlagId(0)), Op::FlagSet(FlagId(0))]]);
        assert_eq!(
            w.validate(),
            Err(WorkloadError::FlagWaitUnsatisfiable {
                flag: 0,
                thread: ThreadId(0),
                op_index: 0,
            })
        );
    }

    #[test]
    fn self_set_before_wait_accepted() {
        let w = wl(vec![vec![Op::FlagSet(FlagId(0)), Op::FlagWait(FlagId(0))]]);
        w.validate().unwrap();
    }

    #[test]
    fn other_thread_set_after_is_satisfiable() {
        // Another thread sets the flag; program positions are
        // irrelevant because the threads run concurrently.
        let w = wl(vec![
            vec![Op::FlagWait(FlagId(0))],
            vec![Op::Compute(100), Op::FlagSet(FlagId(0))],
        ]);
        w.validate().unwrap();
    }

    #[test]
    fn mutation_helpers_preserve_layout() {
        let w = wl(vec![
            vec![Op::Write(Addr::new(0x40)), Op::Compute(5)],
            vec![Op::Read(Addr::new(0x40))],
        ]);
        let renamed = w.renamed("shrunk");
        assert_eq!(renamed.name(), "shrunk");
        assert_eq!(renamed.layout(), w.layout());

        let dropped = w.without_thread(1);
        assert_eq!(dropped.num_threads(), 1);
        assert_eq!(dropped.thread(ThreadId(0)).len(), 2);

        let trimmed = w.without_op(0, 1);
        assert_eq!(
            trimmed.thread(ThreadId(0)).ops(),
            &[Op::Write(Addr::new(0x40))]
        );
        assert_eq!(trimmed.thread(ThreadId(1)).len(), 1);

        let no_compute = w.filter_ops(|_, _, op| !matches!(op, Op::Compute(_)));
        assert_eq!(no_compute.thread(ThreadId(0)).len(), 1);
        assert_eq!(no_compute.thread(ThreadId(1)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "last thread")]
    fn removing_last_thread_panics() {
        let w = wl(vec![vec![Op::Compute(1)]]);
        let _ = w.without_thread(0);
    }

    #[test]
    fn instruction_count_sums_compute() {
        let p = ThreadProgram::from_ops(vec![
            Op::Read(Addr::new(0)),
            Op::Compute(10),
            Op::Write(Addr::new(4)),
        ]);
        assert_eq!(p.instruction_count(), 12);
    }

    #[test]
    fn error_display_nonempty() {
        let e = WorkloadError::FlagNeverSet { flag: 3 };
        assert!(!format!("{e}").is_empty());
    }
}
