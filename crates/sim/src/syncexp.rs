//! Synchronization-op expansion (§3.4): turns workload sync primitives
//! into the labeled access sequences the paper's modified
//! synchronization libraries emit, and executes the resulting steps.
//!
//! * `lock`: a sync read of the lock word, then a sync write that takes
//!   it (blocked acquirers re-read on wake, observing the releaser's
//!   sync write — this is the race outcome that orders release before
//!   acquire);
//! * `unlock` / `flag set` / `flag reset`: one sync write;
//! * `flag wait`: a sync read; if unset, block (or spin) and re-read on
//!   wake;
//! * `barrier`: lock + counter read/update + (last arrival: counter
//!   reset, next-flag reset, current-flag set) + unlock + flag wait,
//!   the sense-reversing mutex+flag composition of §3.4;
//! * `atomic RMW` (`cas_loop` / `fetch_add` / `exchange`): a sync read
//!   of the atomic word (the acquire side — a CAS attempt's load, or
//!   an unconditional RMW's fetch) followed by a sync write that
//!   commits the new value (the release side). A CAS whose version
//!   snapshot went stale between attempt and commit — another thread's
//!   RMW committed in the window — re-reads and retries, which is
//!   exactly the failure-path re-read of a hardware CAS loop. The
//!   sync-labeled read/write pair gives an RMW the same clock
//!   semantics as a lock acquire + release on the same word (see
//!   DESIGN.md "RMW clock-commit semantics").

use crate::engine::{Machine, Status};
use crate::errors::StuckState;
use crate::observer::{AccessKind, MemoryObserver};
use cord_trace::op::{AtomicRmwKind, Op};
use cord_trace::types::{AtomicId, BarrierId, FlagId, LockId, ThreadId};

/// One executable micro-step of an expanded workload op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Access {
        addr: cord_trace::types::Addr,
        kind: AccessKind,
    },
    LockSpin(LockId),
    LockGranted(LockId),
    LockTake(LockId),
    Release(LockId),
    SetFlag(FlagId),
    ResetFlag(FlagId),
    WaitFlag(FlagId),
    BarrierCtl(BarrierId),
    BarrierWait(BarrierId, u64),
    BarrierUnlock(BarrierId),
    /// CAS attempt: sync-read the atomic word and snapshot its version.
    CasAttempt(AtomicId),
    /// CAS commit: if the snapshot version is still current, sync-write
    /// (success); otherwise re-attempt (the failure-path re-read).
    CasCommit(AtomicId, u64),
    /// Unconditional RMW (fetch_add/exchange) fetch: sync-read.
    RmwAcquire(AtomicId),
    /// Unconditional RMW commit: sync-write, always succeeds.
    RmwCommit(AtomicId),
}

impl<O: MemoryObserver> Machine<'_, O> {
    /// Expands one fetched workload op into this thread's step queue,
    /// applying wait-side injection removals as it goes. A data read or
    /// write executes at once instead: queued, it would be the very
    /// next step, at the same simulated time.
    pub(crate) fn expand_op<const TRUTH: bool>(&mut self, c: usize, op: Op) {
        let layout = self.workload.layout();
        match op {
            Op::Read(a) => {
                self.do_access::<TRUTH>(c, a, AccessKind::DataRead);
            }
            Op::Write(a) => {
                self.do_access::<TRUTH>(c, a, AccessKind::DataWrite);
            }
            Op::Compute(n) => {
                let ctx = &mut self.ctxs[c];
                ctx.ready_at += u64::from(n);
                ctx.instr += u64::from(n);
            }
            Op::Lock(l) => {
                if self.take_instance(c) {
                    self.ctxs[c].skip_unlocks.insert(l.0);
                } else {
                    self.ctxs[c].steps.push_back(Step::LockSpin(l));
                }
            }
            Op::Unlock(l) => {
                if !self.ctxs[c].skip_unlocks.remove(&l.0) {
                    self.ctxs[c].steps.push_back(Step::Release(l));
                }
            }
            Op::FlagSet(g) => self.ctxs[c].steps.push_back(Step::SetFlag(g)),
            Op::FlagReset(g) => self.ctxs[c].steps.push_back(Step::ResetFlag(g)),
            Op::FlagWait(g) => {
                if !self.take_instance(c) {
                    self.ctxs[c].steps.push_back(Step::WaitFlag(g));
                }
            }
            Op::Atomic(a, kind) => match kind {
                AtomicRmwKind::CasLoop => {
                    // A removed CAS loop (§3.4's removed acquire,
                    // extended to lock-free code) skips the whole RMW:
                    // neither the acquire-read nor the release-write
                    // happens, exactly as a removed lock skips both
                    // its acquire and the matching release.
                    if !self.take_instance(c) {
                        self.ctxs[c].steps.push_back(Step::CasAttempt(a));
                    }
                }
                AtomicRmwKind::FetchAdd | AtomicRmwKind::Exchange => {
                    self.ctxs[c].steps.push_back(Step::RmwAcquire(a));
                }
            },
            Op::Barrier(b) => {
                let counter = layout.barrier_counter_addr(b);
                if self.take_instance(c) {
                    self.ctxs[c].barrier_lock_skipped = true;
                } else {
                    let bl = layout.barrier_lock(b);
                    self.ctxs[c].steps.push_back(Step::LockSpin(bl));
                }
                let ctx = &mut self.ctxs[c];
                ctx.steps.push_back(Step::Access {
                    addr: counter,
                    kind: AccessKind::DataRead,
                });
                ctx.steps.push_back(Step::Access {
                    addr: counter,
                    kind: AccessKind::DataWrite,
                });
                ctx.steps.push_back(Step::BarrierCtl(b));
            }
        }
    }

    /// Executes one micro-step of thread `c` to completion.
    pub(crate) fn exec_step<const TRUTH: bool>(&mut self, c: usize, step: Step) {
        let layout = *self.workload.layout();
        match step {
            Step::Access { addr, kind } => {
                self.do_access::<TRUTH>(c, addr, kind);
            }
            Step::LockSpin(l) => {
                self.do_access::<TRUTH>(c, layout.lock_addr(l), AccessKind::SyncRead);
                let thread = self.ctxs[c].thread;
                if self.sync.try_acquire(l, thread) {
                    self.ctxs[c].steps.push_front(Step::LockTake(l));
                } else {
                    self.ctxs[c].status = Status::BlockedOnLock;
                    self.ctxs[c].stuck = StuckState::BlockedOnLock(l);
                }
            }
            Step::LockGranted(l) => {
                // Woken by a release that transferred us the lock: the
                // re-read observes the releaser's sync write, which is
                // the race outcome ordering release before acquire.
                self.do_access::<TRUTH>(c, layout.lock_addr(l), AccessKind::SyncRead);
                self.ctxs[c].steps.push_front(Step::LockTake(l));
            }
            Step::LockTake(l) => {
                self.do_access::<TRUTH>(c, layout.lock_addr(l), AccessKind::SyncWrite);
            }
            Step::Release(l) => {
                let done = self.do_access::<TRUTH>(c, layout.lock_addr(l), AccessKind::SyncWrite);
                let thread = self.ctxs[c].thread;
                if let Some(next) = self.sync.release(l, thread) {
                    self.wake(next, done, Step::LockGranted(l));
                }
            }
            Step::SetFlag(g) => {
                if self.take_release_instance(c) {
                    // Removed release (§3.4 extended to the release
                    // side): the flag write never happens and no waiter
                    // is woken. Blocking waiters deadlock; spinning
                    // waiters livelock until the watchdog fires.
                    return;
                }
                let done = self.do_access::<TRUTH>(c, layout.flag_addr(g), AccessKind::SyncWrite);
                for tid in self.sync.flag_set(g) {
                    self.wake(tid, done, Step::WaitFlag(g));
                }
            }
            Step::ResetFlag(g) => {
                self.do_access::<TRUTH>(c, layout.flag_addr(g), AccessKind::SyncWrite);
                self.sync.flag_reset(g);
            }
            Step::WaitFlag(g) => {
                self.do_access::<TRUTH>(c, layout.flag_addr(g), AccessKind::SyncRead);
                if !self.sync.flag_is_set(g) {
                    if let Some(spin) = self.cfg.flag_spin_cycles {
                        // Spin-wait: stay Ready and re-poll after a
                        // back-off. The thread burns cycles without
                        // fetching new ops, so a never-set flag shows
                        // up as a livelock, not a deadlock.
                        let ctx = &mut self.ctxs[c];
                        ctx.ready_at += spin;
                        ctx.steps.push_front(Step::WaitFlag(g));
                        ctx.stuck = StuckState::SpinningOnFlag(g);
                    } else {
                        let thread = self.ctxs[c].thread;
                        self.sync.flag_enqueue(g, thread);
                        self.ctxs[c].status = Status::BlockedOnFlag;
                        self.ctxs[c].stuck = StuckState::BlockedOnFlag(g);
                    }
                } else {
                    self.ctxs[c].stuck = StuckState::Runnable;
                }
            }
            Step::BarrierCtl(b) => {
                let thread = self.ctxs[c].thread;
                let arrival = self.sync.barrier_arrive(b, thread);
                let (f0, f1) = layout.barrier_flags(b);
                let cur = if arrival.episode.is_multiple_of(2) {
                    f0
                } else {
                    f1
                };
                let next = if arrival.episode.is_multiple_of(2) {
                    f1
                } else {
                    f0
                };
                let ctx = &mut self.ctxs[c];
                if arrival.is_last {
                    // Reset the counter, arm the next episode's flag,
                    // release this episode, drop the internal lock.
                    ctx.steps.push_front(Step::BarrierUnlock(b));
                    ctx.steps.push_front(Step::SetFlag(cur));
                    ctx.steps.push_front(Step::ResetFlag(next));
                    ctx.steps.push_front(Step::Access {
                        addr: layout.barrier_counter_addr(b),
                        kind: AccessKind::DataWrite,
                    });
                    if self.cfg.migrate_at_barriers {
                        self.pending_migration = true;
                    }
                } else {
                    ctx.steps.push_front(Step::BarrierWait(b, arrival.episode));
                    ctx.steps.push_front(Step::BarrierUnlock(b));
                }
            }
            Step::BarrierWait(b, episode) => {
                if !self.take_instance(c) {
                    let (f0, f1) = layout.barrier_flags(b);
                    let flag = if episode % 2 == 0 { f0 } else { f1 };
                    self.ctxs[c].steps.push_front(Step::WaitFlag(flag));
                }
            }
            Step::CasAttempt(a) => {
                self.do_access::<TRUTH>(c, layout.atomic_addr(a), AccessKind::SyncRead);
                let seen = self.sync.atomic_version(a);
                self.ctxs[c].steps.push_front(Step::CasCommit(a, seen));
            }
            Step::CasCommit(a, seen) => {
                if self.sync.atomic_version(a) == seen {
                    self.do_access::<TRUTH>(c, layout.atomic_addr(a), AccessKind::SyncWrite);
                    self.sync.atomic_bump(a);
                } else {
                    // Lost the race to another committer: the CAS
                    // fails and the loop re-reads the word. Progress
                    // is guaranteed — every failure implies some other
                    // thread committed, consuming its finite ops.
                    self.ctxs[c].steps.push_front(Step::CasAttempt(a));
                }
            }
            Step::RmwAcquire(a) => {
                self.do_access::<TRUTH>(c, layout.atomic_addr(a), AccessKind::SyncRead);
                self.ctxs[c].steps.push_front(Step::RmwCommit(a));
            }
            Step::RmwCommit(a) => {
                self.do_access::<TRUTH>(c, layout.atomic_addr(a), AccessKind::SyncWrite);
                self.sync.atomic_bump(a);
            }
            Step::BarrierUnlock(b) => {
                if self.ctxs[c].barrier_lock_skipped {
                    self.ctxs[c].barrier_lock_skipped = false;
                } else {
                    self.ctxs[c]
                        .steps
                        .push_front(Step::Release(layout.barrier_lock(b)));
                }
            }
        }
    }

    /// Wakes `thread` at time `at`, prepending `resume` to its steps; if
    /// the thread lost its core while blocked, it queues for the next
    /// free one.
    pub(crate) fn wake(&mut self, thread: ThreadId, at: u64, resume: Step) {
        let t = thread.index();
        let ctx = &mut self.ctxs[t];
        debug_assert_ne!(ctx.status, Status::Ready, "waking a ready thread");
        ctx.status = Status::Ready;
        ctx.stuck = StuckState::Runnable;
        ctx.ready_at = ctx.ready_at.max(at);
        ctx.steps.push_front(resume);
        if self.core_of[t].is_none() {
            self.acquire_core_for(t, at);
        } else {
            self.ready.push(self.ctxs[t].ready_at, t);
        }
    }
}
