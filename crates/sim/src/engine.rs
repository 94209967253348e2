//! The discrete-event execution engine: the step loop composing the
//! focused kernel layers.
//!
//! Each thread runs pinned to one core (optionally migrating at barrier
//! releases, §2.7.4). The engine repeatedly picks the runnable core with
//! the smallest ready time (the [`sched`](crate::sched) ready-heap) and
//! executes its next *step* to completion — either a memory access
//! (timed through the coherent
//! [`MemorySystem`](crate::memsys::MemorySystem)) or a control action of
//! a synchronization primitive. The sibling modules own the rest of the
//! kernel:
//!
//! * [`syncexp`](crate::syncexp) — the §3.4 sync-op → labeled-access
//!   expansion (lock/unlock, flags, sense-reversing barriers);
//! * [`inject`](crate::inject) — the removable/release dynamic
//!   numbering streams fault injection removes from (§3.4);
//! * [`sched`](crate::sched) — ready-core selection and core
//!   assignment (threads may outnumber cores, §2.4);
//! * [`migrate`](crate::migrate) — barrier-release migration and the
//!   §2.7.4 resynchronization bump;
//! * [`errors`](crate::errors) — abort diagnostics ([`SimError`]).
//!
//! This module keeps only the state ([`Machine`]), the step loop
//! ([`Machine::run`], or [`Machine::run_stats`] without ground truth),
//! and the timed access path ([`Machine::do_access`] internally), which
//! charges observer traffic on the timestamp bus.

use crate::bus::TsLedger;
use crate::config::MachineConfig;
use crate::memsys::{MemEvent, MemorySystem};
use crate::observer::{AccessEvent, AccessKind, AccessPath, CoreId, MemoryObserver};
use crate::sched::ReadyQueue;
use crate::stats::SimStats;
use crate::sync::SyncManager;
use crate::syncexp::Step;
use crate::truth::{GroundTruth, TruthSummary};
use cord_obs::{BusKind, EventKind, TraceEvent, TraceHandle, NO_THREAD};
use cord_trace::program::Workload;
use cord_trace::types::{Addr, ThreadId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

pub use crate::errors::{SimError, StuckState, ThreadDiag};
pub use crate::inject::InjectionPlan;

/// Everything a run produces besides the observer itself.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Timing and traffic statistics.
    pub stats: SimStats,
    /// Functional outcome (per-thread hashes, optional resolved streams).
    pub truth: TruthSummary,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Ready,
    BlockedOnLock,
    BlockedOnFlag,
    Done,
}

#[derive(Debug, Clone)]
pub(crate) struct CoreCtx {
    pub(crate) thread: ThreadId,
    pub(crate) op_idx: usize,
    pub(crate) steps: VecDeque<Step>,
    pub(crate) status: Status,
    pub(crate) ready_at: u64,
    pub(crate) instr: u64,
    pub(crate) skip_unlocks: HashSet<u32>,
    pub(crate) barrier_lock_skipped: bool,
    pub(crate) finish: u64,
    /// What this thread is waiting for right now (diagnostics only).
    pub(crate) stuck: StuckState,
}

impl CoreCtx {
    fn new(thread: ThreadId) -> Self {
        CoreCtx {
            thread,
            op_idx: 0,
            steps: VecDeque::new(),
            status: Status::Ready,
            ready_at: 0,
            instr: 0,
            skip_unlocks: HashSet::new(),
            barrier_lock_skipped: false,
            finish: 0,
            stuck: StuckState::Runnable,
        }
    }
}

/// A configured machine ready to run one workload with one observer.
///
/// A clone, mid-run if need be, simulates from there the cycles the
/// original would with the same observer outcomes; a trace sink is
/// shared with the clone, not copied.
#[derive(Clone)]
pub struct Machine<'w, O: MemoryObserver> {
    pub(crate) cfg: MachineConfig,
    pub(crate) workload: &'w Workload,
    pub(crate) observer: O,
    pub(crate) memsys: MemorySystem,
    pub(crate) sync: SyncManager,
    /// Per-thread execution contexts (indexed by thread id).
    pub(crate) ctxs: Vec<CoreCtx>,
    /// Which core each thread currently runs on (None = waiting for a
    /// core; threads may outnumber cores, §2.4).
    pub(crate) core_of: Vec<Option<usize>>,
    /// The core each thread last ran on (to detect migrations, §2.7.4).
    pub(crate) last_core: Vec<Option<usize>>,
    /// The thread each core last ran. A thread rescheduled onto its old
    /// core after a *different* thread used it still needs the §2.7.4
    /// resynchronization — the core's caches now carry the other
    /// thread's timestamps, and co-resident conflicts are exempt from
    /// race checks, so only the bump orders them for replay.
    pub(crate) core_last_thread: Vec<Option<usize>>,
    /// Cores with no thread currently scheduled.
    pub(crate) free_cores: Vec<usize>,
    /// Lazy min-heap over runnable scheduled threads.
    pub(crate) ready: ReadyQueue,
    pub(crate) truth: GroundTruth,
    pub(crate) stats: SimStats,
    /// The timestamp bus and what the observer charged on it.
    pub(crate) ledger: TsLedger,
    rng: SmallRng,
    pub(crate) plan: InjectionPlan,
    pub(crate) next_instance: u64,
    pub(crate) next_release_instance: u64,
    /// Cycle of the most recent workload-op fetch (watchdog progress).
    pub(crate) last_progress: u64,
    pub(crate) pending_migration: bool,
    /// Run-event trace sink; disabled (a single branch per site) unless
    /// installed with [`Machine::with_trace`].
    pub(crate) trace: TraceHandle,
}

impl<'w, O: MemoryObserver> Machine<'w, O> {
    /// Builds a machine for `workload` with the given observer, seed
    /// (scheduling jitter), and injection plan.
    ///
    /// Threads may outnumber cores (§2.4): surplus threads wait for a
    /// core and are scheduled on demand, paying the reschedule penalty
    /// and the §2.7.4 resynchronization.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails validation or the machine
    /// configuration is inconsistent.
    pub fn new(
        cfg: MachineConfig,
        workload: &'w Workload,
        observer: O,
        seed: u64,
        plan: InjectionPlan,
    ) -> Self {
        cfg.validate();
        workload
            .validate()
            .expect("workload failed structural validation");
        let n = workload.num_threads();
        let layout = workload.layout();
        let sync = SyncManager::new(
            layout.total_locks(),
            layout.total_flags(),
            layout.barriers(),
            n,
        )
        .with_atomics(layout.user_atomics());
        let ctxs = (0..n).map(|t| CoreCtx::new(ThreadId(t as u16))).collect();
        let truth = GroundTruth::new(n, cfg.capture_resolved);
        let core_of: Vec<Option<usize>> = (0..n)
            .map(|t| if t < cfg.cores { Some(t) } else { None })
            .collect();
        let free_cores: Vec<usize> = (n.min(cfg.cores)..cfg.cores).collect();
        let core_last_thread: Vec<Option<usize>> =
            (0..cfg.cores).map(|c| (c < n).then_some(c)).collect();
        let mut ready = ReadyQueue::new();
        for (t, core) in core_of.iter().enumerate() {
            if core.is_some() {
                ready.push(0, t);
            }
        }
        Machine {
            memsys: MemorySystem::new(cfg.clone()),
            last_core: core_of.clone(),
            core_last_thread,
            core_of,
            free_cores,
            ready,
            cfg,
            workload,
            observer,
            sync,
            ctxs,
            truth,
            stats: SimStats::default(),
            ledger: TsLedger::default(),
            rng: SmallRng::seed_from_u64(seed),
            plan,
            next_instance: 0,
            next_release_instance: 0,
            last_progress: 0,
            pending_migration: false,
            trace: TraceHandle::disabled(),
        }
    }

    /// Installs a run-event trace sink. The default is the disabled
    /// handle, which keeps every emission site to a single branch.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Runs to completion, returning the output and the observer.
    ///
    /// This is the run that verifies replay: it keeps the ground truth
    /// ([`RunOutput::truth`]). A caller that reads only the statistics
    /// should use [`Machine::run_stats`], which simulates the identical
    /// run without paying for it.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — no core can make progress while
    ///   threads remain unfinished (reachable only under injection).
    /// * [`SimError::Livelock`] — the configured watchdog's progress
    ///   window elapsed with no thread fetching a new workload op
    ///   (spin-wait hangs).
    /// * [`SimError::CycleBudgetExceeded`] — simulated time passed the
    ///   watchdog's total budget.
    pub fn run(mut self) -> Result<(RunOutput, O), SimError> {
        self.run_loop::<true>(&mut { u64::MAX })?;
        let (stats, observer, truth) = self.finish();
        let truth = truth.into_summary();
        Ok((RunOutput { stats, truth }, observer))
    }

    /// Runs to completion without ground truth, returning the
    /// statistics and the observer.
    ///
    /// Every simulated cycle, statistic, observer callback and error is
    /// identical to [`Machine::run`]'s: ground truth only watches the
    /// committed accesses, and this is the same step loop compiled
    /// without it. It returns no [`TruthSummary`], so a caller that
    /// needs replay hashes cannot use it by mistake.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run`].
    pub fn run_stats(mut self) -> Result<(SimStats, O), SimError> {
        self.run_loop::<false>(&mut { u64::MAX })?;
        let (stats, observer, _) = self.finish();
        Ok((stats, observer))
    }

    /// The step loop, compiled once with ground truth (`TRUTH`) for
    /// [`Machine::run`] and once without it for [`Machine::run_stats`].
    ///
    /// Each step spends one unit of `budget`. Returns `Ok(true)` once
    /// every thread finished, or `Ok(false)` when the budget ran out,
    /// between two steps: calling it again resumes the run exactly where
    /// it paused, so a run cut into budgets simulates the same cycles as
    /// one uncut call.
    pub(crate) fn run_loop<const TRUTH: bool>(
        &mut self,
        budget: &mut u64,
    ) -> Result<bool, SimError> {
        loop {
            if *budget == 0 {
                return Ok(false);
            }
            if self.pending_migration {
                self.pending_migration = false;
                self.rotate_threads();
            }
            let next = self.next_ready();
            #[cfg(debug_assertions)]
            self.assert_pick_matches_scan(next);
            match next {
                Some(t) => {
                    if let Some(err) = self.watchdog_check(self.ctxs[t].ready_at) {
                        return Err(err);
                    }
                    loop {
                        let heap_len = self.ready.len();
                        self.step_core::<TRUTH>(t);
                        *budget -= 1;
                        // Same-thread fast path: if the step left this
                        // thread Ready on its core, pushed nothing onto
                        // the ready heap, requested no migration, and
                        // left its key `(ready_at, t)` strictly below
                        // the heap's top, then pushing that key and
                        // popping would return it at once — every
                        // heap entry (stale ones included) is above it,
                        // and no new entry appeared (heap pushes are
                        // the only way another thread's key can
                        // change). The one thing the round-trip would
                        // do besides is the watchdog check at the new
                        // time, so it runs here (at an unchanged time
                        // it passes again: progress only advances).
                        let ctx = &self.ctxs[t];
                        let key = (ctx.ready_at, t);
                        // Leaving the fast path is always allowed (the
                        // push-and-pop round trip is what it stands for),
                        // so a spent budget leaves it here.
                        let fast = *budget > 0
                            && ctx.status == Status::Ready
                            && !self.pending_migration
                            && self.ready.len() == heap_len
                            && self.core_of[t].is_some()
                            && self.ready.peek().is_none_or(|top| key < top);
                        if !fast {
                            break;
                        }
                        if let Some(err) = self.watchdog_check(key.0) {
                            return Err(err);
                        }
                        #[cfg(debug_assertions)]
                        self.assert_pick_matches_scan(Some(t));
                    }
                    // A finished thread frees its core; a *blocked*
                    // thread keeps it until another thread actually
                    // needs one (so with threads <= cores everything
                    // stays pinned, and with more threads than cores the
                    // scheduler preempts blocked holders on demand —
                    // "real systems may have many more threads than
                    // processors", §2.4).
                    if self.ctxs[t].status == Status::Done {
                        self.release_core(t);
                    } else if self.ctxs[t].status == Status::Ready && self.core_of[t].is_some() {
                        self.ready.push(self.ctxs[t].ready_at, t);
                    }
                }
                None => {
                    if self.ctxs.iter().all(|c| c.status == Status::Done) {
                        return Ok(true);
                    }
                    // Ready threads without cores + free cores => schedule.
                    if self.schedule_waiting_threads() {
                        continue;
                    }
                    let cycle = self.ctxs.iter().map(|c| c.ready_at).max().unwrap_or(0);
                    return Err(SimError::Deadlock {
                        cycle,
                        stuck_threads: self.diagnostics(),
                    });
                }
            }
        }
    }

    /// Moves this machine's state, mid-run if need be, onto `observer`,
    /// handing back the observer it had.
    pub(crate) fn swap_observer<P: MemoryObserver>(self, observer: P) -> (Machine<'w, P>, O) {
        let machine = Machine {
            cfg: self.cfg,
            workload: self.workload,
            observer,
            memsys: self.memsys,
            sync: self.sync,
            ctxs: self.ctxs,
            core_of: self.core_of,
            last_core: self.last_core,
            core_last_thread: self.core_last_thread,
            free_cores: self.free_cores,
            ready: self.ready,
            truth: self.truth,
            stats: self.stats,
            ledger: self.ledger,
            rng: self.rng,
            plan: self.plan,
            next_instance: self.next_instance,
            next_release_instance: self.next_release_instance,
            last_progress: self.last_progress,
            pending_migration: self.pending_migration,
            trace: self.trace,
        };
        (machine, self.observer)
    }

    pub(crate) fn finish(mut self) -> (SimStats, O, GroundTruth) {
        let n = self.ctxs.len();
        let mut instr_counts = vec![0u64; n];
        let mut per_core = vec![0u64; n];
        for (i, c) in self.ctxs.iter().enumerate() {
            instr_counts[c.thread.index()] = c.instr;
            per_core[i] = c.finish;
        }
        self.stats.cycles = per_core.iter().copied().max().unwrap_or(0);
        self.stats.per_core_cycles = per_core;
        self.stats.instr_counts = instr_counts.clone();
        self.stats.data_bus_busy = self.memsys.buses.data.busy_cycles();
        self.stats.data_bus_wait = self.memsys.buses.data.contention_cycles();
        self.stats.addr_bus_busy = self.memsys.buses.addr.busy_cycles();
        self.stats.addr_bus_wait = self.memsys.buses.addr.contention_cycles();
        self.stats.mem_bus_busy = self.memsys.buses.mem.busy_cycles();
        self.ledger.write_into(&mut self.stats);
        let coh = self.memsys.coherence_stats();
        self.stats.directory_lookups = coh.directory_lookups;
        self.stats.directory_forwards = coh.directory_forwards;
        self.stats.directory_home_busy = coh.home_busy_cycles;
        self.stats.directory_home_wait = coh.home_wait_cycles;
        self.observer.on_run_end(&instr_counts);
        (self.stats, self.observer, self.truth)
    }

    /// Snapshot of every unfinished thread for error reports.
    pub(crate) fn diagnostics(&self) -> Vec<ThreadDiag> {
        self.ctxs
            .iter()
            .filter(|c| c.status != Status::Done)
            .map(|c| ThreadDiag {
                thread: c.thread,
                state: c.stuck,
                op_idx: c.op_idx,
                ops_total: self.workload.thread(c.thread).ops().len(),
                instr: c.instr,
                ready_at: c.ready_at,
            })
            .collect()
    }

    /// Evaluates the watchdog at simulated time `now` (the ready time
    /// of the thread about to step). Returns the error to abort with,
    /// if any limit tripped.
    fn watchdog_check(&self, now: u64) -> Option<SimError> {
        let wd = &self.cfg.watchdog;
        if let Some(budget) = wd.max_cycles {
            if now > budget {
                return Some(SimError::CycleBudgetExceeded {
                    cycle: now,
                    budget,
                    stuck_threads: self.diagnostics(),
                });
            }
        }
        if let Some(window) = wd.progress_window {
            if now.saturating_sub(self.last_progress) > window {
                return Some(SimError::Livelock {
                    cycle: now,
                    last_progress_cycle: self.last_progress,
                    stuck_threads: self.diagnostics(),
                });
            }
        }
        None
    }

    fn step_core<const TRUTH: bool>(&mut self, c: usize) {
        if let Some(step) = self.ctxs[c].steps.pop_front() {
            self.exec_step::<TRUTH>(c, step);
            return;
        }
        let thread = self.ctxs[c].thread;
        let op_idx = self.ctxs[c].op_idx;
        let prog = self.workload.thread(thread);
        match prog.ops().get(op_idx) {
            None => {
                let ctx = &mut self.ctxs[c];
                ctx.status = Status::Done;
                ctx.finish = ctx.ready_at;
                self.last_progress = self.last_progress.max(ctx.finish);
            }
            Some(op) => {
                // Fetching a new workload op is the watchdog's notion of
                // progress: spin re-polls never reach here.
                self.last_progress = self.last_progress.max(self.ctxs[c].ready_at);
                self.ctxs[c].op_idx += 1;
                self.expand_op::<TRUTH>(c, *op);
            }
        }
    }

    /// Executes one timed memory access; returns its completion cycle.
    /// Ground truth records the access only when `TRUTH` is set (see
    /// [`Machine::run_stats`]).
    pub(crate) fn do_access<const TRUTH: bool>(
        &mut self,
        c: usize,
        addr: Addr,
        kind: AccessKind,
    ) -> u64 {
        let jitter = if self.cfg.jitter_cycles > 0 {
            u64::from(self.rng.gen_range(0..=self.cfg.jitter_cycles))
        } else {
            0
        };
        let core = CoreId(self.core_of[c].expect("running thread has a core") as u8);
        let thread = self.ctxs[c].thread;
        let start = self.ctxs[c].ready_at + jitter;
        let res = self.memsys.access(core, addr, kind.is_write(), start);

        // Requester-side events (fills, capacity victims) precede the
        // access; remote *invalidations* are part of the access's own
        // bus transaction, whose snoop race-checks must see the
        // victimized histories — so those are delivered after
        // `on_access` (§2.7.2: "snooping hits in other caches result in
        // data race checks").
        if res.path.has_bus_transaction() {
            self.trace.emit(|| TraceEvent {
                cycle: start,
                thread: thread.0,
                kind: EventKind::Bus {
                    bus: match res.path {
                        AccessPath::FillFromMemory => BusKind::Mem,
                        AccessPath::FillFromSibling(_) => BusKind::Data,
                        _ => BusKind::Addr,
                    },
                    line: addr.line().0,
                },
            });
        }
        for ev in &res.events {
            match ev {
                MemEvent::Removed(rm)
                    if rm.cause != crate::observer::RemovalCause::Invalidation =>
                {
                    self.trace_removal(rm, res.done);
                    let out = self.observer.on_line_removed(rm);
                    self.charge_observer(out, res.done);
                }
                MemEvent::Filled { core, level, line } => {
                    self.trace.emit(|| TraceEvent {
                        cycle: res.done,
                        thread: thread.0,
                        kind: EventKind::Fill {
                            core: core.0,
                            level: match level {
                                crate::observer::Level::L1 => 1,
                                crate::observer::Level::L2 => 2,
                            },
                            line: line.0,
                        },
                    });
                    self.observer.on_line_filled(*core, *level, *line);
                }
                MemEvent::Removed(_) => {}
            }
        }

        let instr_index = self.ctxs[c].instr;
        let ev = AccessEvent {
            core,
            thread,
            addr,
            kind,
            path: res.path,
            instr_index,
            cycle: start,
        };
        let out = self.observer.on_access(&ev);
        if out.race_check_requests > 0 {
            self.trace.emit(|| TraceEvent {
                cycle: start,
                thread: thread.0,
                kind: EventKind::RaceCheck {
                    line: addr.line().0,
                    requests: out.race_check_requests,
                },
            });
        }
        if out.posted_transactions > 0 {
            self.trace.emit(|| TraceEvent {
                cycle: start,
                thread: thread.0,
                kind: EventKind::MemtsBroadcast {
                    count: out.posted_transactions,
                },
            });
        }
        let stall = self.charge_observer(out, res.done);

        for mev in &res.events {
            if let MemEvent::Removed(rm) = mev {
                if rm.cause == crate::observer::RemovalCause::Invalidation {
                    self.trace_removal(rm, res.done);
                    let out = self.observer.on_line_removed(rm);
                    self.charge_observer(out, res.done);
                }
            }
        }

        self.memsys.recycle(res.events);
        if TRUTH {
            self.truth.commit(thread, instr_index, addr, kind);
        }
        self.ctxs[c].instr += 1;
        self.ctxs[c].ready_at = res.done + stall;

        match kind {
            AccessKind::DataRead => self.stats.data_reads += 1,
            AccessKind::DataWrite => self.stats.data_writes += 1,
            AccessKind::SyncRead => self.stats.sync_reads += 1,
            AccessKind::SyncWrite => self.stats.sync_writes += 1,
        }
        match res.path {
            AccessPath::L1Hit => self.stats.l1_hits += 1,
            AccessPath::L2Hit => self.stats.l2_hits += 1,
            AccessPath::UpgradeHit => self.stats.upgrades += 1,
            AccessPath::FillFromSibling(_) => self.stats.sibling_fills += 1,
            AccessPath::FillFromMemory => self.stats.memory_fills += 1,
        }
        res.done
    }

    /// Emits a line-removal trace event (no originating thread: the
    /// victim is picked by the cache, not by an instruction).
    fn trace_removal(&self, rm: &crate::observer::LineRemoval, at: u64) {
        self.trace.emit(|| TraceEvent {
            cycle: at,
            thread: NO_THREAD,
            kind: EventKind::Remove {
                core: rm.core.0,
                level: match rm.level {
                    crate::observer::Level::L1 => 1,
                    crate::observer::Level::L2 => 2,
                },
                line: rm.line.0,
                dirty: rm.dirty,
                invalidation: rm.cause == crate::observer::RemovalCause::Invalidation,
            },
        });
    }

    /// Charges an observer's outcome on the timestamp bus at `at` (see
    /// [`TsLedger::charge`]) and returns the retirement stall, which the
    /// caller adds to the core's ready time. An observer that keeps its
    /// own ledgers (a shared run's cells) answers the stall itself, and
    /// the machine's ledger is left alone.
    fn charge_observer(&mut self, out: crate::observer::ObserverOutcome, at: u64) -> u64 {
        match self.observer.retirement_stall(at) {
            Some(stall) => stall,
            None => self.ledger.charge(
                out,
                at,
                self.cfg.addr_bus_slot_cycles,
                self.cfg.race_check_retire_window,
            ),
        }
    }
}

// Compile-time Send audit (static_assertions style): the parallel
// injection-sweep executor constructs a `Machine` inside a pool job and
// runs it on a worker thread, and the job's closure borrows the shared
// `Workload`. If any machine internal (RNG, memory system, sync
// manager) or output type ever stops being `Send` — or `Workload`
// stops being `Sync` — sweeps would stop compiling here instead of
// breaking at the first `--jobs N` run.
#[allow(dead_code)]
fn _thread_safety_audit() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    fn machine_is_send<O: MemoryObserver + Send>() {
        send::<Machine<'static, O>>();
    }
    let _ = machine_is_send::<crate::observer::NullObserver>;
    send::<RunOutput>();
    send::<SimStats>();
    send::<SimError>();
    send::<InjectionPlan>();
    sync::<Workload>();
    sync::<MachineConfig>();
}
