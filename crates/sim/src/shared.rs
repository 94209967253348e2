//! Shared runs: several observers on one machine for as long as they
//! stall it alike.
//!
//! Observers that charge the timestamp bus (CORD's race checks and
//! memory-timestamp broadcasts) can steer the machine they watch: an
//! instruction whose race check is still in flight at retirement stalls
//! its core (§3.1). That stall is all an observer feeds back into the
//! machine; its bus charges otherwise only fill its own timestamp-bus
//! ledger ([`TsLedger`]). So two such observers on equal machines
//! simulate identical cycles until the first access whose stall differs
//! between them, however differently they charge the bus before that.
//! [`Machine::run_cells`] runs every such observer — a *cell* — on one
//! machine while their stalls agree, each cell with its own ledger, and
//! forks the machine where they differ.
//!
//! Cell 0 leads: its stall drives the machine, and every callback goes
//! to every live cell. After each `on_access`, every cell charges its
//! outcome on its own ledger at the access's completion cycle; the cells
//! whose stall differs from the leader's are detached, grouped by stall,
//! and get no further callbacks from this machine. A removal is charged
//! the same way but never splits, because the machine drops a removal's
//! stall. While two or more cells are live, the machine runs in chunks
//! of [`CHUNK_STEPS`] steps, keeps a copy of its own state at the start
//! of each chunk, and logs the non-zero stalls since then. A detached
//! class continues on a copy of that checkpoint: up to and including the
//! access where it split off, its callbacks are answered from the log
//! and not delivered (the class's cells have already seen them and
//! charged them), and from then on they are delivered live. An execution
//! whose inputs were recorded re-executes exactly, and here the
//! machine's only inputs are the stalls, so each cell sees exactly the
//! run it would have had alone. A branch left with one cell moves that
//! cell's ledger into the machine and runs to its end as a plain
//! [`Machine::run_stats`] run; a branch that ends with several cells
//! gives each the branch's [`SimStats`] with its own ledger written in.
//!
//! Why a checkpoint plus replay, rather than a copy taken at the
//! divergent callback: the divergence is found inside an access, in the
//! middle of a step, while a copy at a step boundary leaves the step
//! loop unchanged apart from its step budget.

use crate::bus::TsLedger;
use crate::engine::{Machine, SimError};
use crate::observer::{
    AccessEvent, CoreId, Level, LineRemoval, MemoryObserver, NullObserver, ObserverOutcome,
};
use crate::stats::SimStats;
use cord_trace::types::{LineAddr, ThreadId};

/// Steps a shared machine runs between checkpoints. A checkpoint copies
/// the machine (a few microseconds on the paper machine), and a fork
/// replays at most one chunk, so this trades copies against replay.
pub(crate) const CHUNK_STEPS: u64 = 8192;

/// One non-zero retirement stall of a shared run, by callback number
/// since the checkpoint. `what` names the access (thread and
/// instruction) so a replay can check that it answers the callback that
/// was logged.
#[derive(Debug, Clone, Copy)]
struct Logged {
    seq: u64,
    what: (u64, u64),
    stall: u64,
}

/// One cell of a shared run: its index among the run's cells, its
/// observer, its own timestamp-bus ledger, and the outcome of its last
/// `on_access` or `on_line_removed`, which the stall hook charges.
struct Cell<O> {
    index: usize,
    observer: O,
    ledger: TsLedger,
    outcome: ObserverOutcome,
}

/// What the stall hook answers for the callback just delivered.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// A replayed callback: the stall the log holds for it.
    Replayed(u64),
    /// An access, by thread and instruction: the cells split on it.
    Access((u64, u64)),
    /// A removal: every cell charges it, and none splits.
    Removal,
}

/// The observer of one branch of a shared run: its live cells (the
/// leader first), the stall log since the branch's checkpoint, and the
/// replay that brings a fork up to the access where it split off.
struct Cells<O> {
    live: Vec<Cell<O>>,
    /// The timestamp bus's slot and the retirement window, in cycles.
    slot: u64,
    window: u64,
    /// Callbacks since the checkpoint.
    seq: u64,
    /// The non-zero stalls since the checkpoint, in callback order.
    log: Vec<Logged>,
    /// Callbacks numbered below this are answered from `log`.
    replay_until: u64,
    /// The next log entry the replay answers with.
    replay_pos: usize,
    /// What the stall hook answers for the last outcome-bearing
    /// callback.
    pending: Pending,
    /// Classes split off since the checkpoint, each ready to replay.
    detached: Vec<Cells<O>>,
}

impl<O: MemoryObserver> Cells<O> {
    fn new(
        live: Vec<Cell<O>>,
        (slot, window): (u64, u64),
        log: Vec<Logged>,
        replay_until: u64,
    ) -> Self {
        Cells {
            live,
            slot,
            window,
            seq: 0,
            log,
            replay_until,
            replay_pos: 0,
            pending: Pending::Removal,
            detached: Vec::new(),
        }
    }

    /// One live cell and nothing left to replay: the branch can shed
    /// this wrapper.
    fn is_solo(&self) -> bool {
        self.live.len() == 1 && self.seq >= self.replay_until
    }

    /// Restarts the log at a new checkpoint.
    fn checkpointed(&mut self) {
        debug_assert!(self.seq >= self.replay_until, "replay spans a chunk");
        self.seq = 0;
        self.replay_until = 0;
        self.replay_pos = 0;
        self.log.clear();
    }

    /// Numbers the next callback; while replaying, answers it with its
    /// logged stall instead of delivering it.
    #[inline]
    fn replayed(&mut self, what: (u64, u64)) -> Option<u64> {
        let seq = self.seq;
        self.seq += 1;
        if seq >= self.replay_until {
            return None;
        }
        let stall = match self.log.get(self.replay_pos) {
            Some(l) if l.seq == seq => {
                debug_assert_eq!(l.what, what, "replay answered a callback it did not log");
                self.replay_pos += 1;
                l.stall
            }
            _ => 0,
        };
        debug_assert!(
            seq + 1 < self.replay_until || self.replay_pos == self.log.len(),
            "replay ended before its log did"
        );
        Some(stall)
    }

    /// Delivers an outcome-bearing callback to every live cell, keeping
    /// each cell's outcome for the stall hook, and returns the leader's.
    #[inline]
    fn deliver(
        &mut self,
        what: (u64, u64),
        live: Pending,
        mut f: impl FnMut(&mut O) -> ObserverOutcome,
    ) -> ObserverOutcome {
        if let Some(stall) = self.replayed(what) {
            self.pending = Pending::Replayed(stall);
            return ObserverOutcome::NONE;
        }
        self.pending = live;
        for c in &mut self.live {
            c.outcome = f(&mut c.observer);
        }
        self.live[0].outcome
    }

    /// Charges the pending outcome of cell `i` on its ledger at `at`.
    #[inline]
    fn charge(&mut self, i: usize, at: u64) -> u64 {
        let c = &mut self.live[i];
        c.ledger.charge(c.outcome, at, self.slot, self.window)
    }

    /// Charges every cell for an access at `at`. Cells whose stall
    /// differs from the leader's are detached by stall; the leader's
    /// stall is logged and returned.
    #[inline]
    fn split(&mut self, what: (u64, u64), at: u64) -> u64 {
        let lead = self.charge(0, at);
        let mut differ: Vec<(u64, usize)> = Vec::new();
        for i in 1..self.live.len() {
            let stall = self.charge(i, at);
            if stall != lead {
                differ.push((stall, i));
            }
        }
        let seq = self.seq - 1;
        if !differ.is_empty() {
            self.detach(seq, what, &differ);
        }
        if lead != 0 && self.live.len() > 1 {
            self.log.push(Logged {
                seq,
                what,
                stall: lead,
            });
        }
        lead
    }

    /// Detaches the cells in `differ` (by stall, then index) from this
    /// branch, one class per stall, each to replay up to callback `seq`.
    #[inline(never)]
    fn detach(&mut self, seq: u64, what: (u64, u64), differ: &[(u64, usize)]) {
        // Back to front, so each removal leaves the indices still to
        // come in place and each class keeps its cells in order.
        let mut classes: Vec<(u64, Vec<Cell<O>>)> = Vec::new();
        for &(stall, i) in differ.iter().rev() {
            let cell = self.live.remove(i);
            match classes.iter_mut().find(|(s, _)| *s == stall) {
                Some((_, cells)) => cells.insert(0, cell),
                None => classes.push((stall, vec![cell])),
            }
        }
        for (stall, cells) in classes {
            let mut log = self.log.clone();
            if stall != 0 {
                log.push(Logged { seq, what, stall });
            }
            let params = (self.slot, self.window);
            self.detached.push(Cells::new(cells, params, log, seq + 1));
        }
    }

    /// Delivers a callback that bears no outcome to every live cell.
    #[inline]
    fn notify(&mut self, what: (u64, u64), mut f: impl FnMut(&mut O)) {
        if self.replayed(what).is_none() {
            for c in &mut self.live {
                f(&mut c.observer);
            }
        }
    }
}

impl<O: MemoryObserver> MemoryObserver for Cells<O> {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let what = (u64::from(ev.thread.0), ev.instr_index);
        self.deliver(what, Pending::Access(what), |o| o.on_access(ev))
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.notify((u64::from(core.0), line.0), |o| {
            o.on_line_filled(core, level, line)
        });
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        let what = (u64::from(removal.core.0), removal.line.0);
        self.deliver(what, Pending::Removal, |o| o.on_line_removed(removal))
    }

    fn retirement_stall(&mut self, at: u64) -> Option<u64> {
        Some(match self.pending {
            Pending::Replayed(stall) => stall,
            Pending::Access(what) => self.split(what, at),
            Pending::Removal => {
                for i in 0..self.live.len() {
                    self.charge(i, at);
                }
                0
            }
        })
    }

    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.notify((u64::from(thread.0), u64::from(to.0)), |o| {
            o.on_thread_migrated(thread, from, to)
        });
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        debug_assert!(self.seq >= self.replay_until, "a fork ended mid-replay");
        for c in &mut self.live {
            c.observer.on_run_end(final_instr_counts);
        }
    }
}

/// What a shared run simulated, for accounting: compare its `steps`
/// with the sum over cells of their solo runs' `steps`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedRun {
    /// Steps simulated over every branch, replayed steps included.
    pub steps: u64,
    /// Branches forked off a checkpoint.
    pub forks: u64,
    /// Callbacks that forks answered from the log rather than
    /// delivering.
    pub replayed: u64,
}

/// A branch not yet run: the checkpoint it starts from and its cells.
type Branch<'w, O> = (Machine<'w, NullObserver>, Cells<O>);

impl<'w> Machine<'w, NullObserver> {
    /// Runs every observer in `cells` on this machine, each seeing
    /// exactly the run it would have had alone: per cell, the same
    /// callbacks, the same [`SimStats`] and the same [`SimError`] as
    /// [`Machine::run_stats`] on this machine with that observer. Cells
    /// share one simulation while the retirement stalls their outcomes
    /// cause agree, each charging its own timestamp-bus ledger, and
    /// continue on forks of it where the stalls differ (see the [module
    /// docs](self)). So cells that never stall the machine differently
    /// cost one run between them, and a single cell is a plain
    /// `run_stats` run.
    ///
    /// `done(i, result)` hands back cell `i` as soon as its machine
    /// ends, in no fixed order: its statistics and observer (after
    /// `on_run_end`), or the error its run stopped with. A machine with
    /// a trace sink should run one cell, since forks share the sink. A
    /// panic in any cell unwinds the whole call.
    pub fn run_cells<O: MemoryObserver>(
        self,
        cells: Vec<O>,
        mut done: impl FnMut(usize, Result<(SimStats, O), SimError>),
    ) -> SharedRun {
        let live = cells
            .into_iter()
            .enumerate()
            .map(|(index, observer)| Cell {
                index,
                observer,
                ledger: TsLedger::default(),
                outcome: ObserverOutcome::NONE,
            })
            .collect();
        let params = (
            self.cfg.addr_bus_slot_cycles,
            self.cfg.race_check_retire_window,
        );
        let root = Cells::new(live, params, Vec::new(), 0);
        let mut branches: Vec<Branch<'w, O>> = vec![(self, root)];
        let mut acct = SharedRun::default();
        while let Some((start, cells)) = branches.pop() {
            run_branch(start, cells, &mut branches, &mut acct, &mut done);
        }
        acct
    }
}

/// Runs one branch to its end, pushing the classes that split off it.
fn run_branch<'w, O: MemoryObserver>(
    start: Machine<'w, NullObserver>,
    cells: Cells<O>,
    branches: &mut Vec<Branch<'w, O>>,
    acct: &mut SharedRun,
    done: &mut impl FnMut(usize, Result<(SimStats, O), SimError>),
) {
    let mut checkpoint = (cells.live.len() > 1).then(|| start.clone());
    let (mut m, _) = start.swap_observer(cells);
    loop {
        if m.observer.is_solo() {
            let (mut m, mut cells) = m.swap_observer(NullObserver);
            let cell = cells.live.pop().expect("a solo branch has its cell");
            m.ledger = cell.ledger;
            let (mut m, _) = m.swap_observer(cell.observer);
            let mut budget = u64::MAX;
            let ran = m.run_loop::<false>(&mut budget);
            acct.steps += u64::MAX - budget;
            done(
                cell.index,
                ran.map(|_| {
                    let (stats, o, _) = m.finish();
                    (stats, o)
                }),
            );
            return;
        }
        let mut budget = CHUNK_STEPS;
        let ran = m.run_loop::<false>(&mut budget);
        acct.steps += CHUNK_STEPS - budget;
        for class in std::mem::take(&mut m.observer.detached) {
            let from = checkpoint
                .as_ref()
                .expect("a branch that can split keeps a checkpoint");
            acct.forks += 1;
            acct.replayed += class.replay_until;
            branches.push((from.clone(), class));
        }
        match ran {
            Ok(false) => {
                // The checkpoint copies the machine without its cells.
                let (bare, mut cells) = m.swap_observer(NullObserver);
                checkpoint = (cells.live.len() > 1).then(|| bare.clone());
                cells.checkpointed();
                m = bare.swap_observer(cells).0;
            }
            Ok(true) => {
                let (stats, cells, _) = m.finish();
                for c in cells.live {
                    let mut stats = stats.clone();
                    c.ledger.write_into(&mut stats);
                    done(c.index, Ok((stats, c.observer)));
                }
                return;
            }
            Err(err) => {
                for c in std::mem::take(&mut m.observer.live) {
                    done(c.index, Err(err.clone()));
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Watchdog};
    use crate::engine::InjectionPlan;
    use crate::observer::RemovalCause;
    use cord_trace::builder::WorkloadBuilder;
    use cord_trace::program::Workload;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Every callback an observer saw, in order: a tag, then the fields
    /// that identify it (an access's cycle included, so a timing drift
    /// shows).
    type Seen = Rc<RefCell<Vec<(u8, u64, u64, u64)>>>;

    /// A toy detector: it charges `charges[k].1` at its outcome-bearing
    /// callback number `charges[k].0` (accesses and removals, counted
    /// from 0) and records every callback it sees.
    struct Toy {
        charges: Vec<(u64, ObserverOutcome)>,
        n: u64,
        seen: Seen,
    }

    impl Toy {
        fn outcome(&mut self) -> ObserverOutcome {
            let n = self.n;
            self.n += 1;
            self.charges
                .iter()
                .find(|c| c.0 == n)
                .map_or(ObserverOutcome::NONE, |c| c.1)
        }
    }

    impl MemoryObserver for Toy {
        fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
            let who = u64::from(ev.thread.0) << 32 | u64::from(ev.core.0);
            self.seen
                .borrow_mut()
                .push((0, who, ev.instr_index, ev.cycle));
            self.outcome()
        }
        fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
            let level = u64::from(level == Level::L2);
            self.seen
                .borrow_mut()
                .push((1, u64::from(core.0), level, line.0));
        }
        fn on_line_removed(&mut self, r: &LineRemoval) -> ObserverOutcome {
            let how = u64::from(r.level == Level::L2) << 2
                | u64::from(r.cause == RemovalCause::Invalidation) << 1
                | u64::from(r.dirty);
            self.seen
                .borrow_mut()
                .push((2, u64::from(r.core.0), how, r.line.0));
            self.outcome()
        }
        fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
            self.seen.borrow_mut().push((
                3,
                u64::from(thread.0),
                u64::from(from.0),
                u64::from(to.0),
            ));
        }
        fn on_run_end(&mut self, counts: &[u64]) {
            self.seen.borrow_mut().push((4, counts.iter().sum(), 0, 0));
        }
    }

    /// Four threads that overflow their L1s (capacity removals) and
    /// share lock-protected words (invalidations): a few chunks of steps.
    fn workload() -> Workload {
        let mut b = WorkloadBuilder::new("shared-runs", 4);
        let lock = b.alloc_lock();
        let shared = b.alloc_words(64);
        let private: Vec<_> = (0..4).map(|_| b.alloc_line_aligned(3072)).collect();
        for (t, mine) in private.iter().enumerate() {
            let th = &mut b.thread_mut(t);
            for _ in 0..3 {
                th.write_span(mine.base(), mine.len())
                    .lock(lock)
                    .update(shared.word(t as u64))
                    .unlock(lock)
                    .read_span(shared.base(), shared.len());
            }
        }
        b.build()
    }

    const SEED: u64 = 7;

    fn toy(charges: &[(u64, ObserverOutcome)]) -> (Toy, Seen) {
        let seen = Seen::default();
        let t = Toy {
            charges: charges.to_vec(),
            n: 0,
            seen: seen.clone(),
        };
        (t, seen)
    }

    type Solo = (Result<SimStats, SimError>, Vec<(u8, u64, u64, u64)>);

    /// Runs each charge schedule alone and all of them as cells of one
    /// shared run, asserts that every cell's statistics, error and
    /// callbacks equal its solo run's, and returns the solo results and
    /// the shared run's accounting.
    fn check(
        w: &Workload,
        cfg: &MachineConfig,
        plan: InjectionPlan,
        schedules: &[Vec<(u64, ObserverOutcome)>],
    ) -> (Vec<Solo>, SharedRun) {
        let machine = || Machine::new(cfg.clone(), w, NullObserver, SEED, plan);
        let solo: Vec<Solo> = schedules
            .iter()
            .map(|s| {
                let (t, seen) = toy(s);
                let (m, _) = machine().swap_observer(t);
                let r = m.run_stats().map(|(stats, _)| stats);
                let seen = seen.borrow().clone();
                (r, seen)
            })
            .collect();
        let (toys, seens): (Vec<_>, Vec<_>) = schedules.iter().map(|s| toy(s)).unzip();
        let mut results: Vec<Option<Result<SimStats, SimError>>> = vec![None; toys.len()];
        let acct = machine().run_cells(toys, |i, r| {
            assert!(results[i].is_none(), "cell {i} handed back twice");
            results[i] = Some(r.map(|(stats, _)| stats));
        });
        for (i, ((want, want_seen), (got, seen))) in
            solo.iter().zip(results.into_iter().zip(&seens)).enumerate()
        {
            assert_eq!(got.as_ref(), Some(want), "cell {i}: stats or error");
            assert!(*seen.borrow() == *want_seen, "cell {i}: callbacks differ");
        }
        (solo, acct)
    }

    /// The outcome-bearing callbacks (accesses and removals) of an
    /// uncharged run, as indices into a toy's count, with their tags.
    fn outcome_callbacks(w: &Workload, cfg: &MachineConfig) -> Vec<u8> {
        let (t, seen) = toy(&[]);
        let m = Machine::new(cfg.clone(), w, t, SEED, InjectionPlan::none());
        m.run_stats().expect("clean run");
        let seen = seen.borrow();
        seen.iter()
            .map(|s| s.0)
            .filter(|&tag| tag == 0 || tag == 2)
            .collect()
    }

    fn stats(s: &Solo) -> &SimStats {
        s.0.as_ref().expect("run completes")
    }

    const CHECK: ObserverOutcome = ObserverOutcome {
        race_check_requests: 1,
        posted_transactions: 0,
    };
    const POST: ObserverOutcome = ObserverOutcome {
        race_check_requests: 0,
        posted_transactions: 2,
    };

    /// Enough race checks to back up the timestamp bus past the
    /// retirement window: the issuing core stalls.
    const STALL: ObserverOutcome = ObserverOutcome {
        race_check_requests: 64,
        posted_transactions: 0,
    };
    /// Half as many: a stall of its own length.
    const HALF: ObserverOutcome = ObserverOutcome {
        race_check_requests: 32,
        posted_transactions: 0,
    };

    /// The first outcome-bearing callback at or after `from` that is a
    /// removal.
    fn removal_at_or_after(w: &Workload, cfg: &MachineConfig, from: usize) -> u64 {
        let tags = outcome_callbacks(w, cfg);
        tags.iter()
            .enumerate()
            .skip(from)
            .find(|&(_, &tag)| tag == 2)
            .map(|(i, _)| i as u64)
            .expect("the workload overflows its L1s")
    }

    #[test]
    fn a_split_inside_a_chunk_matches_solo_runs() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[
                vec![(40, STALL), (3000, STALL)],
                vec![(40, STALL), (3000, HALF)],
                vec![(40, STALL)],
            ],
        );
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert_ne!(stats(&solo[a]), stats(&solo[b]), "cells {a} and {b}");
        }
        assert_eq!(acct.forks, 2);
        assert!(
            acct.replayed > 3000,
            "the forks replay from the chunk start"
        );
    }

    #[test]
    fn a_split_at_a_chunk_boundary_matches_solo_runs() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        // How many outcome-bearing callbacks the first chunk makes.
        let (t, _seen) = toy(&[]);
        let mut m = Machine::new(cfg.clone(), &w, t, SEED, InjectionPlan::none());
        assert!(!m.run_loop::<false>(&mut CHUNK_STEPS.clone()).expect("runs"));
        let first = m.observer.n;
        assert!(first > 0);
        // The last callback of chunk 1 (the fork replays the whole
        // chunk) and the first of chunk 2 (it replays nothing but the
        // divergent callback).
        for at in [first - 1, first] {
            let (solo, acct) = check(
                &w,
                &cfg,
                InjectionPlan::none(),
                &[vec![], vec![(at, STALL)]],
            );
            assert_ne!(stats(&solo[0]).cycles, stats(&solo[1]).cycles);
            assert_eq!(acct.forks, 1);
        }
    }

    #[test]
    fn a_three_way_split_and_a_split_of_a_fork_match_solo_runs() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[
                vec![(100, STALL)],
                vec![(100, HALF)],
                vec![(100, HALF), (20_000, STALL)],
                vec![],
                vec![(100, HALF)],
            ],
        );
        for (a, b) in [(0, 1), (0, 3), (1, 2), (1, 3)] {
            assert_ne!(stats(&solo[a]), stats(&solo[b]), "cells {a} and {b}");
        }
        assert_eq!(stats(&solo[1]), stats(&solo[4]));
        // {HALF} and {nothing} split off the leader at 100, then the
        // HALF class splits again at 20 000.
        assert_eq!(acct.forks, 3);
    }

    #[test]
    fn a_charge_at_a_removal_never_forks() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let at = removal_at_or_after(&w, &cfg, 5000);
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[vec![(at, STALL)], vec![(at, CHECK)], vec![]],
        );
        // The machine drops a removal's stall, so every cell runs the
        // same cycles; only their ledgers differ.
        assert_ne!(stats(&solo[0]), stats(&solo[2]));
        assert_eq!(stats(&solo[0]).cycles, stats(&solo[2]).cycles);
        assert_eq!(acct.forks, 0);
    }

    #[test]
    fn cells_whose_outcomes_differ_but_never_stall_share_one_run() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let removal = removal_at_or_after(&w, &cfg, 5000);
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[
                vec![(10, CHECK), (2000, CHECK), (removal, STALL)],
                vec![(10, POST), (2000, POST), (9000, POST)],
                vec![],
            ],
        );
        assert_eq!(acct.forks, 0);
        assert_eq!(acct.replayed, 0);
        let (_, alone) = check(&w, &cfg, InjectionPlan::none(), &[vec![]]);
        assert_eq!(acct.steps, alone.steps, "one run's steps");
        let ledger = |s: &Solo| {
            let s = stats(s);
            (
                s.ts_bus_busy,
                s.observer_addr_transactions,
                s.retirement_stall_cycles,
            )
        };
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert_eq!(stats(&solo[a]).cycles, stats(&solo[b]).cycles);
            let (la, lb) = (ledger(&solo[a]), ledger(&solo[b]));
            assert!(
                la.0 != lb.0 && la.1 != lb.1,
                "cells {a} and {b}: {la:?} {lb:?}"
            );
        }
        assert!(ledger(&solo[0]).2 > 0, "the removal's stall is counted");
        assert_ne!(ledger(&solo[0]).2, ledger(&solo[1]).2);
    }

    #[test]
    fn cells_that_never_split_share_one_run() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let charges = vec![(10, CHECK), (2000, POST), (9000, CHECK)];
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[charges.clone(), charges.clone(), charges],
        );
        assert_eq!(acct.forks, 0);
        assert_eq!(acct.replayed, 0);
        let (_, alone) = check(&w, &cfg, InjectionPlan::none(), &[vec![]]);
        assert!(acct.steps > alone.steps / 2, "the run took its steps");
        assert_eq!(stats(&solo[0]), stats(&solo[2]));
    }

    #[test]
    fn a_livelocked_release_injection_fails_every_cell_like_its_solo_run() {
        let mut b = WorkloadBuilder::new("stranded", 2);
        let flag = b.alloc_flag();
        let data = b.alloc_words(4);
        b.thread_mut(0).write(data.word(0)).flag_set(flag);
        b.thread_mut(1).flag_wait(flag).read(data.word(0));
        let w = b.build();
        let cfg = MachineConfig::paper_4core()
            .with_spin_waits(50)
            .with_watchdog(Watchdog::progress_window(2_000_000));
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::remove_release_nth(0),
            &[vec![], vec![(3, STALL)], vec![], vec![(20_000, STALL)]],
        );
        for (i, s) in solo.iter().enumerate() {
            assert!(
                matches!(s.0, Err(SimError::Livelock { .. })),
                "cell {i}: {:?}",
                s.0
            );
        }
        assert_ne!(solo[0].0, solo[1].0);
        assert_ne!(solo[0].0, solo[3].0);
        assert_eq!(acct.forks, 2);
    }
}
