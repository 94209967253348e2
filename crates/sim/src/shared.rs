//! Shared runs: several observers on one machine for as long as they
//! agree.
//!
//! Observers that charge the bus (CORD's race checks and memory-timestamp
//! broadcasts) steer the machine they watch, so each needs its own run.
//! Yet two such observers on equal machines usually agree for a while:
//! until the first callback where their [`ObserverOutcome`]s differ,
//! their machines simulate identical cycles. [`Machine::run_cells`] runs
//! every such observer — a *cell* — on one machine while they agree, and
//! forks the machine where they stop agreeing.
//!
//! Cell 0 leads: its outcome drives the machine, and every callback goes
//! to every live cell. At `on_access` and `on_line_removed`, the cells
//! whose outcome differs from the leader's are detached, grouped by
//! outcome, and get no further callbacks from this machine. While two
//! or more cells are live, the machine runs in chunks of
//! [`CHUNK_STEPS`] steps, keeps a copy of its own state at the start of
//! each chunk, and logs the non-`NONE` outcomes since then. A detached
//! class continues on a copy of that checkpoint: up to and including the
//! callback where it split off, its callbacks are answered from the log
//! and not delivered (the class's cells have already seen them), and
//! from then on they are delivered live. An execution whose inputs were
//! recorded re-executes exactly, and here the machine's only inputs are
//! the observer outcomes, so each cell sees exactly the run it would
//! have had alone. A branch left with one cell runs to its end as a
//! plain [`Machine::run_stats`] run.
//!
//! Why a checkpoint plus replay, rather than a copy taken at the
//! divergent callback: the divergence is found inside an access, in the
//! middle of a step, while a copy at a step boundary leaves the step
//! loop unchanged apart from its step budget.

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

/// One non-`NONE` outcome of a shared run, by callback number since the
/// checkpoint. `what` names the callback (thread and instruction of an
/// access; core and line of a removal) so a replay can check that it
/// answers the callback that was logged.
#[derive(Debug, Clone, Copy)]
struct Logged {
    seq: u64,
    what: (u64, u64),
    outcome: ObserverOutcome,
}

/// The observer of one branch of a shared run: its live cells (cell
/// index and observer, the leader first), the outcome log since the
/// branch's checkpoint, and the replay that brings a fork up to the
/// callback where it split off.
struct Cells<O> {
    live: Vec<(usize, O)>,
    /// Callbacks since the checkpoint.
    seq: u64,
    /// The non-`NONE` outcomes since the checkpoint, in callback order.
    log: Vec<Logged>,
    /// Callbacks numbered below this are answered from `log`.
    replay_until: u64,
    /// The next log entry the replay answers with.
    replay_pos: usize,
    /// Classes split off since the checkpoint, each ready to replay.
    detached: Vec<Cells<O>>,
}

impl<O: MemoryObserver> Cells<O> {
    fn new(live: Vec<(usize, O)>, log: Vec<Logged>, replay_until: u64) -> Self {
        Cells {
            live,
            seq: 0,
            log,
            replay_until,
            replay_pos: 0,
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

    /// Numbers the next callback; while replaying, answers it from the
    /// log instead of delivering it.
    #[inline]
    fn replayed(&mut self, what: (u64, u64)) -> Option<ObserverOutcome> {
        let seq = self.seq;
        self.seq += 1;
        if seq >= self.replay_until {
            return None;
        }
        let out = match self.log.get(self.replay_pos) {
            Some(l) if l.seq == seq => {
                debug_assert_eq!(l.what, what, "replay answered a callback it did not log");
                self.replay_pos += 1;
                l.outcome
            }
            _ => ObserverOutcome::NONE,
        };
        debug_assert!(
            seq + 1 < self.replay_until || self.replay_pos == self.log.len(),
            "replay ended before its log did"
        );
        Some(out)
    }

    /// Delivers one outcome-bearing callback to every live cell. Cells
    /// that disagree with the leader are detached by outcome; the
    /// leader's outcome is logged and returned.
    #[inline]
    fn decide(
        &mut self,
        what: (u64, u64),
        mut f: impl FnMut(&mut O) -> ObserverOutcome,
    ) -> ObserverOutcome {
        if let Some(out) = self.replayed(what) {
            return out;
        }
        let out = f(&mut self.live[0].1);
        if self.live.len() > 1 {
            self.follow(what, out, f);
            if out != ObserverOutcome::NONE {
                self.log.push(Logged {
                    seq: self.seq - 1,
                    what,
                    outcome: out,
                });
            }
        }
        out
    }

    /// The followers' half of [`Cells::decide`], out of line: a branch
    /// mostly runs with one cell, or agrees.
    #[inline(never)]
    fn follow(
        &mut self,
        what: (u64, u64),
        lead: ObserverOutcome,
        mut f: impl FnMut(&mut O) -> ObserverOutcome,
    ) {
        let mut split: Vec<(ObserverOutcome, usize)> = Vec::new();
        for (i, (_, o)) in self.live.iter_mut().enumerate().skip(1) {
            let out = f(o);
            if out != lead {
                split.push((out, i));
            }
        }
        if split.is_empty() {
            return;
        }
        // Back to front, so each removal leaves the indices still to
        // come in place and each class keeps its cells in order.
        let mut classes: Vec<(ObserverOutcome, Vec<(usize, O)>)> = Vec::new();
        for &(outcome, i) in split.iter().rev() {
            let cell = self.live.remove(i);
            match classes.iter_mut().find(|(o, _)| *o == outcome) {
                Some((_, cells)) => cells.insert(0, cell),
                None => classes.push((outcome, vec![cell])),
            }
        }
        let seq = self.seq - 1;
        for (outcome, cells) in classes {
            let mut log = self.log.clone();
            log.push(Logged { seq, what, outcome });
            self.detached.push(Cells::new(cells, log, seq + 1));
        }
    }

    /// Delivers a callback that bears no outcome to every live cell.
    #[inline]
    fn notify(&mut self, what: (u64, u64), mut f: impl FnMut(&mut O)) {
        if self.replayed(what).is_none() {
            for (_, o) in &mut self.live {
                f(o);
            }
        }
    }
}

impl<O: MemoryObserver> MemoryObserver for Cells<O> {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        let what = (u64::from(ev.thread.0), ev.instr_index);
        self.decide(what, |o| o.on_access(ev))
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        self.notify((u64::from(core.0), line.0), |o| {
            o.on_line_filled(core, level, line)
        });
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        let what = (u64::from(removal.core.0), removal.line.0);
        self.decide(what, |o| o.on_line_removed(removal))
    }

    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        self.notify((u64::from(thread.0), u64::from(to.0)), |o| {
            o.on_thread_migrated(thread, from, to)
        });
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        debug_assert!(self.seq >= self.replay_until, "a fork ended mid-replay");
        for (_, o) in &mut self.live {
            o.on_run_end(final_instr_counts);
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
    /// share one simulation while their outcomes agree and continue on
    /// forks of it where they differ (see the [module docs](self)), so
    /// cells that never charge the bus differently cost one run between
    /// them, and a single cell is a plain `run_stats` run.
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
        let root = Cells::new(cells.into_iter().enumerate().collect(), Vec::new(), 0);
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
            let (m, mut cells) = m.swap_observer(NullObserver);
            let (i, o) = cells.live.pop().expect("a solo branch has its cell");
            let (mut m, _) = m.swap_observer(o);
            let mut budget = u64::MAX;
            let ran = m.run_loop::<false>(&mut budget);
            acct.steps += u64::MAX - budget;
            done(
                i,
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
                for (i, o) in cells.live {
                    done(i, Ok((stats.clone(), o)));
                }
                return;
            }
            Err(err) => {
                for (i, _) in std::mem::take(&mut m.observer.live) {
                    done(i, Err(err.clone()));
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

    #[test]
    fn a_split_inside_a_chunk_matches_solo_runs() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[
                vec![(40, CHECK), (3000, CHECK)],
                vec![(40, CHECK), (3000, POST)],
                vec![(40, CHECK)],
            ],
        );
        assert_ne!(stats(&solo[0]), stats(&solo[1]));
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
                &[vec![], vec![(at, CHECK)]],
            );
            assert_ne!(stats(&solo[0]), stats(&solo[1]));
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
                vec![(100, CHECK)],
                vec![(100, POST)],
                vec![(100, POST), (20_000, CHECK)],
                vec![],
                vec![(100, POST)],
            ],
        );
        for (a, b) in [(0, 1), (0, 3), (1, 2), (1, 3)] {
            assert_ne!(stats(&solo[a]), stats(&solo[b]), "cells {a} and {b}");
        }
        assert_eq!(stats(&solo[1]), stats(&solo[4]));
        // {POST} and {nothing} split off the leader at 100, then the
        // POST class splits again at 20 000.
        assert_eq!(acct.forks, 3);
    }

    #[test]
    fn a_split_at_a_removal_matches_solo_runs() {
        let w = workload();
        let cfg = MachineConfig::paper_4core();
        let tags = outcome_callbacks(&w, &cfg);
        let at = tags
            .iter()
            .enumerate()
            .skip(5000)
            .find(|&(_, &tag)| tag == 2)
            .map(|(i, _)| i as u64)
            .expect("the workload overflows its L1s");
        let (solo, acct) = check(
            &w,
            &cfg,
            InjectionPlan::none(),
            &[vec![(at, POST)], vec![(at, CHECK)], vec![]],
        );
        assert_ne!(stats(&solo[0]), stats(&solo[2]));
        assert_eq!(acct.forks, 2);
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
