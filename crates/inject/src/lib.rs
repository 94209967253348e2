//! Synchronization fault injection (paper §3.4).
//!
//! "We model this kind of error by injecting a single dynamic instance
//! of missing synchronization into each run of the application.
//! Injection is random with a uniform distribution, so each dynamic
//! synchronization operation has an equal chance of being removed."
//!
//! The removable instances come in two streams:
//!
//! * **acquire-side** — lock calls (removed together with their
//!   matching unlock) and flag-wait calls; a barrier's internal mutex
//!   and flag-wait instances are individually removable, which models
//!   the paper's deliberately *elusive* errors (removing a whole
//!   barrier would cause thousands of races and be trivially
//!   detectable).
//! * **release-side** — flag sets (including the barrier-internal
//!   release). Removing one leaves the waiters stranded: blocking
//!   waiters deadlock, spinning waiters livelock. These are the fault
//!   modes the sweep watchdog exists for.
//!
//! The simulator enumerates dynamic instances of both streams in
//! dispatch order; this crate counts them with a dry run and draws
//! [`InjectionTarget`]s uniformly, producing one [`InjectionPlan`] per
//! experiment run.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine, SimError};
use cord_sim::observer::NullObserver;
use cord_trace::program::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dynamic synchronization-instance counts from a fault-free dry run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstanceCounts {
    /// Acquire-side removable instances (lock calls + flag waits).
    pub acquires: u64,
    /// Release-side instances (flag sets, incl. barrier-internal).
    pub releases: u64,
}

/// Counts the dynamic synchronization instances of one run (a
/// fault-free dry run with no detector attached).
///
/// # Errors
///
/// Returns the [`SimError`] if the dry run aborts — possible only with
/// a watchdog-configured machine or a malformed workload.
pub fn count_instances(
    machine: &MachineConfig,
    workload: &Workload,
    seed: u64,
) -> Result<InstanceCounts, SimError> {
    let m = Machine::new(
        machine.clone(),
        workload,
        NullObserver,
        seed,
        InjectionPlan::none(),
    );
    let (stats, _) = m.run_stats()?;
    Ok(InstanceCounts {
        acquires: stats.removable_sync_instances,
        releases: stats.release_sync_instances,
    })
}

/// One planned removal: which stream, and which dynamic instance in it.
///
/// Replaces the old `InjectionPlan`-with-`Option` handling in sweep
/// code: a campaign target always identifies exactly one instance, so
/// consumers never have to `.expect()` an optional field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectionTarget {
    /// Remove the `n`th acquire-side instance (lock call or flag wait).
    Acquire(u64),
    /// Remove the `n`th release-side instance (flag set).
    Release(u64),
}

impl InjectionTarget {
    /// The [`InjectionPlan`] that applies this removal.
    pub fn plan(&self) -> InjectionPlan {
        match *self {
            InjectionTarget::Acquire(n) => InjectionPlan::remove_nth(n),
            InjectionTarget::Release(n) => InjectionPlan::remove_release_nth(n),
        }
    }

    /// The dynamic instance index within its stream.
    pub fn instance(&self) -> u64 {
        match *self {
            InjectionTarget::Acquire(n) | InjectionTarget::Release(n) => n,
        }
    }

    /// Short stream name ("acquire" / "release") for records and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            InjectionTarget::Acquire(_) => "acquire",
            InjectionTarget::Release(_) => "release",
        }
    }
}

impl std::fmt::Display for InjectionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.kind(), self.instance())
    }
}

/// A set of injection runs for one application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Campaign {
    /// Dynamic instance counts observed in the dry run.
    pub counts: InstanceCounts,
    /// The target of each planned run.
    pub targets: Vec<InjectionTarget>,
}

impl Campaign {
    /// Draws `runs` uniform acquire-side targets over
    /// `total_instances` without replacement (falling back to all
    /// instances when there are fewer than `runs`). The paper performs
    /// "between 20 and 100 injections per application".
    pub fn uniform(total_instances: u64, runs: usize, seed: u64) -> Self {
        let counts = InstanceCounts {
            acquires: total_instances,
            releases: 0,
        };
        Self::uniform_mixed(counts, runs, seed)
    }

    /// Draws `runs` uniform targets over the *combined* acquire +
    /// release population without replacement. Release removals are how
    /// deadlocks and livelocks enter a sweep, so campaigns that must
    /// exercise the watchdog use this constructor.
    pub fn uniform_mixed(counts: InstanceCounts, runs: usize, seed: u64) -> Self {
        let population = counts.acquires + counts.releases;
        let mut rng = StdRng::seed_from_u64(seed);
        let picks: Vec<u64> = if population <= runs as u64 {
            (0..population).collect()
        } else {
            // Floyd's algorithm for a uniform sample without replacement.
            let mut chosen = std::collections::BTreeSet::new();
            let k = runs as u64;
            for j in population - k..population {
                let t = rng.gen_range(0..=j);
                if !chosen.insert(t) {
                    chosen.insert(j);
                }
            }
            chosen.into_iter().collect()
        };
        let targets = picks
            .into_iter()
            .map(|i| {
                if i < counts.acquires {
                    InjectionTarget::Acquire(i)
                } else {
                    InjectionTarget::Release(i - counts.acquires)
                }
            })
            .collect();
        Campaign { counts, targets }
    }

    /// Plans an acquire-only campaign for a workload on a machine:
    /// dry-run count, then uniform target selection. Acquire removals
    /// never strand a waiter, so every planned run terminates.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] if the dry run aborts.
    pub fn plan(
        machine: &MachineConfig,
        workload: &Workload,
        runs: usize,
        seed: u64,
    ) -> Result<Self, SimError> {
        let counts = count_instances(machine, workload, seed)?;
        Ok(Self::uniform(counts.acquires, runs, seed))
    }

    /// Plans a campaign over both streams. Runs that remove a release
    /// will deadlock or livelock; pair this with a sweep watchdog.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] if the dry run aborts.
    pub fn plan_mixed(
        machine: &MachineConfig,
        workload: &Workload,
        runs: usize,
        seed: u64,
    ) -> Result<Self, SimError> {
        let counts = count_instances(machine, workload, seed)?;
        Ok(Self::uniform_mixed(counts, runs, seed))
    }

    /// The injection plans, one per run.
    pub fn plans(&self) -> impl Iterator<Item = InjectionPlan> + '_ {
        self.targets.iter().map(InjectionTarget::plan)
    }

    /// Number of planned runs.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` if no runs are planned (no removable sync in the
    /// workload).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_trace::builder::WorkloadBuilder;

    fn demo_workload() -> Workload {
        let mut b = WorkloadBuilder::new("demo", 2);
        let l = b.alloc_lock();
        let g = b.alloc_flag();
        let d = b.alloc_words(1);
        b.thread_mut(0)
            .lock(l)
            .update(d.word(0))
            .unlock(l)
            .flag_set(g);
        b.thread_mut(1)
            .lock(l)
            .update(d.word(0))
            .unlock(l)
            .flag_wait(g);
        b.build()
    }

    #[test]
    fn dry_run_counts_both_streams() {
        let w = demo_workload();
        let c = count_instances(&MachineConfig::paper_4core(), &w, 1).expect("dry run completes");
        // 2 lock calls + 1 flag wait; 1 flag set.
        assert_eq!(
            c,
            InstanceCounts {
                acquires: 3,
                releases: 1
            }
        );
    }

    #[test]
    fn uniform_targets_are_distinct_and_in_range() {
        let c = Campaign::uniform(100, 30, 7);
        assert_eq!(c.len(), 30);
        let set: std::collections::HashSet<_> = c.targets.iter().collect();
        assert_eq!(set.len(), 30, "sampling is without replacement");
        assert!(c
            .targets
            .iter()
            .all(|t| matches!(t, InjectionTarget::Acquire(n) if *n < 100)));
    }

    #[test]
    fn mixed_campaigns_cover_both_streams() {
        let counts = InstanceCounts {
            acquires: 10,
            releases: 10,
        };
        let c = Campaign::uniform_mixed(counts, 20, 3);
        assert_eq!(c.len(), 20);
        assert!(c.targets.iter().any(|t| t.kind() == "acquire"));
        assert!(c.targets.iter().any(|t| t.kind() == "release"));
        assert!(c.targets.iter().all(|t| t.instance() < 10));
    }

    #[test]
    fn small_populations_enumerate_exhaustively() {
        let c = Campaign::uniform(5, 30, 7);
        let instances: Vec<u64> = c.targets.iter().map(InjectionTarget::instance).collect();
        assert_eq!(instances, vec![0, 1, 2, 3, 4]);
        assert!(!c.is_empty());
    }

    #[test]
    fn zero_instances_plan_nothing() {
        let c = Campaign::uniform(0, 10, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn plan_end_to_end() {
        let w = demo_workload();
        let c = Campaign::plan(&MachineConfig::paper_4core(), &w, 10, 3).expect("dry run ok");
        assert_eq!(c.counts.acquires, 3);
        assert_eq!(c.len(), 3);
        let plans: Vec<_> = c.plans().collect();
        assert_eq!(plans[0], InjectionPlan::remove_nth(0));
    }

    #[test]
    fn release_targets_map_to_release_plans() {
        let t = InjectionTarget::Release(4);
        assert_eq!(t.plan(), InjectionPlan::remove_release_nth(4));
        assert_eq!(t.to_string(), "release#4");
        assert_eq!(InjectionTarget::Acquire(0).to_string(), "acquire#0");
    }

    #[test]
    fn campaigns_are_seed_deterministic() {
        let a = Campaign::uniform(1000, 50, 9);
        let b = Campaign::uniform(1000, 50, 9);
        assert_eq!(a, b);
        let c = Campaign::uniform(1000, 50, 10);
        assert_ne!(a, c);
    }
}
