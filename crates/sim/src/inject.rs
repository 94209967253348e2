//! Fault injection (§3.4): the two dynamic sync-instance numbering
//! streams and the removal decision.
//!
//! Two independent streams exist:
//!
//! * *removable* (wait-side) instances — lock calls (with their
//!   matching unlock), flag waits, and barrier-internal instances;
//! * *release* instances — flag sets, including the barrier release's
//!   internal flag set.
//!
//! Removing a wait leaves the releaser unaffected (a race appears);
//! removing a release can leave the waiter stuck — a deadlock under
//! blocking waits, a livelock under spin waits
//! ([`MachineConfig::flag_spin_cycles`](crate::config::MachineConfig)).

use crate::engine::Machine;
use crate::observer::MemoryObserver;
use cord_obs::{EventKind, TraceEvent};

/// Which dynamic synchronization instance (if any) to remove (§3.4).
///
/// See the [module docs](self) for the two numbering streams and their
/// failure modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Zero-based index (in dynamic dispatch order) of the removable
    /// wait-side sync instance to remove; `None` removes no wait.
    pub remove_instance: Option<u64>,
    /// Zero-based index (in dynamic execution order) of the release
    /// (flag-set) instance to remove; `None` removes no release.
    pub remove_release: Option<u64>,
}

impl InjectionPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Remove the `n`-th dynamic removable (wait-side) sync instance.
    pub fn remove_nth(n: u64) -> Self {
        InjectionPlan {
            remove_instance: Some(n),
            remove_release: None,
        }
    }

    /// Remove the `n`-th dynamic release (flag-set) instance.
    pub fn remove_release_nth(n: u64) -> Self {
        InjectionPlan {
            remove_instance: None,
            remove_release: Some(n),
        }
    }
}

impl<O: MemoryObserver> Machine<'_, O> {
    /// Consumes one removable-sync-instance index for thread `c`;
    /// `true` if this instance is the injection target.
    pub(crate) fn take_instance(&mut self, c: usize) -> bool {
        let idx = self.next_instance;
        self.next_instance += 1;
        self.stats.removable_sync_instances += 1;
        if self.plan.remove_instance == Some(idx) {
            self.stats.injection_applied = true;
            self.trace.emit(|| TraceEvent {
                cycle: self.ctxs[c].ready_at,
                thread: self.ctxs[c].thread.0,
                kind: EventKind::Injection {
                    instance: idx,
                    release: false,
                },
            });
            true
        } else {
            false
        }
    }

    /// Consumes one release-instance index (a flag set, including the
    /// barrier release's internal one) for thread `c`; `true` if it is
    /// the injection target.
    pub(crate) fn take_release_instance(&mut self, c: usize) -> bool {
        let idx = self.next_release_instance;
        self.next_release_instance += 1;
        self.stats.release_sync_instances += 1;
        if self.plan.remove_release == Some(idx) {
            self.stats.injection_applied = true;
            self.trace.emit(|| TraceEvent {
                cycle: self.ctxs[c].ready_at,
                thread: self.ctxs[c].thread.0,
                kind: EventKind::Injection {
                    instance: idx,
                    release: true,
                },
            });
            true
        } else {
            false
        }
    }
}
