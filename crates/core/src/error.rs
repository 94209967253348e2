//! The workspace-wide error type.
//!
//! Experiment code used to panic on any abnormal run (`.expect("run
//! deadlocked")`), which is fatal for injection sweeps: a single wedged
//! or aborted run killed the whole campaign. [`CordError`] makes every
//! failure mode a value the sweep runner can record and keep going
//! past.

use crate::replay::ReplayError;
use cord_sim::engine::SimError;
use std::fmt;

/// Any failure an experiment run can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CordError {
    /// The simulated machine aborted (deadlock, livelock, or watchdog
    /// budget) — see [`SimError`] for the per-thread diagnostics.
    Sim(SimError),
    /// The order log failed to reproduce the recorded execution.
    Replay(ReplayError),
    /// A run that needed captured resolved streams was executed on a
    /// machine without `capture_resolved`.
    MissingResolvedStreams,
    /// A detector failed internally (e.g. a panic caught at the sweep
    /// boundary); the payload is its message.
    Detector(String),
    /// A durable snapshot or checkpoint was recovered abnormally —
    /// the primary generation was corrupt and a previous generation
    /// (or nothing) was loaded instead. Carries the human-readable
    /// recovery description so daemons can surface it in `status`
    /// responses instead of burying it in stderr.
    SnapshotRecovery(String),
    /// The parallel sweep executor failed at the worker-pool level —
    /// a job was lost or a result slot was never filled. Distinct from
    /// a *job* panicking (which the sweep records as a per-run
    /// `Panicked` status and keeps going past); a pool failure means
    /// the executor itself misbehaved and the sweep cannot vouch for
    /// its results.
    Pool(String),
}

impl From<SimError> for CordError {
    fn from(e: SimError) -> Self {
        CordError::Sim(e)
    }
}

impl From<ReplayError> for CordError {
    fn from(e: ReplayError) -> Self {
        CordError::Replay(e)
    }
}

impl fmt::Display for CordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CordError::Sim(e) => write!(f, "simulation failed: {e}"),
            CordError::Replay(e) => write!(f, "replay verification failed: {e}"),
            CordError::MissingResolvedStreams => write!(
                f,
                "resolved access streams were not captured \
                 (enable MachineConfig::capture_resolved)"
            ),
            CordError::Detector(msg) => write!(f, "detector failure: {msg}"),
            CordError::SnapshotRecovery(msg) => write!(f, "snapshot recovery: {msg}"),
            CordError::Pool(msg) => write!(f, "worker pool failure: {msg}"),
        }
    }
}

impl std::error::Error for CordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CordError::Sim(e) => Some(e),
            CordError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl CordError {
    /// The wrapped [`SimError`], if this is a simulation abort.
    pub fn as_sim(&self) -> Option<&SimError> {
        match self {
            CordError::Sim(e) => Some(e),
            _ => None,
        }
    }

    /// Short machine-readable kind name, used in sweep failure records.
    pub fn kind(&self) -> &'static str {
        match self {
            CordError::Sim(e) => e.kind(),
            CordError::Replay(_) => "replay-mismatch",
            CordError::MissingResolvedStreams => "missing-resolved-streams",
            CordError::Detector(_) => "detector-failure",
            CordError::SnapshotRecovery(_) => "snapshot-recovery",
            CordError::Pool(_) => "pool-failure",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sim_errors() {
        let sim = SimError::Deadlock {
            cycle: 10,
            stuck_threads: vec![],
        };
        let e: CordError = sim.clone().into();
        assert_eq!(e.as_sim(), Some(&sim));
        assert_eq!(e.kind(), "deadlock");
        assert!(e.to_string().contains("deadlock at cycle 10"));
    }

    #[test]
    fn kinds_are_distinct() {
        assert_eq!(
            CordError::MissingResolvedStreams.kind(),
            "missing-resolved-streams"
        );
        assert_eq!(CordError::Detector("x".into()).kind(), "detector-failure");
        assert!(CordError::Detector("x".into()).to_string().contains("x"));
    }

    #[test]
    fn pool_failures_are_a_distinct_kind() {
        let e = CordError::Pool("slot 3 never filled".into());
        assert_eq!(e.kind(), "pool-failure");
        assert!(e.to_string().contains("worker pool failure"));
        assert!(e.to_string().contains("slot 3"));
    }
}
