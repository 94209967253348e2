//! What a benchmark workload provides to the run loop in `main.rs`.

use crate::layers::ProbeSet;
use crate::trace::Tracer;

/// One timed round: a fixed amount of work, the same on every host.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Units of work attempted (sweep runs, replays).
    pub attempted: u64,
    /// Units that failed: a run that did not complete, or a replay that
    /// errored or differed from the inline report.
    pub failed: u64,
    /// Wall time of the round, in seconds.
    pub wall_s: f64,
    /// Latency of each unit, in milliseconds.
    pub unit_ms: Vec<f64>,
    /// FNV-1a digest of the round's canonical results.
    pub digest: u64,
    /// Problems CORD-D16 detected among those the Ideal oracle found:
    /// `(caught, found by Ideal)`.
    pub detected: (u64, u64),
}

/// A benchmark workload: inputs made from a seed, one round of work on
/// them, and the traced decomposition of that round.
pub trait Bench {
    /// Everything a round runs on, made from the seed.
    type Input;

    /// Builds the inputs. This is what `setup_s` times.
    fn setup(&self, seed: u64) -> Result<Self::Input, String>;

    /// Runs one round, untraced, the way a user runs this work, one
    /// unit at a time.
    fn round(&self, input: &Self::Input) -> Round;

    /// Re-runs one round as explicit calls into each layer, each in a
    /// span under one root scope. Returns the round (whose digest must
    /// match the untraced one) and the root span's id.
    fn traced_round(&self, input: &Self::Input, tracer: &mut Tracer) -> (Round, usize);

    /// Figure 11's simulated execution time with CORD-D16 on the
    /// inputs' programs, as a percentage of the time without it.
    fn sim_time_pct(&self, input: &Self::Input) -> Result<f64, String>;

    /// The programs and machine the layer probe measures.
    fn probe_set(&self, input: &Self::Input) -> ProbeSet;
}
