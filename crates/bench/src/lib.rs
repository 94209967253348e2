//! Experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4).
//!
//! * [`DetectorConfig`] — the named detector configurations the paper
//!   compares (CORD at each `D`, the vector-clock
//!   InfCache/L2Cache/L1Cache variants, the Ideal oracle) and the
//!   machine each runs on, re-exported from `cord-detectors`.
//! * [`sweep`] — the §3.4 injection sweep data model: per application,
//!   a uniform campaign of synchronization removals, every
//!   configuration run on every injected run, and a record of who
//!   found what.
//! * [`runner`] — the sweep session API: [`SweepRunner`] builds a
//!   sweep once (worker count, app subset, checkpoint path, progress
//!   callback) and executes the (app × run) matrix across a
//!   work-stealing pool, bit-identical to a serial sweep.
//! * [`figures`] — turns sweep results into the paper's metrics
//!   (problem detection rate, raw race detection rate, manifestation
//!   rate, execution-time overhead, log sizes, area model) and renders
//!   them as text tables.
//! * [`checkpoint`] — checkpoint/resume for interrupted sweeps: partial
//!   results are persisted after every app and reloaded (keyed by an
//!   options hash) on restart, bit-identical to an uninterrupted run.
//! * [`shard`] — the multi-process campaign driver behind the `shard`
//!   binary: a coordinator partitions a fuzz campaign or injection
//!   sweep into round-robin shards, supervises one worker process per
//!   shard (heartbeats, retry with backoff, optional chaos kills), and
//!   merges the shards' durable checkpoints into outputs that are
//!   byte-identical to a single-process run.
//!
//! The `figures` binary (`cargo run -p cord-bench --bin figures`) is the
//! command-line entry point; see EXPERIMENTS.md for the paper-vs-measured
//! record.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod figures;
pub(crate) mod obs;
pub mod runner;
pub mod shard;
pub mod sweep;

pub use checkpoint::{options_hash, Checkpoint};
pub use cord_detectors::{DetectorConfig, DetectorEnum};
pub use runner::{SweepProgress, SweepRunner};
pub use sweep::{AppSweep, RunRecord, RunStatus, SweepOptions, SweepResults};
