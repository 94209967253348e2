//! The CORD mechanism (Prvulovic, HPCA 2006): cost-effective
//! order-recording and data race detection with scalar clocks.
//!
//! This crate implements the paper's contribution on top of the
//! `cord-sim` substrate:
//!
//! * [`history`] — per-cache-line access histories: two timestamps per
//!   line with per-word read/write bits and check-filter bits (§2.3,
//!   §2.7.2).
//! * [`memts`] — the whole-memory read/write timestamp pair that keeps
//!   order recording correct across displacements (§2.5).
//! * [`detector`] — the CORD detector: clock comparisons, race-check
//!   broadcasts, the D-window DRD rule, migration handling, and the
//!   cache walker (§2.4, §2.6, §2.7).
//! * [`shadow`] — dense shadow-state storage ([`ShadowSpace`] /
//!   [`LineTable`]) keyed by the interleaved line index, replacing
//!   per-access `HashMap` probes with vector indexing.
//! * [`record`] — the 8-bytes-per-entry order log (§2.7.1).
//! * [`replay`] — deterministic replay from the log with outcome
//!   verification (§3.3).
//! * [`area`] — the analytic 19%-vs-38%-vs-200% state-overhead model
//!   (§2.3).
//! * [`sink`] — detectors as event-stream sinks ([`DetectorSink`]):
//!   the ingestion surface shared by inline simulation, capture replay,
//!   and the `cord-serve` streaming daemon.
//! * [`error`] — the workspace-wide [`CordError`] failure taxonomy.
//! * [`harness`] — one-call experiment runs.
//!
//! # Example
//!
//! ```
//! use cord_core::{CordConfig, ExperimentHarness};
//! use cord_sim::config::MachineConfig;
//! use cord_trace::builder::WorkloadBuilder;
//!
//! let mut b = WorkloadBuilder::new("quick", 2);
//! let flag = b.alloc_flag();
//! let data = b.alloc_words(1);
//! b.thread_mut(0).write(data.word(0)).flag_set(flag);
//! b.thread_mut(1).flag_wait(flag).read(data.word(0));
//! let w = b.build();
//!
//! let h = ExperimentHarness::new(MachineConfig::paper_4core());
//! let out = h.run_cord(&w, &CordConfig::paper())?;
//! assert!(out.races.is_empty()); // flag-synchronized: no data race
//! # Ok::<(), cord_core::CordError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod area;
pub mod config;
pub mod detector;
pub mod error;
pub mod harness;
pub mod history;
pub mod logfmt;
pub mod memts;
pub mod record;
pub mod replay;
pub mod shadow;
pub mod sink;

pub use config::CordConfig;
pub use detector::{CordDetector, CordStats, RaceReport};
pub use error::CordError;
pub use harness::{CordOutcome, ExperimentHarness};
pub use history::{HistEntry, LineHistory};
pub use logfmt::{decode as decode_log, encode as encode_log, LogDecodeError};
pub use memts::MemTimestamps;
pub use record::{LogEntry, OrderRecorder, LOG_ENTRY_BYTES};
pub use replay::{
    replay_and_verify, replay_parallelism, ReplayError, ReplayParallelism, ReplayReport,
};
pub use shadow::{LineTable, ShadowSpace};
pub use sink::{
    apply_stream_event, CaptureObserver, DetectorSink, LatencyObserver, ObsCtx, SinkObserver,
    SinkReport,
};

/// The detector trait under its older name, kept for the separate
/// `cord-benchmark` package (`benchmark/`), which imports it for
/// `race_count`. Code in this workspace names [`DetectorSink`].
pub use sink::DetectorSink as Detector;

/// One-stop imports for experiment code.
///
/// Everything a harness caller, example, or figure generator needs —
/// the CORD configuration and detector, the error taxonomy, the
/// simulated machine and its configuration, and the workload builder —
/// without reaching through three crates of ad-hoc paths:
///
/// ```
/// use cord_core::prelude::*;
///
/// let mut b = WorkloadBuilder::new("demo", 2);
/// let l = b.alloc_lock();
/// let d = b.alloc_words(1);
/// for t in 0..2 {
///     b.thread_mut(t).lock(l).update(d.word(0)).unlock(l);
/// }
/// let h = ExperimentHarness::new(MachineConfig::paper_4core());
/// let out = h.run_cord(&b.build(), &CordConfig::paper())?;
/// assert!(out.races.is_empty());
/// # Ok::<(), CordError>(())
/// ```
pub mod prelude {
    pub use crate::config::CordConfig;
    pub use crate::detector::{CordDetector, CordStats, RaceReport};
    pub use crate::error::CordError;
    pub use crate::harness::{CordOutcome, ExperimentHarness};
    pub use crate::replay::{replay_and_verify, ReplayError, ReplayReport};
    pub use crate::sink::{CaptureObserver, DetectorSink, ObsCtx, SinkObserver, SinkReport};
    pub use cord_sim::config::{MachineConfig, Watchdog};
    pub use cord_sim::engine::{InjectionPlan, Machine, RunOutput, SimError};
    pub use cord_sim::observer::{MemoryObserver, NullObserver};
    pub use cord_trace::builder::WorkloadBuilder;
    pub use cord_trace::program::Workload;
}
