//! # CORD — Cost-effective Order-Recording and Data race detection
//!
//! A full reproduction of *"CORD: cost-effective (and nearly
//! overhead-free) order-recording and data race detection"* (Milos
//! Prvulovic, HPCA-12, 2006) as a Rust library, including the CMP
//! simulator substrate the paper evaluates on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`clocks`] — scalar / vector logical clocks, the 16-bit
//!   sliding-window comparison, and the D-window update policy.
//! * [`trace`] — the thread-program model (memory ops + synchronization
//!   primitives) that workloads compile to and the simulator executes.
//! * [`sim`] — a discrete-event 4-core CMP simulator: private L1/L2
//!   caches, snooping MESI coherence, data/address/memory buses with
//!   contention, and observer hooks that detectors plug into.
//! * [`core`] — the CORD mechanism itself: two-timestamps-per-line cache
//!   histories, main-memory timestamps, the order-recording log, and the
//!   deterministic replay engine.
//! * [`detectors`] — the Ideal vector-clock oracle and the
//!   InfCache/L2Cache/L1Cache comparison configurations.
//! * [`workloads`] — twelve Splash-2-analogue kernels (Table 1 of the
//!   paper).
//! * [`inject`] — the synchronization-removal fault injector (§3.4).
//!
//! # Quickstart
//!
//! ```
//! use cord::prelude::*;
//!
//! // Build a small workload, attach CORD, run, and look at what it saw.
//! let mut b = cord::trace::WorkloadBuilder::new("demo", 2);
//! let lock = b.alloc_lock();
//! let shared = b.alloc_words(1);
//! for t in 0..2 {
//!     b.thread_mut(t).lock(lock).update(shared.word(0)).unlock(lock);
//! }
//! let workload = b.build();
//! let harness = ExperimentHarness::new(MachineConfig::paper_4core());
//! let outcome = harness.run_cord(&workload, &CordConfig::paper())?;
//! println!(
//!     "{} data races detected, {} order-log entries",
//!     outcome.races.len(),
//!     outcome.order_log.len()
//! );
//! # Ok::<(), cord::core::CordError>(())
//! ```

#![warn(missing_docs)]

pub use cord_clocks as clocks;
pub use cord_core as core;
pub use cord_detectors as detectors;
pub use cord_inject as inject;
pub use cord_obs as obs;
pub use cord_serve as serve;
pub use cord_sim as sim;
pub use cord_trace as trace;
pub use cord_workloads as workloads;

/// Commonly used types, importable with `use cord::prelude::*`.
///
/// Extends [`cord_core::prelude`] (detector, harness, machine, replay,
/// and workload-building types) with the clock primitives and the raw
/// thread-program model.
pub mod prelude {
    pub use cord_clocks::{ClockPolicy, ScalarTime, VectorClock};
    pub use cord_core::prelude::*;
    pub use cord_trace::{Op, ThreadProgram};
}

/// Everything needed to produce, persist, and consume detection event
/// streams, importable with `use cord::stream::*`.
///
/// This is the detector-as-a-service surface: detectors are built
/// through [`DetectorConfig::build_sink`] and fed reified
/// [`StreamEvent`]s — by a simulator (via [`SinkObserver`]), from a
/// capture file (via [`decode_capture`]), or over a daemon socket (via
/// [`ServeClient`]). The wire format is versioned ([`WIRE_VERSION`])
/// and self-describing: a [`StreamHeader`] carries the machine and
/// address-space geometry, so dense indices resolve without a live
/// `Machine`.
pub mod stream {
    pub use cord_core::{
        apply_stream_event, CaptureObserver, DetectorSink, ObsCtx, SinkObserver, SinkReport,
    };
    pub use cord_detectors::{DetectorConfig, DetectorEnum};
    pub use cord_obs::wire::{
        decode_capture, decode_events, encode_capture, read_frame, write_frame,
    };
    pub use cord_obs::{
        kind_from_name, kind_name, StreamEvent, StreamGeometry, StreamHeader, WireError,
        WIRE_VERSION,
    };
    pub use cord_serve::{Daemon, DaemonConfig, Query, ServeClient, ServeError};
}
