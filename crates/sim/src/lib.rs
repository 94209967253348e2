//! Discrete-event CMP simulator substrate for the CORD reproduction.
//!
//! The paper (§3.1) evaluates CORD on a cycle-accurate, execution-driven
//! simulator of a 4-processor CMP with private L1/L2 caches, snooping
//! coherence, an on-chip 128-bit data bus, a half-frequency
//! address/timestamp bus, and a 200 MHz memory bus. This crate provides
//! that substrate:
//!
//! * [`config`] — machine parameters with the paper's defaults.
//! * [`cache`] / [`memsys`] — set-associative L1/L2 caches with MESI
//!   coherence, inclusion, and per-access timing.
//! * [`coherence`] — pluggable transaction-timing backends: the
//!   paper's snooping bus and a directory-based MESI organization with
//!   per-home occupancy and forwarding latency.
//! * [`bus`] — the three shared buses with FIFO arbitration and
//!   contention accounting, and the timestamp-bus ledger of what an
//!   observer charged (where CORD's overhead comes from).
//! * [`sync`] — functional lock/flag/barrier semantics.
//! * [`engine`] — the execution engine's step loop, composing the
//!   focused kernel layers: [`syncexp`] (sync-op → labeled-access
//!   expansion), [`sched`] (ready-core selection), [`inject`] (fault
//!   injection, §3.4), [`migrate`] (barrier migration + §2.7.4
//!   resync), and [`errors`] (abort diagnostics).
//! * [`observer`] — the [`MemoryObserver`](observer::MemoryObserver)
//!   hook trait detectors implement.
//! * [`truth`] — ground-truth functional outcomes for replay
//!   verification.
//! * [`stats`] — run statistics.
//! * [`shared`] — several observers on one machine while the
//!   retirement stalls their bus charges cause agree
//!   ([`Machine::run_cells`](engine::Machine::run_cells)), each with
//!   its own timestamp-bus ledger, forking from a checkpoint where the
//!   stalls differ.
//!
//! # Example
//!
//! ```
//! use cord_sim::config::MachineConfig;
//! use cord_sim::engine::{InjectionPlan, Machine};
//! use cord_sim::observer::NullObserver;
//! use cord_trace::builder::WorkloadBuilder;
//!
//! let mut b = WorkloadBuilder::new("hello", 2);
//! let lock = b.alloc_lock();
//! let data = b.alloc_words(1);
//! for t in 0..2 {
//!     b.thread_mut(t).lock(lock).update(data.word(0)).unlock(lock);
//! }
//! let workload = b.build();
//! let machine = Machine::new(
//!     MachineConfig::paper_4core(),
//!     &workload,
//!     NullObserver,
//!     42,
//!     InjectionPlan::none(),
//! );
//! let (out, _observer) = machine.run()?;
//! assert_eq!(out.stats.data_writes, 2);
//! # Ok::<(), cord_sim::engine::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod engine;
pub mod errors;
pub mod inject;
pub mod memsys;
pub mod migrate;
pub mod observer;
pub mod sched;
pub mod shared;
pub mod stats;
pub mod sync;
pub mod syncexp;
pub mod truth;

pub use config::{MachineConfig, Watchdog};
pub use engine::{InjectionPlan, Machine, RunOutput, SimError, StuckState, ThreadDiag};
pub use observer::{
    AccessEvent, AccessKind, AccessPath, CoreId, Level, LineRemoval, MemoryObserver, NullObserver,
    ObserverOutcome, RemovalCause,
};
pub use shared::SharedRun;
pub use stats::SimStats;
pub use truth::{ResolvedAccess, TruthSummary};
