//! Logical clock substrate for the CORD reproduction.
//!
//! CORD (Prvulovic, HPCA 2006) tracks the happens-before relation between
//! memory accesses with *logical time*. This crate provides the clocking
//! schemes the paper evaluates:
//!
//! * [`scalar`] — plain integer scalar clocks, the scheme CORD actually
//!   uses (§2.4 of the paper), together with the *D-window* comparison
//!   rules of §2.6 that distinguish order-recording ordering from
//!   data-race-detection synchronization.
//! * [`vector`] — vector clocks, used by the paper's *Ideal* oracle and by
//!   the vector-clock comparison configurations (InfCache / L2Cache /
//!   L1Cache, §4.3).
//! * [`window16`] — the 16-bit sliding-window comparison of §2.7.5 that
//!   lets CORD store 16-bit timestamps in cache lines without suffering
//!   from overflow, plus the invariant the cache walker must maintain.
//! * [`policy`] — the clock-update policy knobs (the `D` parameter,
//!   update-on-data-races, increment-on-sync-writes) with the exact update
//!   rules from §2.4 and §2.6, factored out so the detector crates share
//!   one implementation.
//!
//! # Quick example
//!
//! ```
//! use cord_clocks::policy::ClockPolicy;
//! use cord_clocks::scalar::ScalarTime;
//!
//! let policy = ClockPolicy::cord(); // D = 16, paper's default
//! let mut clk = ScalarTime::ZERO;
//!
//! // A sync read that observes a lock released at time 7 jumps the
//! // thread's clock to 7 + D.
//! clk = policy.sync_read_update(clk, ScalarTime::new(7));
//! assert_eq!(clk, ScalarTime::new(7 + 16));
//! ```

#![warn(missing_docs)]

pub mod policy;
pub mod scalar;
pub mod vector;
pub mod window16;

pub use policy::ClockPolicy;
pub use scalar::ScalarTime;
pub use vector::VectorClock;
