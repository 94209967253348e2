//! Shared-bus timing with FIFO arbitration and contention accounting.
//!
//! The machine has three buses (§3.1):
//!
//! * the on-chip **data bus** (128-bit, 1 GHz) that carries line
//!   transfers between L2 caches and to/from the memory controller;
//! * the on-chip **address/timestamp bus**, which "is ordinarily less
//!   occupied than the data bus, so it runs at half the frequency of the
//!   data bus" (§4.1) — every coherence transaction posts its address
//!   here, and CORD's race-check requests and memory-timestamp updates
//!   ride *only* here ("our race check requests only use the
//!   less-utilized address and timestamp buses and cause no data bus
//!   contention", §2.7.2);
//! * the off-chip **memory bus** (quad-pumped 64-bit, 200 MHz).
//!
//! [`Buses`] holds the coherence side of the address/timestamp bus, and
//! a [`TsLedger`] its timestamp side: the traffic an observer charges.
//!
//! Each bus is a single resource with a `free_at` horizon: a transaction
//! arriving at `t` starts at `max(t, free_at)`, occupies the bus for its
//! occupancy, and the difference is recorded as contention. This is the
//! mechanism by which CORD's extra address-bus traffic turns into the
//! (small) execution-time overhead of Figure 11 — e.g. cholesky's
//! frequent synchronization causes "bursts of timestamp removals and race
//! check requests", raising address-bus contention.

use crate::observer::ObserverOutcome;
use crate::stats::SimStats;

/// A single shared bus resource.
#[derive(Debug, Clone, Default)]
pub struct Bus {
    free_at: u64,
    busy_cycles: u64,
    contention_cycles: u64,
    transactions: u64,
}

impl Bus {
    /// A bus that is free at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires the bus at time `now` for `occupancy` cycles; returns the
    /// cycle at which the transaction *starts* (≥ `now`).
    pub fn acquire(&mut self, now: u64, occupancy: u64) -> u64 {
        let start = self.free_at.max(now);
        self.contention_cycles += start - now;
        self.free_at = start + occupancy;
        self.busy_cycles += occupancy;
        self.transactions += 1;
        start
    }

    /// Total cycles the bus spent transferring.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Total cycles requesters spent waiting for the bus.
    pub fn contention_cycles(&self) -> u64 {
        self.contention_cycles
    }

    /// Number of transactions served.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// The cycle at which the bus next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }
}

/// The machine's buses.
#[derive(Debug, Clone, Default)]
pub struct Buses {
    /// On-chip data bus.
    pub data: Bus,
    /// On-chip address bus (coherence transactions: misses, upgrades).
    pub addr: Bus,
    /// Off-chip memory bus.
    pub mem: Bus,
}

impl Buses {
    /// All buses free at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The on-chip timestamp bus and what an observer charged on it. CORD's
/// race-check requests and memory-timestamp update broadcasts ride here
/// (§2.7.2: they "only use the less-utilized address and timestamp buses
/// and cause no data bus contention"). Demand misses are prioritized
/// onto the address bus, so check traffic slows the processor only
/// through the retirement-delay mechanism of §3.1.
///
/// A machine keeps one ledger; the cells of a shared run keep one each
/// (see [`shared`](crate::shared)), since only the stalls they cause
/// feed back into the machine.
#[derive(Debug, Clone, Default)]
pub struct TsLedger {
    bus: Bus,
    transactions: u64,
    stall_cycles: u64,
}

impl TsLedger {
    /// Charges observer-issued transactions on the timestamp bus at
    /// cycle `at`, each occupying it for `slot` cycles. The processor
    /// consumes data without waiting for the CORD comparison (§3.1), but
    /// an instruction whose race check is still in flight when it would
    /// otherwise retire is delayed — so the core stalls by however far
    /// the check's completion runs past `at + window`. Posted broadcasts
    /// (memory-timestamp updates) only occupy the bus. Returns the
    /// retirement stall.
    pub fn charge(&mut self, out: ObserverOutcome, at: u64, slot: u64, window: u64) -> u64 {
        let mut stall = 0;
        for _ in 0..out.race_check_requests {
            let done = self.bus.acquire(at, slot) + slot;
            stall = stall.max(done.saturating_sub(at + window));
        }
        for _ in 0..out.posted_transactions {
            self.bus.acquire(at, slot);
        }
        self.transactions += u64::from(out.total());
        self.stall_cycles += stall;
        stall
    }

    /// Writes the timestamp-bus fields of `stats`: `ts_bus_busy`,
    /// `observer_addr_transactions` and `retirement_stall_cycles`.
    pub fn write_into(&self, stats: &mut SimStats) {
        stats.ts_bus_busy = self.bus.busy_cycles();
        stats.observer_addr_transactions = self.transactions;
        stats.retirement_stall_cycles = self.stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_transaction_starts_immediately() {
        let mut b = Bus::new();
        assert_eq!(b.acquire(100, 16), 100);
        assert_eq!(b.busy_cycles(), 16);
        assert_eq!(b.contention_cycles(), 0);
        assert_eq!(b.free_at(), 116);
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut b = Bus::new();
        b.acquire(0, 16);
        // Second request at cycle 4 must wait until 16.
        let start = b.acquire(4, 16);
        assert_eq!(start, 16);
        assert_eq!(b.contention_cycles(), 12);
        assert_eq!(b.transactions(), 2);
    }

    #[test]
    fn idle_gap_resets_waiting() {
        let mut b = Bus::new();
        b.acquire(0, 8);
        let start = b.acquire(100, 8);
        assert_eq!(start, 100);
        assert_eq!(b.contention_cycles(), 0);
        assert_eq!(b.busy_cycles(), 16);
    }

    #[test]
    fn buses_are_independent() {
        let mut buses = Buses::new();
        buses.data.acquire(0, 16);
        assert_eq!(buses.addr.acquire(0, 8), 0);
        assert_eq!(buses.mem.acquire(0, 40), 0);
    }
}
