//! CORD mechanism configuration.

use cord_clocks::policy::ClockPolicy;

/// Knobs of the CORD mechanism, with the paper's shipping defaults and
/// the ablations §4.3/§4.4 sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CordConfig {
    /// Scalar-clock update policy (the `D` window of §2.6 and related
    /// ablations).
    pub policy: ClockPolicy,
    /// Timestamp entries kept per cache line (2 in the paper, §2.3;
    /// 1 reproduces the Figure 2 history-erasure problem).
    pub ts_per_line: usize,
    /// Maintain the main-memory read/write timestamps of §2.5. Disabling
    /// them (ablation) loses ordering through displaced lines.
    pub mem_ts: bool,
    /// Ignore data-race detections that compared against a main-memory
    /// timestamp (§2.5: "we can simply ignore (and not report) any data
    /// race detections that used a main memory timestamp"), trading
    /// missed races through memory for zero false positives.
    pub suppress_mem_ts_reports: bool,
    /// Maintain the per-line check filter bits of §2.7.2 that let whole
    /// lines be re-accessed without race-check broadcasts.
    pub check_filters: bool,
    /// Enable data-race detection. When `false` the mechanism degrades
    /// to a pure order-recorder (the related-work comparison point: "low
    /// overhead order-recording hardware has been proposed by Xu et al.,
    /// but without DRD support", §5): no race-check broadcasts, no race
    /// reports — only the clock updates and log that replay needs.
    pub drd: bool,
    /// Track the 16-bit sliding-window invariant and run the cache
    /// walker (§2.7.5). Affects statistics only — the reference
    /// implementation uses unbounded clocks, which `cord-clocks`'s
    /// property tests show are equivalent while the invariant holds.
    pub window_walker: bool,
}

impl CordConfig {
    /// The paper's shipping configuration: `D = 16`, two timestamps per
    /// line, main-memory timestamps on, suppression on, filters on.
    pub fn paper() -> Self {
        CordConfig {
            policy: ClockPolicy::cord(),
            ts_per_line: 2,
            mem_ts: true,
            suppress_mem_ts_reports: true,
            check_filters: true,
            drd: true,
            window_walker: true,
        }
    }

    /// The naive scalar-clock configuration (`D = 1`), the "D1" bars of
    /// Figures 16–17.
    pub fn naive_scalar() -> Self {
        CordConfig {
            policy: ClockPolicy::naive_scalar(),
            ..Self::paper()
        }
    }

    /// The paper configuration with an explicit `D` (Figures 16–17 sweep
    /// D ∈ {1, 4, 16, 256}).
    pub fn with_d(d: u64) -> Self {
        CordConfig {
            policy: ClockPolicy::with_d(d),
            ..Self::paper()
        }
    }

    /// Returns a copy with data-race detection disabled: a pure
    /// order-recorder in the spirit of FDR (§5's comparison point).
    #[must_use]
    pub fn record_only(mut self) -> Self {
        self.drd = false;
        self
    }

    /// Returns a copy with a single timestamp per line (Figure 2
    /// ablation).
    #[must_use]
    pub fn single_timestamp(mut self) -> Self {
        self.ts_per_line = 1;
        self
    }

    /// Returns a copy without main-memory timestamps (Figure 6 ablation;
    /// order recording becomes unsound for displaced synchronization).
    #[must_use]
    pub fn without_mem_ts(mut self) -> Self {
        self.mem_ts = false;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `ts_per_line` is zero.
    pub fn validate(&self) {
        assert!(
            self.ts_per_line >= 1,
            "need at least one timestamp per line"
        );
    }
}

impl Default for CordConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = CordConfig::paper();
        c.validate();
        assert_eq!(c.policy.d(), 16);
        assert_eq!(c.ts_per_line, 2);
        assert!(c.mem_ts && c.suppress_mem_ts_reports && c.check_filters);
    }

    #[test]
    fn sweeps_and_ablations() {
        assert_eq!(CordConfig::naive_scalar().policy.d(), 1);
        assert_eq!(CordConfig::with_d(256).policy.d(), 256);
        assert_eq!(CordConfig::paper().single_timestamp().ts_per_line, 1);
        assert!(!CordConfig::paper().without_mem_ts().mem_ts);
    }

    #[test]
    #[should_panic(expected = "at least one timestamp")]
    fn zero_ts_rejected() {
        let mut c = CordConfig::paper();
        c.ts_per_line = 0;
        c.validate();
    }
}
