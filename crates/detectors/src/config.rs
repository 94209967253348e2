//! The detector configurations compared in §4, and their single
//! construction point.
//!
//! This module used to live in `cord-bench`; it moved here so that
//! *every* consumer of detectors — the sweep, the fuzzer, the
//! `cord-serve` daemon — can name and build them without depending on
//! the benchmark harness. Construction goes through
//! [`DetectorConfig::build_sink`], which returns the concrete
//! [`DetectorEnum`] wired with its observability context; the daemon
//! resolves labels from stream headers back to configurations with
//! [`DetectorConfig::from_label`].

use crate::{IdealDetector, VcConfig, VcLimitedDetector};
use cord_clocks::window16::WINDOW;
use cord_core::{CordConfig, CordDetector, DetectorSink, ObsCtx, SinkReport};
use cord_sim::config::MachineConfig;
use cord_sim::observer::{
    AccessEvent, CoreId, Level, LineRemoval, MemoryObserver, ObserverOutcome,
};
use cord_trace::types::{LineAddr, ThreadId};

/// A named detector configuration from the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorConfig {
    /// CORD with the given `D` (the paper's default is 16; Figures 16–17
    /// sweep 1, 4, 16, 256).
    Cord {
        /// The sync-read clock-update window.
        d: u64,
    },
    /// Vector clocks, two timestamps per line, unlimited cache
    /// (InfCache, §4.3).
    VcInfCache,
    /// Vector clocks limited to the L2 (the "vector clock" reference of
    /// Figures 12–13/16–17).
    VcL2Cache,
    /// Vector clocks limited to the L1 (the severe constraint of
    /// Figures 14–15).
    VcL1Cache,
    /// The Ideal oracle: vector clocks, infinite cache, unlimited
    /// per-word history.
    Ideal,
    /// A deliberately faulty detector for fault-tolerance tests: runs
    /// with an odd seed panic (caught by the sweep's per-run isolation
    /// boundary and recorded as `RunStatus::Panicked`), even-seeded runs
    /// report zero races, so a probed sweep mixes panicked and completed
    /// records. Never part of [`DetectorConfig::all_for_sweep`].
    PanicProbe,
}

impl DetectorConfig {
    /// The figure label.
    pub fn label(self) -> String {
        match self {
            DetectorConfig::Cord { d } => format!("CORD-D{d}"),
            DetectorConfig::VcInfCache => "InfCache".to_string(),
            DetectorConfig::VcL2Cache => "L2Cache(VC)".to_string(),
            DetectorConfig::VcL1Cache => "L1Cache(VC)".to_string(),
            DetectorConfig::Ideal => "Ideal".to_string(),
            DetectorConfig::PanicProbe => "PanicProbe".to_string(),
        }
    }

    /// The inverse of [`DetectorConfig::label`]: resolves a label (as
    /// carried in a [`cord_obs::StreamHeader`]) back to the
    /// configuration, so a daemon can build the right sink for a
    /// captured stream. Resolves only labels that
    /// [`DetectorConfig::build_sink`] can build: a CORD label must spell
    /// its `D` canonically (no leading zeros or sign, so the report names
    /// the header's label) and keep it in `1..WINDOW`, the range the
    /// 16-bit clock comparisons allow.
    pub fn from_label(label: &str) -> Option<DetectorConfig> {
        match label {
            "InfCache" => Some(DetectorConfig::VcInfCache),
            "L2Cache(VC)" => Some(DetectorConfig::VcL2Cache),
            "L1Cache(VC)" => Some(DetectorConfig::VcL1Cache),
            "Ideal" => Some(DetectorConfig::Ideal),
            "PanicProbe" => Some(DetectorConfig::PanicProbe),
            _ => {
                let d: u64 = label.strip_prefix("CORD-D")?.parse().ok()?;
                let cfg = DetectorConfig::Cord { d };
                (cfg.label() == label && (1..u64::from(WINDOW)).contains(&d)).then_some(cfg)
            }
        }
    }

    /// The machine this configuration runs on: Ideal and InfCache use
    /// the infinite-cache machine ("Ideal's L2 cache is infinite and
    /// always hits", §4.2), everything else uses the paper's 4-core CMP.
    pub fn machine(self) -> MachineConfig {
        match self {
            DetectorConfig::Ideal | DetectorConfig::VcInfCache => MachineConfig::infinite_cache(),
            _ => MachineConfig::paper_4core(),
        }
    }

    /// `true` when this configuration's detector never charges the bus:
    /// every callback returns `ObserverOutcome::NONE`, so its machine
    /// runs as if no detector were attached, and passive configurations
    /// on equal machines can share one run. CORD's race checks and
    /// memory-timestamp broadcasts change timing, and the panic probe
    /// faults by design, so neither is passive.
    pub fn is_passive(self) -> bool {
        matches!(
            self,
            DetectorConfig::Ideal
                | DetectorConfig::VcInfCache
                | DetectorConfig::VcL2Cache
                | DetectorConfig::VcL1Cache
        )
    }

    /// The CORD detector configuration, when this is a CORD variant.
    pub fn cord_config(self) -> Option<CordConfig> {
        match self {
            DetectorConfig::Cord { d } => Some(CordConfig::with_d(d)),
            _ => None,
        }
    }

    /// The vector-clock detector configuration, when applicable.
    pub fn vc_config(self) -> Option<VcConfig> {
        match self {
            DetectorConfig::VcInfCache => Some(VcConfig::inf_cache()),
            DetectorConfig::VcL2Cache => Some(VcConfig::l2_cache()),
            DetectorConfig::VcL1Cache => Some(VcConfig::l1_cache()),
            _ => None,
        }
    }

    /// Constructs the detector this configuration names as the concrete
    /// [`DetectorEnum`], wired with its observability context — the
    /// single construction point every sweep, figure, fuzz leg, and
    /// daemon session goes through. Adding a detector means adding a
    /// variant here, not touching each call site. The sweep hot path
    /// runs `Machine<SinkObserver<DetectorEnum>>`, so every observer
    /// callback dispatches through one match instead of a vtable.
    ///
    /// `seed` is the run's scheduling seed; real detectors ignore it,
    /// but [`DetectorConfig::PanicProbe`] uses its parity to decide
    /// whether to fault (odd seeds panic at the first observed access,
    /// or at run end if nothing was observed).
    pub fn build_sink(&self, threads: usize, cores: usize, seed: u64, ctx: ObsCtx) -> DetectorEnum {
        let vc = |cfg| DetectorEnum::VcLimited(VcLimitedDetector::new(cfg, threads, cores));
        match *self {
            DetectorConfig::Cord { d } => {
                let mut det = CordDetector::new(CordConfig::with_d(d), threads, cores);
                det.set_trace(ctx.trace);
                DetectorEnum::Cord(det)
            }
            DetectorConfig::Ideal => DetectorEnum::Ideal(IdealDetector::new(threads)),
            DetectorConfig::VcInfCache => vc(VcConfig::inf_cache()),
            DetectorConfig::VcL2Cache => vc(VcConfig::l2_cache()),
            DetectorConfig::VcL1Cache => vc(VcConfig::l1_cache()),
            DetectorConfig::PanicProbe => DetectorEnum::PanicProbe(PanicProbeDetector { seed }),
        }
    }

    /// Every configuration any figure needs, so one sweep serves all of
    /// Figures 12–17.
    pub fn all_for_sweep() -> Vec<DetectorConfig> {
        vec![
            DetectorConfig::Cord { d: 1 },
            DetectorConfig::Cord { d: 4 },
            DetectorConfig::Cord { d: 16 },
            DetectorConfig::Cord { d: 256 },
            DetectorConfig::VcInfCache,
            DetectorConfig::VcL2Cache,
            DetectorConfig::VcL1Cache,
        ]
    }
}

/// Every detector a [`DetectorConfig`] can name, as one concrete type.
///
/// `Machine<SinkObserver<DetectorEnum>>` is what the sweep's
/// (app × run) inner loop executes, and the cord-serve daemon holds one
/// per session: each observer callback or ingested event compiles to a
/// jump over this enum's variants instead of a virtual call.
#[derive(Debug)]
pub enum DetectorEnum {
    /// A [`CordDetector`] (any `D`).
    Cord(CordDetector),
    /// The [`IdealDetector`] oracle.
    Ideal(IdealDetector),
    /// A [`VcLimitedDetector`] (InfCache / L2Cache / L1Cache).
    VcLimited(VcLimitedDetector),
    /// The fault-injection probe.
    PanicProbe(PanicProbeDetector),
}

impl MemoryObserver for DetectorEnum {
    fn on_access(&mut self, ev: &AccessEvent) -> ObserverOutcome {
        match self {
            DetectorEnum::Cord(d) => d.on_access(ev),
            DetectorEnum::Ideal(d) => d.on_access(ev),
            DetectorEnum::VcLimited(d) => d.on_access(ev),
            DetectorEnum::PanicProbe(d) => d.on_access(ev),
        }
    }

    fn on_line_filled(&mut self, core: CoreId, level: Level, line: LineAddr) {
        match self {
            DetectorEnum::Cord(d) => d.on_line_filled(core, level, line),
            DetectorEnum::Ideal(d) => d.on_line_filled(core, level, line),
            DetectorEnum::VcLimited(d) => d.on_line_filled(core, level, line),
            DetectorEnum::PanicProbe(d) => d.on_line_filled(core, level, line),
        }
    }

    fn on_line_removed(&mut self, removal: &LineRemoval) -> ObserverOutcome {
        match self {
            DetectorEnum::Cord(d) => d.on_line_removed(removal),
            DetectorEnum::Ideal(d) => d.on_line_removed(removal),
            DetectorEnum::VcLimited(d) => d.on_line_removed(removal),
            DetectorEnum::PanicProbe(d) => d.on_line_removed(removal),
        }
    }

    fn on_thread_migrated(&mut self, thread: ThreadId, from: CoreId, to: CoreId) {
        match self {
            DetectorEnum::Cord(d) => d.on_thread_migrated(thread, from, to),
            DetectorEnum::Ideal(d) => d.on_thread_migrated(thread, from, to),
            DetectorEnum::VcLimited(d) => d.on_thread_migrated(thread, from, to),
            DetectorEnum::PanicProbe(d) => d.on_thread_migrated(thread, from, to),
        }
    }

    fn on_run_end(&mut self, final_instr_counts: &[u64]) {
        match self {
            DetectorEnum::Cord(d) => d.on_run_end(final_instr_counts),
            DetectorEnum::Ideal(d) => d.on_run_end(final_instr_counts),
            DetectorEnum::VcLimited(d) => d.on_run_end(final_instr_counts),
            DetectorEnum::PanicProbe(d) => d.on_run_end(final_instr_counts),
        }
    }
}

impl DetectorSink for DetectorEnum {
    fn race_count(&self) -> u64 {
        match self {
            DetectorEnum::Cord(d) => d.race_count(),
            DetectorEnum::Ideal(d) => d.race_count(),
            DetectorEnum::VcLimited(d) => d.race_count(),
            DetectorEnum::PanicProbe(d) => d.race_count(),
        }
    }

    fn drain(&mut self) -> SinkReport {
        match self {
            DetectorEnum::Cord(d) => d.drain(),
            DetectorEnum::Ideal(d) => d.drain(),
            DetectorEnum::VcLimited(d) => d.drain(),
            DetectorEnum::PanicProbe(d) => d.drain(),
        }
    }
}

/// The deliberately faulty detector behind
/// [`DetectorConfig::PanicProbe`]: odd-seeded runs panic at the first
/// observed access — or at run end, for workloads with no observed
/// accesses, so odd seeds *always* fault (exercising the sweep's
/// per-job panic boundary); even-seeded runs observe everything and
/// report zero races.
#[derive(Debug, Clone, Copy)]
pub struct PanicProbeDetector {
    seed: u64,
}

impl MemoryObserver for PanicProbeDetector {
    fn on_access(&mut self, _ev: &AccessEvent) -> ObserverOutcome {
        if self.seed % 2 == 1 {
            panic!("panic probe fired (injected detector fault)");
        }
        ObserverOutcome::NONE
    }

    // `on_run_end` always fires, so an odd seed faults even for a
    // workload that performs zero observed memory accesses.
    fn on_run_end(&mut self, _final_instr_counts: &[u64]) {
        if self.seed % 2 == 1 {
            panic!("panic probe fired (injected detector fault)");
        }
    }
}

impl DetectorSink for PanicProbeDetector {
    fn race_count(&self) -> u64 {
        0
    }

    fn drain(&mut self) -> SinkReport {
        SinkReport::new("PanicProbe")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_figure_style() {
        assert_eq!(DetectorConfig::Cord { d: 16 }.label(), "CORD-D16");
        assert_eq!(DetectorConfig::VcL2Cache.label(), "L2Cache(VC)");
    }

    #[test]
    fn from_label_inverts_label() {
        for cfg in DetectorConfig::all_for_sweep()
            .into_iter()
            .chain([DetectorConfig::Ideal, DetectorConfig::PanicProbe])
        {
            assert_eq!(DetectorConfig::from_label(&cfg.label()), Some(cfg));
        }
        assert_eq!(DetectorConfig::from_label("CORD-Dx"), None);
        assert_eq!(DetectorConfig::from_label("CORD-D0"), None);
        assert_eq!(DetectorConfig::from_label("CORD-D016"), None);
        assert_eq!(DetectorConfig::from_label("CORD-D+16"), None);
        assert_eq!(
            DetectorConfig::from_label("CORD-D18446744073709551615"),
            None
        );
        let last = u64::from(WINDOW) - 1;
        assert_eq!(
            DetectorConfig::from_label(&format!("CORD-D{last}")),
            Some(DetectorConfig::Cord { d: last })
        );
        assert_eq!(
            DetectorConfig::from_label(&format!("CORD-D{}", last + 1)),
            None
        );
        assert_eq!(DetectorConfig::from_label("nonsense"), None);
    }

    #[test]
    fn machines_match_paper_setup() {
        assert!(
            DetectorConfig::Ideal.machine().l2.capacity_bytes
                > DetectorConfig::VcL2Cache.machine().l2.capacity_bytes
        );
        assert_eq!(
            DetectorConfig::Cord { d: 16 }.machine(),
            MachineConfig::paper_4core()
        );
    }

    #[test]
    fn config_conversions() {
        assert_eq!(
            DetectorConfig::Cord { d: 4 }
                .cord_config()
                .unwrap()
                .policy
                .d(),
            4
        );
        assert!(DetectorConfig::Cord { d: 4 }.vc_config().is_none());
        assert_eq!(
            DetectorConfig::VcL1Cache.vc_config().unwrap().capacity,
            crate::CapacityMode::Level(cord_sim::observer::Level::L1)
        );
        assert_eq!(DetectorConfig::all_for_sweep().len(), 7);
    }

    #[test]
    fn only_the_vector_clock_family_is_passive() {
        let passive: Vec<String> = DetectorConfig::all_for_sweep()
            .into_iter()
            .chain([DetectorConfig::Ideal, DetectorConfig::PanicProbe])
            .filter(|c| c.is_passive())
            .map(DetectorConfig::label)
            .collect();
        assert_eq!(passive, ["InfCache", "L2Cache(VC)", "L1Cache(VC)", "Ideal"]);
    }

    #[test]
    fn build_sink_constructs_every_sweep_detector() {
        for cfg in DetectorConfig::all_for_sweep() {
            let mut det = cfg.build_sink(4, 4, 2, ObsCtx::disabled());
            assert_eq!(det.race_count(), 0, "{cfg:?} starts clean");
            let report = det.drain();
            assert_eq!(report.detector, cfg.label(), "{cfg:?} drains its label");
            assert_eq!(report.race_count, 0);
        }
        let mut probe = DetectorConfig::PanicProbe.build_sink(4, 4, 2, ObsCtx::disabled());
        assert_eq!(probe.race_count(), 0);
        assert_eq!(probe.drain().detector, "PanicProbe");
    }

    #[test]
    fn panic_probe_fires_on_odd_seeds_only() {
        use cord_sim::observer::{AccessKind, AccessPath, CoreId};
        use cord_trace::types::{Addr, ThreadId};
        let ev = AccessEvent {
            core: CoreId(0),
            thread: ThreadId(0),
            addr: Addr::new(0x40),
            kind: AccessKind::DataRead,
            path: AccessPath::L1Hit,
            instr_index: 0,
            cycle: 0,
        };
        let mut even = PanicProbeDetector { seed: 4 };
        assert_eq!(even.on_access(&ev), ObserverOutcome::NONE);
        let mut odd = PanicProbeDetector { seed: 5 };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            odd.on_access(&ev);
        }));
        assert!(caught.is_err(), "odd-seeded probe must panic");
    }

    #[test]
    fn panic_probe_faults_at_run_end_even_without_accesses() {
        let mut even = PanicProbeDetector { seed: 4 };
        even.on_run_end(&[0, 0]);
        let mut odd = PanicProbeDetector { seed: 5 };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            odd.on_run_end(&[0, 0]);
        }));
        assert!(
            caught.is_err(),
            "odd-seeded probe must fault even for access-free runs"
        );
    }
}
