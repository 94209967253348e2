//! Computation and rendering of every table and figure in §4.

use crate::sweep::{run_group, SweepOptions, SweepResults};
use cord_core::replay::{record_and_verify, replay_parallelism};
use cord_core::{area, CordConfig, CordDetector, CordError};
use cord_detectors::DetectorConfig;
use cord_inject::Campaign;
use cord_sim::config::MachineConfig;
use cord_sim::engine::{InjectionPlan, Machine, SimError};
use cord_sim::observer::NullObserver;
use cord_sim::stats::SimStats;
use cord_trace::program::Workload;
use cord_workloads::{all_apps, kernel, lockfree_apps, ScaleClass};
use std::fmt;

/// How a figure's values should be displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Render as a percentage.
    Percent,
    /// Render as a plain ratio.
    Ratio,
    /// Render as bytes.
    Bytes,
    /// Render as a count.
    Count,
}

/// One regenerated figure or table: app rows × configuration columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Figure identifier and description.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// `(row label, one value per column)`; `None` = undefined (no
    /// manifested runs for that app).
    pub rows: Vec<(String, Vec<Option<f64>>)>,
    /// Display unit.
    pub unit: Unit,
    /// Free-form note (the paper's corresponding headline number).
    pub note: String,
}

impl FigureTable {
    fn format_value(&self, v: Option<f64>) -> String {
        match v {
            None => "-".to_string(),
            Some(x) => match self.unit {
                Unit::Percent => format!("{:.1}%", x * 100.0),
                Unit::Ratio => format!("{x:.4}"),
                Unit::Bytes => format!("{:.1}KB", x / 1024.0),
                Unit::Count => format!("{x:.0}"),
            },
        }
    }

    /// Appends an `Average` row (mean over defined values per column).
    pub fn with_average(mut self) -> Self {
        let ncols = self.columns.len();
        let mut avg = vec![None; ncols];
        for (c, slot) in avg.iter_mut().enumerate() {
            let vals: Vec<f64> = self
                .rows
                .iter()
                .filter_map(|(_, vs)| vs.get(c).copied().flatten())
                .collect();
            if !vals.is_empty() {
                *slot = Some(vals.iter().sum::<f64>() / vals.len() as f64);
            }
        }
        self.rows.push(("Average".to_string(), avg));
        self
    }
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "   ({})", self.note)?;
        }
        write!(f, "{:12}", "app")?;
        for c in &self.columns {
            write!(f, " {c:>12}")?;
        }
        writeln!(f)?;
        for (label, vals) in &self.rows {
            write!(f, "{label:12}")?;
            for v in vals {
                write!(f, " {:>12}", self.format_value(*v))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn rate_table(
    title: &str,
    note: &str,
    results: &SweepResults,
    columns: &[(&str, &str, bool)], // (header, config label, raw?) vs base in 4th
    bases: &[&str],
) -> FigureTable {
    let mut rows: Vec<(String, Vec<Option<f64>>)> = results
        .apps
        .iter()
        .map(|app| {
            let vals = columns
                .iter()
                .zip(bases)
                .map(|((_, label, raw), base)| {
                    if *raw {
                        app.race_rate_vs(label, base)
                    } else {
                        app.problem_rate_vs(label, base)
                    }
                })
                .collect();
            (app.app.clone(), vals)
        })
        .collect();
    // The Average row pools numerators and denominators across apps,
    // like the paper's averages "based on more than a hundred manifested
    // errors per configuration" — robust against per-app outliers with
    // tiny denominators.
    let avg = columns
        .iter()
        .zip(bases)
        .map(|((_, label, raw), base)| {
            let (mut num, mut den) = (0u64, 0u64);
            for app in &results.apps {
                if *raw {
                    num += app.races_found(label);
                    den += if *base == "Ideal" {
                        app.ideal_races()
                    } else {
                        app.races_found(base)
                    };
                } else {
                    num += app.problems_found(label) as u64;
                    den += if *base == "Ideal" {
                        app.manifested().count() as u64
                    } else {
                        app.problems_found(base) as u64
                    };
                }
            }
            (den > 0).then(|| num as f64 / den as f64)
        })
        .collect();
    rows.push(("Average".to_string(), avg));
    FigureTable {
        title: title.to_string(),
        columns: columns.iter().map(|(h, _, _)| h.to_string()).collect(),
        rows,
        unit: Unit::Percent,
        note: note.to_string(),
    }
}

/// One clean run of `w` on `machine` with CORD (`cfg`) attached.
fn run_cord(
    machine: &MachineConfig,
    w: &Workload,
    cfg: CordConfig,
    seed: u64,
) -> Result<(SimStats, CordDetector), CordError> {
    let det = CordDetector::new(cfg, w.num_threads(), machine.cores);
    Ok(Machine::new(machine.clone(), w, det, seed, InjectionPlan::none()).run_stats()?)
}

/// One clean run of `w` on `machine` with no recording or detection
/// support (Figure 11's baseline).
fn run_baseline(machine: &MachineConfig, w: &Workload, seed: u64) -> Result<SimStats, CordError> {
    let m = Machine::new(
        machine.clone(),
        w,
        NullObserver,
        seed,
        InjectionPlan::none(),
    );
    Ok(m.run_stats()?.0)
}

/// Execution time with the paper's CORD relative to the baseline
/// (Figure 11's metric; 1.004 means 0.4% overhead).
fn overhead(machine: &MachineConfig, w: &Workload, seed: u64) -> Result<f64, CordError> {
    let base = run_baseline(machine, w, seed)?;
    let (cord, _) = run_cord(machine, w, CordConfig::paper(), seed)?;
    Ok(cord.cycles as f64 / base.cycles as f64)
}

/// Runs every plan of `campaign` on `machine` with CORD (`cfg`)
/// attached, run `i` at seed `seed + i`, and counts the runs that report
/// at least one race.
fn runs_detected(
    machine: &MachineConfig,
    w: &Workload,
    campaign: &Campaign,
    cfg: &CordConfig,
    seed: u64,
) -> Result<u64, CordError> {
    let mut found = 0u64;
    for (i, plan) in campaign.plans().enumerate() {
        let det = CordDetector::new(cfg.clone(), w.num_threads(), machine.cores);
        let (_, det) = Machine::new(machine.clone(), w, det, seed + i as u64, plan).run_stats()?;
        found += u64::from(!det.races().is_empty());
    }
    Ok(found)
}

/// Figure 10: percentage of injected sync removals that manifested at
/// least one data race (per the Ideal oracle).
pub fn fig10(results: &SweepResults) -> FigureTable {
    let rows = results
        .apps
        .iter()
        .map(|a| (a.app.clone(), vec![Some(a.manifestation_rate())]))
        .collect();
    FigureTable {
        title: "Figure 10: injections manifesting >=1 data race (Ideal)".into(),
        columns: vec!["manifested".into()],
        rows,
        unit: Unit::Percent,
        note: "paper: varies widely per app; many removals are redundant".into(),
    }
    .with_average()
}

/// Figure 11: execution time with CORD relative to a machine with no
/// recording/DRD support. Averages several seeds to damp scheduling
/// noise on small inputs.
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run (clean runs on an
/// unwatchdogged machine cannot fail in practice).
pub fn fig11(scale: ScaleClass, seeds: &[u64]) -> Result<FigureTable, CordError> {
    let machine = MachineConfig::paper_4core();
    let mut rows = Vec::new();
    for app in all_apps() {
        let mut ratios = Vec::new();
        for &seed in seeds {
            let w = kernel(app, scale, 4, seed);
            ratios.push(overhead(&machine, &w, seed)?);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        rows.push((app.name().to_string(), vec![Some(avg)]));
    }
    Ok(FigureTable {
        title: "Figure 11: execution time with CORD (baseline = 1.0)".into(),
        columns: vec!["rel. time".into()],
        rows,
        unit: Unit::Ratio,
        note: "paper: 0.4% average overhead, 3% worst case (cholesky)".into(),
    }
    .with_average())
}

/// Figure 12: CORD's problem detection rate vs. the vector-clock scheme
/// and vs. Ideal.
pub fn fig12(results: &SweepResults) -> FigureTable {
    rate_table(
        "Figure 12: problem detection rate (CORD-D16)",
        "paper: 83% of vector clocks, 77% of Ideal on average",
        results,
        &[
            ("vs VC", "CORD-D16", false),
            ("vs Ideal", "CORD-D16", false),
        ],
        &["L2Cache(VC)", "Ideal"],
    )
}

/// Figure 13: CORD's raw data-race detection rate vs. VC and Ideal.
pub fn fig13(results: &SweepResults) -> FigureTable {
    rate_table(
        "Figure 13: raw data race detection rate (CORD-D16)",
        "paper: ~20% of Ideal — raw detection is sacrificed, problem detection retained",
        results,
        &[("vs VC", "CORD-D16", true), ("vs Ideal", "CORD-D16", true)],
        &["L2Cache(VC)", "Ideal"],
    )
}

/// Figure 14: problem detection with limited access histories
/// (InfCache / L2Cache / L1Cache, all vector clocks), relative to Ideal.
pub fn fig14(results: &SweepResults) -> FigureTable {
    rate_table(
        "Figure 14: problem detection with limited histories (VC)",
        "paper: few problems lost until the severe L1Cache limit",
        results,
        &[
            ("InfCache", "InfCache", false),
            ("L2Cache", "L2Cache(VC)", false),
            ("L1Cache", "L1Cache(VC)", false),
        ],
        &["Ideal", "Ideal", "Ideal"],
    )
}

/// Figure 15: raw race detection for the same three configurations.
pub fn fig15(results: &SweepResults) -> FigureTable {
    rate_table(
        "Figure 15: raw race detection with limited histories (VC)",
        "paper: 2 ts/line alone misses 18% of races; L2/L1 limits miss most",
        results,
        &[
            ("InfCache", "InfCache", true),
            ("L2Cache", "L2Cache(VC)", true),
            ("L1Cache", "L1Cache(VC)", true),
        ],
        &["Ideal", "Ideal", "Ideal"],
    )
}

/// Figure 16: problem detection of scalar clocks at D ∈ {1,4,16,256},
/// relative to the vector-clock L2Cache configuration.
pub fn fig16(results: &SweepResults) -> FigureTable {
    rate_table(
        "Figure 16: problem detection vs D (scalar clocks, rel. to VC)",
        "paper: major gains up to D=16; D=256 helps only barnes",
        results,
        &[
            ("D1", "CORD-D1", false),
            ("D4", "CORD-D4", false),
            ("D16", "CORD-D16", false),
            ("D256", "CORD-D256", false),
        ],
        &["L2Cache(VC)"; 4],
    )
}

/// Figure 17: raw race detection for the same D sweep.
pub fn fig17(results: &SweepResults) -> FigureTable {
    rate_table(
        "Figure 17: raw race detection vs D (scalar clocks, rel. to VC)",
        "paper: D=1 loses most raw detection; improves up to D=16",
        results,
        &[
            ("D1", "CORD-D1", true),
            ("D4", "CORD-D4", true),
            ("D16", "CORD-D16", true),
            ("D256", "CORD-D256", true),
        ],
        &["L2Cache(VC)"; 4],
    )
}

/// Table 1: applications and input sets (paper's vs. this
/// reproduction's workload sizes).
pub fn table1(scale: ScaleClass) -> String {
    let mut out = String::from("== Table 1: applications and input sets ==\n");
    out.push_str(&format!(
        "{:12} {:>12} {:>12} {:>12} {:>10}\n",
        "app", "paper input", "ops", "sync ops", "threads"
    ));
    for app in all_apps() {
        let w = kernel(app, scale, 4, 42);
        let c = w.op_counts();
        let sync = c.locks + c.unlocks + c.flag_sets + c.flag_waits + c.barriers;
        out.push_str(&format!(
            "{:12} {:>12} {:>12} {:>12} {:>10}\n",
            app.name(),
            app.paper_input(),
            w.total_ops(),
            sync,
            w.num_threads()
        ));
    }
    out
}

/// §3.3: order-log size per application ("less than 1MB for the entire
/// execution" in the paper's full runs).
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn logsize(scale: ScaleClass, seed: u64) -> Result<FigureTable, CordError> {
    let machine = MachineConfig::paper_4core();
    let mut rows = Vec::new();
    for app in all_apps() {
        let w = kernel(app, scale, 4, seed);
        let (_, det) = run_cord(&machine, &w, CordConfig::paper(), seed)?;
        rows.push((
            app.name().to_string(),
            vec![Some(det.recorder().bytes() as f64)],
        ));
    }
    Ok(FigureTable {
        title: "Order-recording log size (8 bytes/entry)".into(),
        columns: vec!["log size".into()],
        rows,
        unit: Unit::Bytes,
        note: "paper: < 1MB per full application run".into(),
    }
    .with_average())
}

/// §2.3–§2.4: the timestamp state area model.
pub fn area_table() -> FigureTable {
    let rows = vec![
        (
            "CORD scalar".to_string(),
            vec![Some(area::scalar_overhead(2))],
        ),
        (
            "VC 2 threads".to_string(),
            vec![Some(area::vector_overhead(2, 2))],
        ),
        (
            "VC 4 threads".to_string(),
            vec![Some(area::vector_overhead(4, 2))],
        ),
        (
            "VC 16 threads".to_string(),
            vec![Some(area::vector_overhead(16, 2))],
        ),
        (
            "per-word VC4".to_string(),
            vec![Some(area::per_word_vector_overhead(4))],
        ),
    ];
    FigureTable {
        title: "Timestamp state as fraction of cache data area (§2.3)".into(),
        columns: vec!["overhead".into()],
        rows,
        unit: Unit::Percent,
        note: "paper: 19% scalar (thread-count independent), 38% for 4-thread VC, 200% per-word"
            .into(),
    }
}

/// §3.3: replay verification across all applications, with and without
/// injections. Value 1.0 = replay reproduced the recording.
pub fn replay_check(scale: ScaleClass, seed: u64, injections: u64) -> FigureTable {
    let machine = MachineConfig::paper_4core();
    let verifies = |w: &Workload, plan| {
        record_and_verify(&machine, w, &CordConfig::paper(), seed, plan).is_ok()
    };
    let rows = all_apps()
        .into_iter()
        .map(|app| {
            let w = kernel(app, scale, 4, seed);
            let mut ok = verifies(&w, InjectionPlan::none());
            for n in 0..injections {
                ok &= verifies(&w, InjectionPlan::remove_nth(n));
            }
            (app.name().to_string(), vec![Some(f64::from(u8::from(ok)))])
        })
        .collect();
    FigureTable {
        title: "Deterministic replay verification (1 = exact)".into(),
        columns: vec!["replay ok".into()],
        rows,
        unit: Unit::Ratio,
        note: "paper: the entire execution can always be accurately replayed".into(),
    }
}

/// The default full sweep used by Figures 10 and 12–17.
pub fn default_sweep(opts: &SweepOptions) -> SweepResults {
    crate::runner::SweepRunner::new(*opts)
        .run(&DetectorConfig::all_for_sweep())
        .unwrap_or_else(|e| panic!("checkpoint-less sweep cannot fail: {e}"))
}

/// Ablation study over the design choices DESIGN.md calls out: problem
/// detections over injected runs with each mechanism individually
/// altered, against the shipping configuration.
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn ablations(
    scale: ScaleClass,
    seed: u64,
    injections: usize,
) -> Result<FigureTable, CordError> {
    type Variant = (&'static str, fn() -> CordConfig);
    let variants: [Variant; 5] = [
        ("CORD", CordConfig::paper),
        ("1 ts/line", || CordConfig::paper().single_timestamp()),
        ("no mem-ts", || CordConfig::paper().without_mem_ts()),
        ("no data-upd", || {
            let mut c = CordConfig::paper();
            c.policy = c.policy.update_on_data_races(false);
            c
        }),
        ("inc-always", || {
            let mut c = CordConfig::paper();
            c.policy = c.policy.increment_on_all_accesses(true);
            c
        }),
    ];
    let apps = [
        cord_workloads::AppKind::Barnes,
        cord_workloads::AppKind::Cholesky,
        cord_workloads::AppKind::Ocean,
        cord_workloads::AppKind::Radix,
        cord_workloads::AppKind::Volrend,
        cord_workloads::AppKind::WaterN2,
    ];
    let machine = MachineConfig::paper_4core();
    let mut rows = Vec::new();
    for app in apps {
        let w = kernel(app, scale, 4, seed);
        let campaign = Campaign::plan(&machine, &w, injections, seed ^ app as u64)?;
        // The variants differ only in their timestamp-bus charges, so
        // each plan runs all of them as cells of one shared machine run.
        // A failure reports the first (variant, run) that fails, as
        // running each variant over every plan in turn would.
        let mut found = vec![0u64; variants.len()];
        let mut failed: Option<((usize, usize), SimError)> = None;
        for (i, plan) in campaign.plans().enumerate() {
            let dets = variants
                .iter()
                .map(|(_, mk)| CordDetector::new(mk(), w.num_threads(), machine.cores))
                .collect();
            let m = Machine::new(machine.clone(), &w, NullObserver, seed + i as u64, plan);
            m.run_cells(dets, |v, r| match r {
                Ok((_, det)) => found[v] += u64::from(!det.races().is_empty()),
                Err(e) if failed.as_ref().is_none_or(|(at, _)| (v, i) < *at) => {
                    failed = Some(((v, i), e));
                }
                Err(_) => {}
            });
        }
        if let Some((_, e)) = failed {
            return Err(e.into());
        }
        let vals = found.into_iter().map(|f| Some(f as f64)).collect();
        rows.push((app.name().to_string(), vals));
    }
    Ok(FigureTable {
        title: "Ablations: injected runs with >=1 detection, per configuration".into(),
        columns: variants.iter().map(|(n, _)| n.to_string()).collect(),
        rows,
        unit: Unit::Count,
        note: "1 ts/line = Fig 2; no mem-ts = Fig 6 (may FALSELY detect!); \
               no data-upd = Fig 3 ablation; inc-always = Fig 5"
            .into(),
    }
    .with_average())
}

/// Cache and bus behaviour of the baseline machine per application (the
/// methodology backdrop of §3.1: reduced caches preserve realistic hit
/// rates and bus traffic).
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn cache_stats(scale: ScaleClass, seed: u64) -> Result<String, CordError> {
    let mut out = String::from("== Baseline cache/bus behaviour (paper 4-core machine) ==\n");
    out.push_str(&format!(
        "{:12} {:>9} {:>8} {:>8} {:>8} {:>8} {:>9}\n",
        "app", "accesses", "L1 hit%", "L2 hit%", "c2c%", "mem%", "cycles"
    ));
    let machine = MachineConfig::paper_4core();
    for app in all_apps() {
        let w = kernel(app, scale, 4, seed);
        let s = run_baseline(&machine, &w, seed)?;
        let total = s.total_accesses() as f64;
        out.push_str(&format!(
            "{:12} {:>9} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>9}\n",
            app.name(),
            s.total_accesses(),
            100.0 * s.l1_hits as f64 / total,
            100.0 * s.l2_hits as f64 / total,
            100.0 * s.sibling_fills as f64 / total,
            100.0 * s.memory_fills as f64 / total,
            s.cycles,
        ));
    }
    Ok(out)
}

/// Extension (§5 comparison point): timestamp-bus traffic of full CORD
/// vs. a record-only configuration (order recording without DRD, like
/// Xu et al.'s flight data recorder).
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn record_only_cost(scale: ScaleClass, seed: u64) -> Result<FigureTable, CordError> {
    let machine = MachineConfig::paper_4core();
    let mut rows = Vec::new();
    for app in all_apps() {
        let w = kernel(app, scale, 4, seed);
        let (full, full_det) = run_cord(&machine, &w, CordConfig::paper(), seed)?;
        let (rec, rec_det) = run_cord(&machine, &w, CordConfig::paper().record_only(), seed)?;
        let (full_bytes, rec_bytes) = (full_det.recorder().bytes(), rec_det.recorder().bytes());
        rows.push((
            app.name().to_string(),
            vec![
                Some(full.observer_addr_transactions as f64),
                Some(rec.observer_addr_transactions as f64),
                Some(rec_bytes as f64 / full_bytes.max(1) as f64),
            ],
        ));
    }
    Ok(FigureTable {
        title: "Extension: timestamp-bus transactions, full CORD vs record-only".into(),
        columns: vec![
            "full txns".into(),
            "rec-only txns".into(),
            "log ratio".into(),
        ],
        rows,
        unit: Unit::Count,
        note: "record-only drops the race-check broadcasts; the order log is unchanged in role"
            .into(),
    }
    .with_average())
}

/// Sensitivity extension: problem detection as the L2 capacity backing
/// the timestamp storage shrinks or grows (the paper fixes 32 KB; this
/// sweep shows how much of Figure 14's story is capacity).
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn cache_size_sweep(seed: u64, injections: usize) -> Result<FigureTable, CordError> {
    use cord_sim::config::CacheGeometry;

    let sizes_kb = [8u64, 16, 32, 64, 128];
    let apps = [
        cord_workloads::AppKind::Barnes,
        cord_workloads::AppKind::Cholesky,
        cord_workloads::AppKind::Raytrace,
        cord_workloads::AppKind::WaterN2,
    ];
    let mut rows = Vec::new();
    for app in apps {
        let w = kernel(app, ScaleClass::Small, 4, seed);
        let base_machine = MachineConfig::paper_4core();
        let campaign = Campaign::plan(&base_machine, &w, injections, seed ^ app as u64)?;
        let mut vals = Vec::new();
        for &kb in &sizes_kb {
            let mut mc = MachineConfig::paper_4core();
            mc.l2 = CacheGeometry::new(kb * 1024, 8);
            mc.l1 = CacheGeometry::new((kb * 1024 / 4).max(4096), 4);
            let found = runs_detected(&mc, &w, &campaign, &CordConfig::paper(), seed)?;
            vals.push(Some(found as f64));
        }
        rows.push((app.name().to_string(), vals));
    }
    Ok(FigureTable {
        title: "Extension: CORD detections vs L2 capacity (counts over injected runs)".into(),
        columns: sizes_kb.iter().map(|kb| format!("L2={kb}KB")).collect(),
        rows,
        unit: Unit::Count,
        note: "timestamp storage scales with the cache; larger caches keep more history".into(),
    }
    .with_average())
}

/// Sensitivity extension: CORD across thread counts (the scalar scheme's
/// state is thread-count independent, §2.4 — detection should not
/// collapse as threads grow toward the core count).
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn thread_sweep(seed: u64, injections: usize) -> Result<FigureTable, CordError> {
    let counts = [2usize, 4, 6, 8];
    let apps = [
        cord_workloads::AppKind::Cholesky,
        cord_workloads::AppKind::Ocean,
        cord_workloads::AppKind::Radix,
        cord_workloads::AppKind::Volrend,
    ];
    let machine = MachineConfig::paper_4core();
    let mut rows = Vec::new();
    for app in apps {
        let mut vals = Vec::new();
        for &threads in &counts {
            let w = kernel(app, ScaleClass::Tiny, threads, seed);
            let campaign = Campaign::plan(&machine, &w, injections, seed ^ app as u64)?;
            let found = runs_detected(&machine, &w, &campaign, &CordConfig::paper(), seed)?;
            vals.push(Some(found as f64));
        }
        rows.push((app.name().to_string(), vals));
    }
    Ok(FigureTable {
        title: "Extension: CORD detections vs thread count (counts over injected runs)".into(),
        columns: counts.iter().map(|c| format!("{c} thr")).collect(),
        rows,
        unit: Unit::Count,
        note: "scalar state is thread-count independent (§2.4); >4 threads time-multiplex".into(),
    }
    .with_average())
}

/// One measured point of the cores-scaling curve: one coherence backend
/// at one core count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Backend name (`"snooping"` or `"directory"`).
    pub backend: String,
    /// Core count (the sweep axis: 4/8/16/32).
    pub cores: usize,
    /// Mean clean-run execution cycles over the probe apps.
    pub mean_cycles: f64,
    /// Injected races found across the campaign.
    pub detections: u64,
    /// Injected runs executed.
    pub injected_runs: u64,
    /// Directory home-bank lookups (0 under snooping).
    pub directory_lookups: u64,
    /// Cycles requests waited for busy home banks (0 under snooping).
    pub directory_home_wait: u64,
    /// 16-bit comparisons audited through the hardware encoding.
    pub window16_audits: u64,
    /// Audited comparisons that disagreed with the wide reference.
    pub window16_mismatches: u64,
    /// 2^16 epoch boundaries crossed by committed clock updates.
    pub clock_rollovers: u64,
    /// Skew model: ordered clock pairs whose windowed D-sync test
    /// diverges from the unbounded reference at this core count.
    pub skew_divergent_pairs: u64,
    /// Skew model: fastest-to-slowest clock spread, in ticks.
    pub skew_spread: u64,
}

/// The cores-scaling characterization: every backend × core-count
/// combination, plus the skew model's window-16 divergence counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// Base seed of every run.
    pub seed: u64,
    /// Injected runs per app per point.
    pub injections: usize,
    /// The D window used by the detector and the skew model.
    pub d: u16,
    /// One point per backend × core count, snooping first.
    pub points: Vec<ScalingPoint>,
}

impl ScalingReport {
    /// The `BENCH_scaling.json` document.
    pub fn to_json(&self) -> cord_json::Json {
        use cord_json::{obj, Json, ToJson};
        let points: Vec<Json> = self
            .points
            .iter()
            .map(|p| {
                obj(vec![
                    ("backend", Json::Str(p.backend.clone())),
                    ("cores", (p.cores as u64).to_json()),
                    ("mean_cycles", p.mean_cycles.to_json()),
                    ("detections", p.detections.to_json()),
                    ("injected_runs", p.injected_runs.to_json()),
                    ("directory_lookups", p.directory_lookups.to_json()),
                    ("directory_home_wait", p.directory_home_wait.to_json()),
                    ("window16_audits", p.window16_audits.to_json()),
                    ("window16_mismatches", p.window16_mismatches.to_json()),
                    ("clock_rollovers", p.clock_rollovers.to_json()),
                    ("skew_divergent_pairs", p.skew_divergent_pairs.to_json()),
                    ("skew_spread", p.skew_spread.to_json()),
                ])
            })
            .collect();
        obj(vec![
            ("bench", Json::Str("cores_scaling".into())),
            ("seed", self.seed.to_json()),
            ("injections_per_app", (self.injections as u64).to_json()),
            ("d", u64::from(self.d).to_json()),
            ("points", Json::Array(points)),
        ])
    }

    /// Text rendering: one table row per metric × backend, one column
    /// per core count.
    pub fn table(&self) -> FigureTable {
        let cores: Vec<usize> = {
            let mut cs: Vec<usize> = self.points.iter().map(|p| p.cores).collect();
            cs.sort_unstable();
            cs.dedup();
            cs
        };
        let by = |backend: &str, f: &dyn Fn(&ScalingPoint) -> f64| -> Vec<Option<f64>> {
            cores
                .iter()
                .map(|&c| {
                    self.points
                        .iter()
                        .find(|p| p.backend == backend && p.cores == c)
                        .map(f)
                })
                .collect()
        };
        let mut rows = Vec::new();
        for b in ["snooping", "directory"] {
            rows.push((format!("{b} cyc"), by(b, &|p| p.mean_cycles)));
            rows.push((format!("{b} found"), by(b, &|p| p.detections as f64)));
        }
        rows.push((
            "dir wait".to_string(),
            by("directory", &|p| p.directory_home_wait as f64),
        ));
        rows.push((
            "w16 miss".to_string(),
            by("snooping", &|p| p.window16_mismatches as f64),
        ));
        rows.push((
            "skew div".to_string(),
            by("snooping", &|p| p.skew_divergent_pairs as f64),
        ));
        FigureTable {
            title: "Extension: cores scaling (4/8/16/32) per coherence backend".into(),
            columns: cores.iter().map(|c| format!("{c} cores")).collect(),
            rows,
            unit: Unit::Count,
            note: "window-16 divergences begin once clock spread passes WINDOW - D + 1".into(),
        }
    }
}

/// Skew model of a wide machine: thread `i` synchronizes once every
/// `i + 1` rounds, so after `rounds` rounds its clock is about
/// `rounds / (i + 1)`. Returns how many ordered pairs of those clocks
/// the windowed D-sync test gets wrong, and the fastest-to-slowest
/// spread. The divergent-pair count is 0 at 4 cores and grows once the
/// spread passes `WINDOW - d + 1` — the mis-synchronization onset the
/// scaling curve characterizes.
fn skew_divergence(cores: usize, rounds: u64, d: u16) -> (u64, u64) {
    use cord_clocks::window16::sync_audit_agrees;
    let clocks: Vec<u64> = (0..cores).map(|i| rounds / (i as u64 + 1)).collect();
    let mut divergent = 0u64;
    for &a in &clocks {
        for &b in &clocks {
            if a != b && !sync_audit_agrees(a, b, d) {
                divergent += 1;
            }
        }
    }
    let spread = clocks[0] - clocks[cores - 1];
    (divergent, spread)
}

/// The cores-scaling sweep: both coherence backends at 4/8/16/32 cores,
/// measuring execution cycles, detection parity under injection,
/// directory occupancy, and the 16-bit clock machinery's rollover and
/// mismatch counters as synchronization widens.
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn cores_scaling(seed: u64, injections: usize) -> Result<ScalingReport, CordError> {
    use cord_sim::config::CoherenceKind;

    const D: u16 = 16;
    const SKEW_ROUNDS: u64 = 40_000;
    let core_counts = [4usize, 8, 16, 32];
    let backends = [
        ("snooping", CoherenceKind::SnoopingBus),
        ("directory", CoherenceKind::Directory),
    ];
    let apps = [
        cord_workloads::AppKind::Fft,
        cord_workloads::AppKind::WaterN2,
    ];
    let mut points = Vec::new();
    for (name, kind) in backends {
        for &cores in &core_counts {
            let mc = MachineConfig::paper_4core()
                .with_cores(cores)
                .with_coherence(kind);
            let mut p = ScalingPoint {
                backend: name.to_string(),
                cores,
                mean_cycles: 0.0,
                detections: 0,
                injected_runs: 0,
                directory_lookups: 0,
                directory_home_wait: 0,
                window16_audits: 0,
                window16_mismatches: 0,
                clock_rollovers: 0,
                skew_divergent_pairs: 0,
                skew_spread: 0,
            };
            let mut cycles_sum = 0u64;
            for app in apps {
                // One thread per core: widening the machine widens the
                // workload with it.
                let w = kernel(app, ScaleClass::Tiny, cores, seed);
                let (stats, det) = run_cord(&mc, &w, CordConfig::paper(), seed)?;
                cycles_sum += stats.cycles;
                p.directory_lookups += stats.directory_lookups;
                p.directory_home_wait += stats.directory_home_wait;
                let cs = det.stats();
                p.window16_audits += cs.window16_audits;
                p.window16_mismatches += cs.window16_mismatches;
                p.clock_rollovers += cs.clock_rollovers;
                let campaign = Campaign::plan(&mc, &w, injections, seed ^ app as u64)?;
                p.injected_runs += campaign.len() as u64;
                p.detections += runs_detected(&mc, &w, &campaign, &CordConfig::paper(), seed)?;
            }
            p.mean_cycles = cycles_sum as f64 / apps.len() as f64;
            let (divergent, spread) = skew_divergence(cores, SKEW_ROUNDS, D);
            p.skew_divergent_pairs = divergent;
            p.skew_spread = spread;
            points.push(p);
        }
    }
    Ok(ScalingReport {
        seed,
        injections,
        d: D,
        points,
    })
}

/// The §2.5 directory extension: CORD overhead and detection parity
/// under directory coherence vs. the paper's snooping machine.
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn directory_extension(scale: ScaleClass, seed: u64) -> Result<FigureTable, CordError> {
    let snoop = MachineConfig::paper_4core();
    let dir = MachineConfig::paper_4core_directory();
    let mut rows = Vec::new();
    for app in all_apps() {
        let w = kernel(app, scale, 4, seed);
        let s = overhead(&snoop, &w, seed)?;
        let d = overhead(&dir, &w, seed)?;
        rows.push((app.name().to_string(), vec![Some(s), Some(d)]));
    }
    Ok(FigureTable {
        title: "Extension (§2.5): CORD overhead under snooping vs directory coherence".into(),
        columns: vec!["snooping".into(), "directory".into()],
        rows,
        unit: Unit::Ratio,
        note: "the mechanism is coherence-agnostic; only indirection latency differs".into(),
    }
    .with_average())
}

/// Replay-concurrency analysis (§2.7.1 future work): how many
/// logical-time waves each app's log contains and the idealized parallel
/// replay speedup.
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing run.
pub fn replay_concurrency(scale: ScaleClass, seed: u64) -> Result<FigureTable, CordError> {
    let machine = MachineConfig::paper_4core();
    let mut rows = Vec::new();
    for app in all_apps() {
        let w = kernel(app, scale, 4, seed);
        let (_, det) = run_cord(&machine, &w, CordConfig::paper(), seed)?;
        let p = replay_parallelism(det.recorder().entries());
        rows.push((app.name().to_string(), vec![Some(p.mean_width)]));
    }
    Ok(FigureTable {
        title: "Idealized parallel-replay speedup (mean segments per wave)".into(),
        columns: vec!["speedup".into()],
        rows,
        unit: Unit::Ratio,
        note: "§2.7.1: equal-clock segments are conflict-free and can replay concurrently".into(),
    }
    .with_average())
}

/// Lock-free workload family (post-paper sync vocabulary): per app,
/// the races CORD reports on the clean run (must be zero — the kernels
/// are race-free by construction) and the §3.4-style injection yield
/// on each coherence backend: how many removable-sync removals produce
/// a ground-truth race, and how many of those CORD itself reports.
/// Each run is one machine with CORD-D16 leading and an Ideal follower:
/// the follower's verdict on CORD's own interleaving is the ground
/// truth.
///
/// # Errors
///
/// Returns the [`CordError`] of the first failing clean run; injected
/// runs are allowed to abort (removals may deadlock) and are skipped.
pub fn lockfree_family(scale: ScaleClass, seed: u64) -> Result<FigureTable, CordError> {
    use cord_inject::count_instances;
    use cord_sim::config::{CoherenceKind, Watchdog};

    let group = [DetectorConfig::Cord { d: 16 }, DetectorConfig::Ideal];
    let backends = [CoherenceKind::SnoopingBus, CoherenceKind::Directory];
    let mut rows = Vec::new();
    for app in lockfree_apps() {
        let w = kernel(app, scale, 4, seed);
        let mut clean_races = 0u64;
        let mut cols: Vec<Option<f64>> = Vec::new();
        for backend in backends {
            let cfg = MachineConfig::paper_4core()
                .with_coherence(backend)
                .with_watchdog(Watchdog::new(200_000_000, 20_000_000));
            let run = |plan| run_group(&group, cfg.clone(), &w, seed, plan, None);
            clean_races += run(InjectionPlan::none())?[0].races;
            let counts = count_instances(&cfg, &w, seed)?;
            let mut truth_racy = 0u64;
            let mut caught = 0u64;
            for n in 0..counts.acquires {
                let Ok(found) = run(InjectionPlan::remove_nth(n)) else {
                    continue;
                };
                let (cord, ideal) = (found[0], found[1]);
                if ideal.found() {
                    truth_racy += 1;
                    caught += u64::from(cord.found());
                }
            }
            cols.push(Some(truth_racy as f64));
            cols.push(Some(caught as f64));
        }
        cols.insert(0, Some(clean_races as f64));
        rows.push((app.name().to_string(), cols));
    }
    Ok(FigureTable {
        title: "Lock-free family: clean-run reports and injection yield per backend".into(),
        columns: vec![
            "clean races".into(),
            "racy inj (snoop)".into(),
            "caught (snoop)".into(),
            "racy inj (dir)".into(),
            "caught (dir)".into(),
        ],
        rows,
        unit: Unit::Count,
        note: "clean races must be 0; every app must catch >=1 injected race per backend".into(),
    })
}

/// Non-completed runs of a sweep, per app and status — the injection
/// campaign's casualty report. Empty string when every run completed.
pub fn failure_summary(results: &SweepResults) -> String {
    let total_failed: usize = results.apps.iter().map(|a| a.non_completed().count()).sum();
    let dry_failures = results
        .apps
        .iter()
        .filter(|a| a.dry_run_error.is_some())
        .count();
    if total_failed == 0 && dry_failures == 0 {
        return String::new();
    }
    let mut out = String::from("== Non-completed injection runs ==\n");
    out.push_str(&format!(
        "{:12} {:>9} {:>10} {:>9} {:>9} {:>9}  detail\n",
        "app", "completed", "deadlocked", "timed-out", "panicked", "abandoned"
    ));
    for app in &results.apps {
        if let Some(err) = &app.dry_run_error {
            out.push_str(&format!("{:12} dry run failed: {err}\n", app.app));
            continue;
        }
        let failed = app.non_completed().count();
        if failed == 0 {
            continue;
        }
        let count = |kind: &str| {
            app.non_completed()
                .filter(|r| r.status.kind() == kind)
                .count()
        };
        let first = app
            .non_completed()
            .next()
            .map(|r| format!("{} -> {}", r.target, r.status.kind()))
            .unwrap_or_default();
        out.push_str(&format!(
            "{:12} {:>9} {:>10} {:>9} {:>9} {:>9}  e.g. {first}\n",
            app.app,
            app.completed().count(),
            count("deadlocked"),
            count("timed-out"),
            count("panicked"),
            count("abandoned"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ScaleClassOpt;

    fn tiny_sweep() -> SweepResults {
        default_sweep(&SweepOptions {
            injections_per_app: 3,
            scale: ScaleClassOpt::Tiny,
            threads: 4,
            seed: 5,
            ..SweepOptions::default()
        })
    }

    #[test]
    fn figures_render_and_average() {
        let s = tiny_sweep();
        for fig in [
            fig10(&s),
            fig12(&s),
            fig13(&s),
            fig14(&s),
            fig15(&s),
            fig16(&s),
            fig17(&s),
        ] {
            let text = fig.to_string();
            assert!(text.contains("Average"));
            assert_eq!(fig.rows.len(), 13); // 12 apps + average
        }
    }

    #[test]
    fn area_numbers_match_paper() {
        let t = area_table();
        let cord = t.rows[0].1[0].unwrap();
        let vc4 = t.rows[2].1[0].unwrap();
        assert!((cord - 0.19).abs() < 0.01);
        assert!((vc4 - 0.38).abs() < 0.01);
    }

    #[test]
    fn table1_lists_all_apps() {
        let t = table1(ScaleClass::Tiny);
        for app in all_apps() {
            assert!(t.contains(app.name()), "missing {}", app.name());
        }
    }

    #[test]
    fn replay_check_passes_everywhere() {
        let t = replay_check(ScaleClass::Tiny, 11, 2);
        for (app, vals) in &t.rows {
            assert_eq!(vals[0], Some(1.0), "{app} replay failed");
        }
    }

    #[test]
    fn logsize_is_positive_and_modest() {
        let t = logsize(ScaleClass::Tiny, 3).expect("clean runs complete");
        for (app, vals) in &t.rows {
            let bytes = vals[0].unwrap();
            assert!(bytes > 0.0, "{app} produced no log");
            assert!(
                bytes < 1024.0 * 1024.0,
                "{app} log exceeds 1MB at tiny scale"
            );
        }
    }

    #[test]
    fn overhead_is_small() {
        let t = fig11(ScaleClass::Tiny, &[2006]).expect("clean runs complete");
        // CORD must not slow the machine by more than a few percent
        // (paper: 0.4% average, 3% worst case). On kernels this small
        // scheduling noise (lock handoff order shifting under the extra
        // address-bus traffic) dominates, so the band is generous.
        for (app, vals) in &t.rows {
            let ratio = vals[0].expect("every app has a ratio");
            assert!(
                (0.85..1.15).contains(&ratio),
                "{app} overhead ratio {ratio}"
            );
        }
    }

    #[test]
    fn failure_summary_is_empty_for_clean_sweeps() {
        let s = tiny_sweep();
        assert!(failure_summary(&s).is_empty());
    }
}
