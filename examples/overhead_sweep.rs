//! Overhead sweep: Figure 11 in miniature — execution time with CORD
//! attached, relative to a machine with no recording or detection
//! support, across all twelve kernels.
//!
//! ```text
//! cargo run --release --example overhead_sweep
//! ```

use cord::prelude::*;
use cord::workloads::{all_apps, kernel, ScaleClass};

fn main() -> Result<(), CordError> {
    println!(
        "{:12} {:>10} {:>10} {:>9} {:>12} {:>10}",
        "app", "base cyc", "cord cyc", "overhead", "race checks", "log bytes"
    );
    let mut ratios = Vec::new();
    let machine = MachineConfig::paper_4core();
    for app in all_apps() {
        let workload = kernel(app, ScaleClass::Small, 4, 42);
        let plan = InjectionPlan::none();
        let (base, _) =
            Machine::new(machine.clone(), &workload, NullObserver, 42, plan).run_stats()?;
        let det = CordDetector::new(CordConfig::paper(), workload.num_threads(), machine.cores);
        let (cord, det) = Machine::new(machine.clone(), &workload, det, 42, plan).run_stats()?;
        let ratio = cord.cycles as f64 / base.cycles as f64;
        ratios.push(ratio);
        println!(
            "{:12} {:>10} {:>10} {:>8.2}% {:>12} {:>10}",
            app.name(),
            base.cycles,
            cord.cycles,
            (ratio - 1.0) * 100.0,
            det.stats().race_check_broadcasts,
            det.recorder().bytes(),
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "\naverage overhead: {:.2}% (paper: 0.4% average, 3% worst case)",
        (avg - 1.0) * 100.0
    );
    Ok(())
}
