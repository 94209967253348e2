//! Replay debugging: record a buggy run's order log, then replay it
//! deterministically — the paper's end-to-end debugging story (§3.3).
//!
//! ```text
//! cargo run --release --example replay_debug
//! ```

use cord::prelude::*;
use cord::workloads::{kernel, AppKind, ScaleClass};

fn main() -> Result<(), CordError> {
    let workload = kernel(AppKind::Radix, ScaleClass::Tiny, 4, 9);
    let machine = MachineConfig::paper_4core();
    let seed = 9;

    // Record a run with an injected synchronization bug.
    let plan = InjectionPlan::remove_nth(3);
    let det = CordDetector::new(CordConfig::paper(), workload.num_threads(), machine.cores);
    let (stats, det) = Machine::new(machine.clone(), &workload, det, seed, plan).run_stats()?;
    let log = det.recorder().entries();
    println!(
        "recorded {}: {} cycles, {} log entries ({} bytes), {} data races reported",
        workload.name(),
        stats.cycles,
        log.len(),
        det.recorder().bytes(),
        det.races().len()
    );

    // Peek at the first few log entries: (clock value, thread,
    // instructions executed at that clock) — the paper's 8-byte format.
    println!("\nfirst log entries:");
    for e in log.iter().take(8) {
        println!(
            "  clock={:<6} thread={} instructions={}",
            e.clock.ticks(),
            e.thread,
            e.instructions
        );
    }

    // Replay: re-execute the recorded access streams in log order and
    // verify every read observes the same write as in the recording.
    match record_and_verify(&machine, &workload, &CordConfig::paper(), seed, plan) {
        Ok(report) => println!(
            "\nreplay: {} segments scheduled by logical time, {} accesses, outcome identical",
            report.segments, report.accesses
        ),
        Err(e) => println!("\nreplay diverged: {e}"),
    }

    // The races CORD reported point at the bug's location.
    if let Some(r) = det.races().first() {
        println!(
            "\nfirst reported race: {} {:?} at address {} (clock {} vs timestamp {})",
            r.thread, r.kind, r.addr, r.my_clock, r.other_ts
        );
    }
    Ok(())
}
