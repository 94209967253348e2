//! Quickstart: build a two-thread workload, attach CORD, and look at
//! what the hardware would have recorded and reported.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cord::prelude::*;

fn main() -> Result<(), CordError> {
    // A producer/consumer pair: thread 0 fills a buffer and sets a flag,
    // thread 1 waits for the flag and reads the buffer. Properly
    // synchronized — CORD should record the ordering and report nothing.
    let mut b = WorkloadBuilder::new("quickstart", 2);
    let ready = b.alloc_flag();
    let buffer = b.alloc_line_aligned(32);
    {
        let t0 = &mut b.thread_mut(0);
        for i in 0..32 {
            t0.write(buffer.word(i)).compute(20);
        }
        t0.flag_set(ready);
    }
    {
        let t1 = &mut b.thread_mut(1);
        t1.flag_wait(ready);
        for i in 0..32 {
            t1.read(buffer.word(i)).compute(10);
        }
    }
    let workload = b.build();
    workload.validate().expect("well-formed workload");

    // Run it on the paper's 4-core CMP with the paper's CORD (D = 16).
    let machine = MachineConfig::paper_4core();
    let det = CordDetector::new(CordConfig::paper(), workload.num_threads(), machine.cores);
    let (stats, det) =
        Machine::new(machine.clone(), &workload, det, 42, InjectionPlan::none()).run_stats()?;

    println!("workload          : {}", workload.name());
    println!("execution time    : {} cycles", stats.cycles);
    println!("memory accesses   : {}", stats.total_accesses());
    println!("data races found  : {}", det.races().len());
    println!(
        "order log         : {} entries, {} bytes",
        det.recorder().entries().len(),
        det.recorder().bytes()
    );
    println!(
        "clock updates     : {} (sync races ordered: {})",
        det.stats().clock_updates,
        det.stats().sync_races
    );

    assert!(
        det.races().is_empty(),
        "a synchronized program must be clean"
    );

    // The recorded order can be replayed deterministically.
    let report = record_and_verify(
        &machine,
        &workload,
        &CordConfig::paper(),
        42,
        InjectionPlan::none(),
    )?;
    println!(
        "replay            : {} segments, {} accesses — exact",
        report.segments, report.accesses
    );
    Ok(())
}
