//! Command-line harness regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p cord-bench --bin figures -- all
//! cargo run --release -p cord-bench --bin figures -- fig12 --injections 50
//! cargo run --release -p cord-bench --bin figures -- fig11 --scale paper
//! cargo run --release -p cord-bench --bin figures -- all --checkpoint sweep.ckpt.json
//! ```
//!
//! Subcommands: `table1`, `fig10`..`fig17`, `logsize`, `area`, `replay`,
//! `ablations`, `cachestats`, `replaypar`, `directory`, `recordonly`,
//! `lockfree`, `cachesweep`, `threadsweep`, `scaling`, `all`. Options:
//! `--injections N`, `--scale tiny|small|paper`, `--seed S`, `--jobs N`
//! (sweep worker threads; defaults to the host's available parallelism,
//! output is bit-identical for every value), `--cores N` (simulated
//! core count for sweep subcommands; default 4), `--backend
//! snooping|directory` (coherence backend for sweep subcommands;
//! default snooping), `--json PATH` (dump the raw sweep results — or,
//! for `scaling`, the `BENCH_scaling.json` document), `--checkpoint
//! PATH` (persist partial sweep results after every app and resume
//! from them on restart), `--trace-dir DIR` (write per-run event
//! traces as JSON, one file per app/run/config cell), `--metrics-out
//! PATH` (write the sweep's aggregate metrics and wall-clock profile
//! as JSON). See EXPERIMENTS.md for the trace and metrics schemas.

use cord_bench::figures;
use cord_bench::runner::SweepRunner;
use cord_bench::sweep::{CoherenceOpt, ScaleClassOpt, SweepOptions, SweepResults};
use cord_bench::DetectorConfig;
use cord_json::ToJson;
use cord_pool::Pool;
use cord_workloads::ScaleClass;
use std::error::Error;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Args {
    command: String,
    injections: usize,
    scale: ScaleClassOpt,
    seed: u64,
    jobs: usize,
    cores: usize,
    backend: CoherenceOpt,
    json: Option<String>,
    checkpoint: Option<String>,
    trace_dir: Option<String>,
    metrics_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "all".to_string(),
        injections: 24,
        scale: ScaleClassOpt::Small,
        seed: 2006,
        jobs: Pool::available_parallelism(),
        cores: 4,
        backend: CoherenceOpt::Snooping,
        json: None,
        checkpoint: None,
        trace_dir: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    let mut first = true;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--injections" => {
                args.injections = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--injections needs a number")?;
            }
            "--scale" => {
                args.scale = match it.next().as_deref() {
                    Some("tiny") => ScaleClassOpt::Tiny,
                    Some("small") => ScaleClassOpt::Small,
                    Some("paper") => ScaleClassOpt::Paper,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--jobs needs a number")?;
            }
            "--cores" => {
                args.cores = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cores needs a number")?;
            }
            "--backend" => {
                let name = it.next().ok_or("--backend needs snooping|directory")?;
                args.backend = CoherenceOpt::from_name(&name)
                    .ok_or_else(|| format!("unknown backend {name:?}"))?;
            }
            "--json" => {
                args.json = Some(it.next().ok_or("--json needs a path")?);
            }
            "--checkpoint" => {
                args.checkpoint = Some(it.next().ok_or("--checkpoint needs a path")?);
            }
            "--trace-dir" => {
                args.trace_dir = Some(it.next().ok_or("--trace-dir needs a directory")?);
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?);
            }
            cmd if first => {
                args.command = cmd.to_string();
            }
            other => return Err(format!("unknown argument {other}")),
        }
        first = false;
    }
    Ok(args)
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = parse_args()?;
    let opts = SweepOptions {
        injections_per_app: args.injections,
        scale: args.scale,
        threads: 4,
        seed: args.seed,
        cores: args.cores,
        backend: args.backend,
        ..SweepOptions::default()
    };
    let needs_sweep = matches!(
        args.command.as_str(),
        "fig10" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17" | "all"
    );
    let sweep: Option<SweepResults> = if needs_sweep {
        eprintln!(
            "running injection sweep: {} injections/app at {:?} scale on {} worker(s)...",
            opts.injections_per_app, opts.scale, args.jobs
        );
        let t0 = Instant::now();
        let configs = DetectorConfig::all_for_sweep();
        // Throttled stderr progress line (at most ~3/s).
        let last_print: Mutex<Option<Instant>> = Mutex::new(None);
        let mut runner = SweepRunner::new(opts).jobs(args.jobs).progress(move |p| {
            let mut last = match last_print.lock() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            let due = last.is_none_or(|t| t.elapsed() >= Duration::from_millis(300));
            if !(due || p.jobs_done == p.jobs_total) {
                return;
            }
            *last = Some(Instant::now());
            let eta = match p.eta {
                Some(d) => format!("{:.1}s", d.as_secs_f64()),
                None => "?".to_string(),
            };
            eprintln!(
                "  [{}] {}/{} jobs, {}/{} apps, {} failed, {:.0}% util, eta {}",
                p.phase,
                p.jobs_done,
                p.jobs_total,
                p.apps_done,
                p.apps_total,
                p.jobs_failed,
                100.0 * p.utilization,
                eta
            );
        });
        if let Some(path) = &args.checkpoint {
            runner = runner.checkpoint(path);
        }
        if let Some(dir) = &args.trace_dir {
            runner = runner.trace_dir(dir);
        }
        if let Some(path) = &args.metrics_out {
            runner = runner.metrics_out(path);
        }
        let s = runner.run(&configs)?;
        eprintln!("sweep done in {:.1}s", t0.elapsed().as_secs_f64());
        if let Some(dir) = &args.trace_dir {
            eprintln!("per-run event traces written to {dir}/");
        }
        if let Some(path) = &args.metrics_out {
            eprintln!("aggregate metrics written to {path}");
        }
        let failures = figures::failure_summary(&s);
        if !failures.is_empty() {
            eprint!("{failures}");
        }
        if let Some(path) = &args.json {
            std::fs::write(path, s.to_json().to_string_pretty())?;
            eprintln!("raw sweep results written to {path}");
        }
        Some(s)
    } else {
        None
    };

    let scale: ScaleClass = args.scale.into();
    let cmd = args.command.as_str();
    if cmd == "table1" || cmd == "all" {
        println!("{}", figures::table1(scale));
    }
    if let Some(s) = &sweep {
        if cmd == "fig10" || cmd == "all" {
            println!("{}", figures::fig10(s));
        }
    }
    if cmd == "fig11" || cmd == "all" {
        println!(
            "{}",
            figures::fig11(scale, &[args.seed, args.seed + 1, args.seed + 2])?
        );
    }
    if let Some(s) = &sweep {
        for (name, f) in [
            (
                "fig12",
                figures::fig12 as fn(&SweepResults) -> figures::FigureTable,
            ),
            ("fig13", figures::fig13),
            ("fig14", figures::fig14),
            ("fig15", figures::fig15),
            ("fig16", figures::fig16),
            ("fig17", figures::fig17),
        ] {
            if cmd == name || cmd == "all" {
                println!("{}", f(s));
            }
        }
        let failures = figures::failure_summary(s);
        if !failures.is_empty() {
            println!("{failures}");
        }
    }
    if cmd == "logsize" || cmd == "all" {
        println!("{}", figures::logsize(scale, args.seed)?);
    }
    if cmd == "area" || cmd == "all" {
        println!("{}", figures::area_table());
    }
    if cmd == "replay" || cmd == "all" {
        println!("{}", figures::replay_check(scale, args.seed, 2));
    }
    if cmd == "ablations" || cmd == "all" {
        println!(
            "{}",
            figures::ablations(scale, args.seed, args.injections.min(10))?
        );
    }
    if cmd == "cachestats" || cmd == "all" {
        println!("{}", figures::cache_stats(scale, args.seed)?);
    }
    if cmd == "replaypar" || cmd == "all" {
        println!("{}", figures::replay_concurrency(scale, args.seed)?);
    }
    if cmd == "directory" || cmd == "all" {
        println!("{}", figures::directory_extension(scale, args.seed)?);
    }
    if cmd == "recordonly" || cmd == "all" {
        println!("{}", figures::record_only_cost(scale, args.seed)?);
    }
    if cmd == "lockfree" || cmd == "all" {
        println!("{}", figures::lockfree_family(scale, args.seed)?);
    }
    if cmd == "cachesweep" {
        println!(
            "{}",
            figures::cache_size_sweep(args.seed, args.injections.min(16))?
        );
    }
    if cmd == "threadsweep" {
        println!(
            "{}",
            figures::thread_sweep(args.seed, args.injections.min(16))?
        );
    }
    if cmd == "scaling" {
        let report = figures::cores_scaling(args.seed, args.injections.min(4))?;
        println!("{}", report.table());
        if let Some(path) = &args.json {
            std::fs::write(path, report.to_json().to_string_pretty())?;
            eprintln!("scaling curve written to {path}");
        }
    }
    Ok(())
}
