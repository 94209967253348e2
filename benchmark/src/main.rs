//! The host benchmark of the CORD reproduction: what it costs to run
//! the pipeline the paper's evaluation depends on — simulate, detect,
//! encode, ingest — end to end, and how that cost divides among the
//! crates.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out PATH] [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) runs one warm-up round on the
//! reference inputs (seed 2006), then for `--seconds` sets the workload
//! up from the seed and runs a timed round on each set-up, and prints
//! every end-to-end metric. A traced run
//! (`--trace 1`) alternates untraced rounds with rounds run as spans
//! around each call into a crate, then runs the layer probe; it prints
//! every per-layer metric and writes the spans and the layer ledger to
//! `--trace-out`. Either way the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and
//! the exit code is non-zero when any output check failed.

mod bench;
mod layers;
mod serve;
mod sims;
mod spec;
mod stats;
mod sweep;
mod trace;

use bench::{Bench, Round};
use cord_json::{obj, Json, ToJson};
use sims::REFERENCE_SEED;
use spec::{Spec, WORKLOADS};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out PATH] [--smoke]";

/// Spans of the round a ledger file holds at most, the first in id
/// order; the ledger's numbers cover them all.
const SPANS_WRITTEN: usize = 1500;

/// The reference round's results digest per workload, recorded at seed
/// 2006. Keys are workload names, with `/smoke` for the reduced sizes.
const DIGESTS: &str = include_str!("../digests.json");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: REFERENCE_SEED,
        seconds: 50.0,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The host every result depends on; every output records it.
struct Host {
    nproc: usize,
    parallelism: usize,
    cpu: String,
}

impl Host {
    fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            nproc: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count(),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string()),
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("nproc", self.nproc.to_json()),
            ("available_parallelism", self.parallelism.to_json()),
            ("cpu", self.cpu.to_json()),
        ])
    }
}

/// Caps glibc's malloc arenas at two, one per worker thread a workload
/// keeps busy. By default every new thread may get an arena of its own,
/// and `serve-replay`'s daemon starts two threads per replay: the freed
/// memory those arenas kept made the peak resident set grow from round
/// to round (70 to 93 MiB over five rounds), so that it measured how
/// long the run had lasted rather than what a round holds live.
fn limit_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        const M_ARENA_MAX: std::ffi::c_int = -8;
        // SAFETY: glibc's `mallopt` takes no pointers; it is called
        // before this process starts any other thread.
        unsafe {
            mallopt(M_ARENA_MAX, 2);
        }
    }
}

/// Resets the process's peak resident set to its current one, so that
/// the next [`peak_rss_mb`] reads the peak since this call. Free heap
/// memory goes back to the system first: otherwise the reading depends
/// on how much an earlier round or set-up left cached in the allocator.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time; it only returns free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// One reported metric with the sample it summarises.
struct Metric {
    name: String,
    value: f64,
    n: usize,
    quartiles: Option<(f64, f64)>,
    note: &'static str,
}

impl Metric {
    fn one(name: &str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            n,
            quartiles: None,
            note: "",
        }
    }

    fn median_of(name: &str, values: &[f64]) -> Metric {
        match Summary::of(values) {
            Some(s) => Metric {
                quartiles: Some((s.q1, s.q3)),
                ..Metric::one(name, s.median, s.n)
            },
            None => Metric::one(name, f64::NAN, 0),
        }
    }
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn count(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
    }

    fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Checks that the run reported exactly the declared metrics, each
    /// a finite number.
    fn check_declared(&mut self, declared: &[Spec]) {
        let mut emitted: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        let mut want: Vec<&str> = declared.iter().map(|s| s.name.as_str()).collect();
        emitted.sort_unstable();
        want.sort_unstable();
        let mut problems: Vec<String> = Vec::new();
        if emitted != want {
            problems.push(format!(
                "emitted metrics {emitted:?} differ from the declared {want:?}"
            ));
        }
        for m in &self.metrics {
            if !stats::valid_name(&m.name) {
                problems.push(format!("`{}` is not a valid metric name", m.name));
            }
            if !m.value.is_finite() {
                problems.push(format!("{} is not a finite number", m.name));
            }
        }
        self.errors.extend(problems);
    }

    fn print(&self, declared: &[Spec]) {
        let unit = |name: &str| {
            declared
                .iter()
                .find(|s| s.name == name)
                .map_or("?", |s| s.unit)
        };
        println!(
            "{:<36} {:>7} {:>7} {:>16} {:>16} {:>16}",
            "metric", "unit", "n", "value", "q1", "q3"
        );
        for m in &self.metrics {
            let (q1, q3) = m
                .quartiles
                .map_or((String::new(), String::new()), |(a, b)| {
                    (format!("{a:.6}"), format!("{b:.6}"))
                });
            println!(
                "{:<36} {:>7} {:>7} {:>16.6} {:>16} {:>16} {}",
                m.name,
                unit(&m.name),
                m.n,
                m.value,
                q1,
                q3,
                m.note
            );
        }
        for e in &self.errors {
            println!("check failed: {e}");
        }
        let metrics = Json::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let v = obj(vec![
                        ("value", m.value.to_json()),
                        ("unit", unit(&m.name).to_json()),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        );
        let last = obj(vec![
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", metrics),
        ]);
        println!("{}", last.to_string_compact());
    }
}

fn recorded_digest(key: &str) -> Option<u64> {
    let doc = Json::parse(DIGESTS).ok()?;
    let hex = doc.get(key)?.as_str().ok()?;
    u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()
}

/// Checks the digest of a round on the reference inputs against the
/// recorded one; a mismatch counts as a failed unit.
fn check_reference_digest(args: &Args, digest: u64, r: &mut Report) {
    let key = format!(
        "{}{}",
        args.workload,
        if args.smoke { "/smoke" } else { "" }
    );
    match recorded_digest(&key) {
        Some(d) if d == digest => {}
        recorded => {
            r.failed += 1;
            r.error(format!(
                "reference digest {digest:#018x} of `{key}` does not match the recorded {}",
                recorded.map_or("(none)".to_string(), |d| format!("{d:#018x}"))
            ));
        }
    }
}

/// The untraced run: end-to-end metrics.
fn untraced<B: Bench>(b: &B, args: &Args, r: &mut Report) -> Result<(), String> {
    // The warm-up round runs on the reference inputs, before anything
    // else is live: its digest is checked against the recorded one on
    // every run, and the simulated metrics and peak memory come from
    // it, so they compare exactly across commits whatever seed the
    // timed rounds use.
    let reference = b
        .setup(REFERENCE_SEED)
        .map_err(|e| format!("reference set-up: {e}"))?;
    reset_peak_rss();
    let warm = b.round(&reference);
    let rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    r.count(&warm);
    check_reference_digest(args, warm.digest, r);
    let sim_time = b.sim_time_pct(&reference)?;
    drop(reference);

    // Every round runs on a set-up of its own, so that the set-ups are
    // spread over the whole run like the rounds and `setup_s` is their
    // median over the same stretch of the host's time.
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.is_empty() || (!args.smoke && start.elapsed().as_secs_f64() < args.seconds) {
        let t = Instant::now();
        let input = b.setup(args.seed).map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let round = b.round(&input);
        r.count(&round);
        if round.digest != rounds.first().unwrap_or(&round).digest {
            r.failed += 1;
            r.error(format!(
                "round {} digest differs from round 0",
                rounds.len()
            ));
        }
        rounds.push(round);
    }
    let (caught, found) = warm.detected;
    if found == 0 {
        return Err("no injected problem manifested on the reference inputs".into());
    }
    r.metrics = end_to_end_metrics(&setup_s, &rounds, rss_mb, (caught, found), sim_time);
    println!(
        "{} set-ups and timed rounds in {:.1} s; reference digest {:#018x}",
        rounds.len(),
        start.elapsed().as_secs_f64(),
        warm.digest
    );
    let per_round: Vec<String> = rounds
        .iter()
        .map(|x| format!("{:.4}", x.attempted as f64 / x.wall_s))
        .collect();
    println!("units per second by round: {}", per_round.join(" "));
    Ok(())
}

/// The end-to-end metrics: the median set-up; the units completed per
/// second and the median and a percentile of the unit times; and the
/// peak memory and simulated results of the reference round.
///
/// Every round runs the same units in the same order, so each unit is
/// timed once per round, and a unit's time is its fastest over the
/// rounds. The host these runs share with other machines slows whole
/// stretches of seconds by up to 1.9 times; a unit's fastest time is
/// what the program costs when nothing else slows it, and is the one
/// that compares across runs minutes apart (over ten `sweep-paper` runs
/// it spread half as much as the mean or median over all rounds, and no
/// more on `serve-replay`). A round's time is
/// its units' fastest times plus the fastest of the rounds' time
/// outside the units (a sweep's campaign planning and results), and
/// `units_per_s` is the units of a round over that time.
fn end_to_end_metrics(
    setup_s: &[f64],
    rounds: &[Round],
    rss_mb: f64,
    (caught, found): (u64, u64),
    sim_time_pct: f64,
) -> Vec<Metric> {
    let per_round: Vec<&[f64]> = rounds.iter().map(|x| x.unit_ms.as_slice()).collect();
    let unit_ms = stats::fastest_per_position(&per_round);
    let outside_ms = rounds
        .iter()
        .map(|x| x.wall_s * 1e3 - x.unit_ms.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    let round_s = (outside_ms + unit_ms.iter().sum::<f64>()) / 1e3;
    let units = rounds.first().map_or(0, |x| x.attempted);
    vec![
        Metric::median_of("setup_s", setup_s),
        Metric::one(
            "units_per_s",
            units as f64 / round_s,
            rounds.len() * units as usize,
        ),
        Metric::median_of("unit_ms_p50", &unit_ms),
        match stats::percentile(&unit_ms, 90.0) {
            Some(p90) => Metric::one("unit_ms_p90", p90, unit_ms.len()),
            None => Metric {
                note: "(the maximum: too few samples for a p90)",
                ..Metric::one(
                    "unit_ms_p90",
                    unit_ms.iter().copied().fold(f64::NAN, f64::max),
                    unit_ms.len(),
                )
            },
        },
        Metric::one("peak_rss_mb", rss_mb, 1),
        Metric::one(
            "cord_detect_vs_ideal",
            100.0 * caught as f64 / found as f64,
            found as usize,
        ),
        Metric::one("cord_sim_time_pct", sim_time_pct, 1),
    ]
}

/// The ledger's own metrics: each declared layer's self time and the
/// unattributed rest as shares of the traced round, and the tracing
/// overhead, the traced round's time relative to the untraced round run
/// just before it. The shares are of the round the spans were recorded
/// in: on a shared host two rounds of the same work, even back to back,
/// can differ by a fifth, which measured against the untraced round
/// would read as time no layer accounts for.
fn ledger_metrics(
    self_ns: &BTreeMap<&str, i64>,
    untraced_s: f64,
    traced_s: f64,
) -> BTreeMap<String, f64> {
    let pct = |s: f64| 100.0 * s / traced_s;
    let mut m: BTreeMap<String, f64> = spec::LAYERS
        .iter()
        .map(|layer| {
            let s = self_ns.get(layer).map_or(0.0, |&ns| ns as f64 / 1e9);
            (format!("ledger.{layer}.self_pct"), pct(s))
        })
        .collect();
    let attributed_s = self_ns.values().sum::<i64>() as f64 / 1e9;
    m.insert(
        "trace.unattributed_pct".into(),
        pct(traced_s - attributed_s),
    );
    m.insert(
        "trace.overhead_pct".into(),
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    m
}

/// An untraced round and the traced round run right after it.
struct LedgerPair {
    ledger: BTreeMap<String, f64>,
    untraced_s: f64,
    traced_s: f64,
    self_ns: BTreeMap<&'static str, i64>,
    tracer: Tracer,
    root: usize,
}

/// The traced run: the layer ledger and the per-layer metrics.
fn traced<B: Bench>(b: &B, args: &Args, host: &Host, r: &mut Report) -> Result<(), String> {
    let input = b.setup(args.seed).map_err(|e| format!("set-up: {e}"))?;
    let warm = b.round(&input);
    r.count(&warm);
    if args.seed == REFERENCE_SEED {
        check_reference_digest(args, warm.digest, r);
    }
    // Each pair runs an untraced and a traced round back to back, so
    // that both see as nearly the same host as they can, and pairs run
    // for `--seconds`. The ledger is the pair whose traced round took the
    // median time.
    let mut pairs = Vec::new();
    let start = Instant::now();
    while pairs.is_empty() || (!args.smoke && start.elapsed().as_secs_f64() < args.seconds) {
        let serial = b.round(&input);
        let mut tracer = Tracer::new();
        let (traced, root) = b.traced_round(&input, &mut tracer);
        for round in [&serial, &traced] {
            r.count(round);
            if round.digest != warm.digest {
                r.error(format!(
                    "tracing changed the results: digest {:#018x}, untraced {:#018x}",
                    round.digest, warm.digest
                ));
            }
        }
        let self_ns = tracer.layer_self_ns(root);
        pairs.push(LedgerPair {
            ledger: ledger_metrics(&self_ns, serial.wall_s, traced.wall_s),
            untraced_s: serial.wall_s,
            traced_s: traced.wall_s,
            self_ns,
            tracer,
            root,
        });
    }
    pairs.sort_by(|a, b| a.traced_s.total_cmp(&b.traced_s));
    let LedgerPair {
        ledger,
        untraced_s,
        traced_s,
        self_ns,
        mut tracer,
        root,
    } = pairs.swap_remove(pairs.len() / 2);

    let mut layers: Vec<(&str, f64)> = self_ns
        .iter()
        .map(|(l, ns)| (*l, *ns as f64 / 1e9))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));

    let probe = layers::probe(&b.probe_set(&input), &mut tracer);
    r.attempted += probe.attempted;
    r.failed += probe.errors.len() as u64;
    r.errors.extend(probe.errors);
    let mut metrics = probe.metrics;
    for (layer, _) in &layers {
        if !spec::LAYERS.contains(layer) {
            r.error(format!(
                "the round recorded spans of undeclared layer `{layer}`"
            ));
        }
    }
    let unattributed_s = ledger["trace.unattributed_pct"] / 100.0 * traced_s;
    metrics.extend(ledger);
    r.metrics
        .extend(metrics.iter().map(|(name, &v)| Metric::one(name, v, 1)));

    println!(
        "ledger pair: {untraced_s:.3} s untraced, {traced_s:.3} s traced; \
         layer self time:"
    );
    for (layer, s) in &layers {
        println!(
            "  {layer:<10} {:>10.3} ms {:>6.1}%",
            s * 1e3,
            100.0 * s / traced_s
        );
    }
    println!(
        "  {:<10} {:>10.3} ms {:>6.1}%",
        "(unattributed)",
        unattributed_s * 1e3,
        100.0 * unattributed_s / traced_s
    );

    let spans = tracer.round_spans(root);
    let summary = obj(vec![
        ("workload", args.workload.to_json()),
        ("seed", args.seed.to_json()),
        ("host", host.to_json()),
        ("untraced_round_s", untraced_s.to_json()),
        ("traced_round_s", traced_s.to_json()),
        (
            "dominant_layer",
            layers.first().map_or("", |l| l.0).to_json(),
        ),
        (
            "layers",
            Json::Array(
                layers
                    .iter()
                    .map(|(l, s)| {
                        obj(vec![
                            ("layer", l.to_json()),
                            ("self_ms", (s * 1e3).to_json()),
                            ("pct_of_traced", (100.0 * s / traced_s).to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("unattributed_ms", (unattributed_s * 1e3).to_json()),
        (
            "metrics",
            Json::Object(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        ),
        ("probe_calls", tracer.other_calls_json(root)),
        (
            "span_columns",
            Json::Array(trace::SPAN_COLUMNS.iter().map(|c| c.to_json()).collect()),
        ),
        ("spans_total", spans.len().to_json()),
        ("spans_written", spans.len().min(SPANS_WRITTEN).to_json()),
    ]);
    let path = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_build/benchmark")
            .join(format!("{}-seed{}.layers.json", args.workload, args.seed))
    });
    write_ledger(&path, &summary, &spans[..spans.len().min(SPANS_WRITTEN)])?;
    println!("spans and ledger written to {}", path.display());
    Ok(())
}

/// Writes the ledger summary pretty-printed, then the round's spans
/// under `"spans"`, one compact row per line.
fn write_ledger(path: &Path, summary: &Json, spans: &[Json]) -> Result<(), String> {
    let pretty = summary.to_string_pretty();
    let head = pretty
        .trim_end()
        .strip_suffix('}')
        .unwrap_or(&pretty)
        .trim_end();
    let rows: Vec<String> = spans.iter().map(Json::to_string_compact).collect();
    let text = format!(
        "{head},\n  \"spans\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn drive<B: Bench>(b: &B, args: &Args, host: &Host) -> Report {
    let mut r = Report::default();
    let outcome = if args.trace {
        traced(b, args, host, &mut r)
    } else {
        untraced(b, args, &mut r)
    };
    if let Err(e) = outcome {
        r.failed += 1;
        r.error(e);
    }
    r
}

fn main() -> ExitCode {
    limit_malloc_arenas();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "benchmark {} seed {}{}{}: nproc {}, available_parallelism {}, cpu {}",
        args.workload,
        args.seed,
        if args.trace { ", traced" } else { "" },
        if args.smoke { ", smoke" } else { "" },
        host.nproc,
        host.parallelism,
        host.cpu
    );
    let mut report = match args.workload.as_str() {
        "sweep-paper" => drive(&sweep::SweepBench::new(), &args, &host),
        "serve-replay" => drive(&serve::ServeBench::new(args.smoke), &args, &host),
        other => unreachable!("parse_args accepts only {WORKLOADS:?}, not `{other}`"),
    };
    let _ = std::fs::remove_dir_all(sims::run_dir());
    let declared = if args.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    if report.errors.is_empty() {
        report.check_declared(&declared);
    }
    report.print(&declared);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(names: impl IntoIterator<Item = String>) -> Vec<String> {
        let mut v: Vec<String> = names.into_iter().collect();
        v.sort();
        v
    }

    #[test]
    fn every_declared_metric_and_workload_is_emitted() {
        let round = Round {
            attempted: 4,
            wall_s: 1.0,
            unit_ms: vec![1.0; 200],
            ..Round::default()
        };
        let e2e = end_to_end_metrics(&[0.1], &[round], 10.0, (1, 2), 100.0);
        assert_eq!(
            sorted(e2e.into_iter().map(|m| m.name)),
            sorted(spec::end_to_end().into_iter().map(|s| s.name))
        );

        let mut layer = layers::metric_names();
        layer.extend(ledger_metrics(&BTreeMap::new(), 1.0, 1.0).into_keys());
        assert_eq!(
            sorted(layer),
            sorted(spec::per_layer().into_iter().map(|s| s.name))
        );

        for w in WORKLOADS {
            let argv = ["--workload", w].map(String::from);
            assert_eq!(parse_args(&argv).map(|a| a.workload), Ok(w.to_string()));
        }
    }
}
