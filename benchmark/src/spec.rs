//! The metrics and workloads this benchmark declares. `BENCHMARK.json`
//! at the repository root lists the same names, units and directions,
//! plus each end-to-end metric's regression bound; a unit test holds
//! the two together.

use crate::sims::{all_configs, slug};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["sweep-paper", "serve-replay"];

/// The layers a traced round's spans name: the crates whose public
/// functions the benchmark calls. `ledger.<layer>.self_pct` is each
/// one's self time as a share of the untraced round.
pub const LAYERS: [&str; 7] = [
    "workloads",
    "inject",
    "sim",
    "detectors",
    "wire",
    "serve",
    "sweep",
];

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// What every untraced run reports.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s", "lower"),
        spec("units_per_s", "1/s", "higher"),
        spec("unit_ms_p50", "ms", "lower"),
        spec("unit_ms_p90", "ms", "lower"),
        spec("peak_rss_mb", "MiB", "lower"),
        spec("cord_detect_vs_ideal", "%", "higher"),
        spec("cord_sim_time_pct", "%", "lower"),
    ]
}

/// What every traced run reports.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        spec("workloads.build_ms", "ms", "lower"),
        spec("inject.plan_ms_per_program", "ms", "lower"),
        spec("sim.ns_per_access", "ns", "lower"),
        spec("sim.accesses", "count", "lower"),
        spec("sim.cycles", "cycles", "lower"),
        spec("sim.l1_hit_pct", "%", "higher"),
        spec("sim.memory_fills", "count", "lower"),
        spec("sim.sibling_fills", "count", "lower"),
        spec("sim.upgrades", "count", "lower"),
        spec("sim.addr_bus_wait", "cycles", "lower"),
        spec("sim.data_bus_wait", "cycles", "lower"),
        spec("sim.cord_ts_bus_busy", "cycles", "lower"),
        spec("sim.cord_retirement_stall_cycles", "cycles", "lower"),
    ];
    for config in all_configs() {
        let s = slug(config);
        v.push(spec(format!("det.{s}.inline_ns_per_access"), "ns", "lower"));
        v.push(spec(format!("det.{s}.ingest_ns_per_event"), "ns", "lower"));
    }
    v.extend([
        spec("det.cord-d16.filter_hit_ratio", "ratio", "higher"),
        spec("det.cord-d16.memts_broadcasts", "count", "lower"),
        spec("det.cord-d16.walker_evictions", "count", "lower"),
        spec("wire.encode_ns_per_event", "ns", "lower"),
        spec("wire.decode_ns_per_event", "ns", "lower"),
        spec("wire.bytes_per_event", "B", "lower"),
        spec("serve.ingest_ns_p50", "ns", "lower"),
        spec("serve.ingest_ns_p99", "ns", "lower"),
        spec("serve.transport_ms_per_replay", "ms", "lower"),
        spec("pool.utilization", "ratio", "higher"),
        spec("pool.speedup_2v1", "ratio", "higher"),
        spec("sweep.run_ms_mean", "ms", "lower"),
        spec("sweep.run_ms_max", "ms", "lower"),
        spec("sweep.queue_wait_ms_mean", "ms", "lower"),
        spec("sweep.results_json_ms", "ms", "lower"),
        spec("fuzz.gen_us_per_case", "us", "lower"),
        spec("fuzz.oracle_us_per_case", "us", "lower"),
        spec("fuzz.accesses_per_case", "count", "lower"),
    ]);
    for layer in LAYERS {
        v.push(spec(format!("ledger.{layer}.self_pct"), "%", "lower"));
    }
    v.extend([
        spec("trace.overhead_pct", "%", "lower"),
        spec("trace.unattributed_pct", "%", "lower"),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use cord_json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit, better)` of each metric in one list of the file.
    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let text = |m: &Json, k: &str| {
            m.field(k)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        doc.field(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect()
    }

    fn tuples(specs: Vec<Spec>) -> Vec<(String, String, String)> {
        specs
            .into_iter()
            .map(|s| (s.name, s.unit.to_string(), s.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_workloads_emit() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(declared(&doc, "end_to_end"), tuples(end_to_end()));
        assert_eq!(declared(&doc, "per_layer"), tuples(per_layer()));
    }

    #[test]
    fn every_declared_name_is_valid() {
        let names = end_to_end().into_iter().chain(per_layer()).map(|s| s.name);
        for name in names.chain(WORKLOADS.map(String::from)) {
            assert!(valid_name(&name), "{name}");
        }
    }
}
