//! The metric tables: every name, unit and direction the benchmark reports.
//! `BENCHMARK.json` lists exactly these (a unit test compares the two), and
//! the result line is built from them, so a metric cannot be printed under a
//! name or unit the contract does not know.

/// An end-to-end metric: something a user of the simulator sees.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer; the layer is the part of the name before the dot
/// and is always a crate name. Per-layer metrics carry no bound.
pub struct PerLayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Bounds are sized from the spread (interquartile distance over the median)
/// of ten `--seed`s per workload, measured three times: `churn48` seals
/// 280–410 blocks depending on the seed, which alone moves its host time by
/// ±6 % and its resident set by ±5 %, and the shared sizing box adds as much
/// again on a bad hour. See the README's noise band.
pub const END_TO_END: [EndToEndDef; 5] = [
    e("run_s", "s", "lower", 0.25),
    e("setup_s", "s", "lower", 0.25),
    e("peer_rounds_per_s", "1/s", "higher", 0.25),
    e("peak_rss_mb", "MB", "lower", 0.2),
    e("traffic_mb", "MB", "lower", 0.1),
];

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayerDef {
    PerLayerDef { name, unit, better }
}

pub const PER_LAYER: [PerLayerDef; 59] = [
    // Simulated-time outputs of the orchestrator: the paper's precision and
    // speed columns. Exact per seed, so they are compared at equal seeds only
    // (see README) and carry no cross-seed bound.
    m("core.final_accuracy", "fraction", "higher"),
    m("core.sim_wait_s", "sim_s", "lower"),
    m("core.sim_makespan_s", "sim_s", "lower"),
    m("data.synth_ms", "ms", "lower"),
    m("data.partition_ms", "ms", "lower"),
    m("scenario.lower_us", "us", "lower"),
    m("tensor.matmul_gflops", "GFLOP/s", "higher"),
    m("nn.train_ms", "ms", "lower"),
    m("nn.train_calls", "count", "lower"),
    m("nn.eval_us", "us", "lower"),
    m("nn.eval_calls", "count", "lower"),
    m("nn.params_copy_us", "us", "lower"),
    m("nn.est_share", "fraction", "lower"),
    m("fl.aggregate_ms", "ms", "lower"),
    m("fl.aggregate_calls", "count", "lower"),
    m("fl.candidates_per_call", "count", "lower"),
    m("fl.fedavg_us", "us", "lower"),
    m("fl.est_share", "fraction", "lower"),
    m("crypto.sha256_mb_s", "MB/s", "higher"),
    m("crypto.keygen_us", "us", "lower"),
    m("crypto.sign_us", "us", "lower"),
    m("crypto.verify_us", "us", "lower"),
    m("crypto.est_share", "fraction", "lower"),
    m("core.fingerprint_us", "us", "lower"),
    m("core.fingerprint_calls", "count", "lower"),
    m("core.submit_tx_us", "us", "lower"),
    m("core.confirmed_scan_us", "us", "lower"),
    m("core.audit_ms", "ms", "lower"),
    m("core.audit_calls", "count", "lower"),
    m("core.est_share", "fraction", "lower"),
    m("core.unattributed_share", "fraction", "lower"),
    m("chain.mempool_insert_cold_us", "us", "lower"),
    m("chain.mempool_insert_warm_us", "us", "lower"),
    m("chain.sig_misses", "count", "lower"),
    m("chain.sig_hits", "count", "higher"),
    m("chain.import_cold_us", "us", "lower"),
    m("chain.import_warm_us", "us", "lower"),
    m("chain.exec_misses", "count", "lower"),
    m("chain.exec_hits", "count", "higher"),
    m("chain.build_candidate_us", "us", "lower"),
    m("chain.blocks_sealed", "count", "lower"),
    m("chain.est_share", "fraction", "lower"),
    m("vm.registry_submit_us", "us", "lower"),
    m("vm.record_aggregate_us", "us", "lower"),
    m("net.flood_us", "us", "lower"),
    m("net.flood_calls", "count", "lower"),
    m("net.epidemic_us", "us", "lower"),
    m("net.dropped_share", "fraction", "lower"),
    m("net.fetch_retries", "count", "lower"),
    m("net.est_share", "fraction", "lower"),
    m("sim.event_ns", "ns", "lower"),
    m("telemetry.records", "count", "lower"),
    m("telemetry.overhead_share", "fraction", "lower"),
    m("telemetry.export_ms", "ms", "lower"),
    m("compute.threads", "count", "higher"),
    m("compute.par_map_dispatch_us", "us", "lower"),
    m("core.run_s", "s", "lower"),
    m("core.run_traced_s", "s", "lower"),
    m("core.peer_rounds", "count", "higher"),
];

/// The crates a per-layer metric may be attributed to.
#[cfg(test)]
pub const LAYERS: [&str; 13] = [
    "data",
    "scenario",
    "tensor",
    "nn",
    "fl",
    "crypto",
    "core",
    "chain",
    "vm",
    "net",
    "sim",
    "telemetry",
    "compute",
];

/// A valid name per the contract: starts with a letter or digit, then at most
/// 63 more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A valid unit per the contract: 1–16 of letters, digits, `_ / % . -`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|d| (d.name, d.unit, d.better))
            .chain(PER_LAYER.iter().map(|d| (d.name, d.unit, d.better)));
        for (name, unit, better) in names {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(matches!(better, "lower" | "higher"), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} listed twice", w.name);
        }
        assert!(!valid_name(".x") && !valid_name("") && !valid_name("a b"));
        assert!(!valid_unit("") && !valid_unit("sim seconds"));
    }

    #[test]
    fn per_layer_metrics_name_a_crate() {
        for d in &PER_LAYER {
            let layer = d.name.split('.').next().unwrap();
            assert!(LAYERS.contains(&layer), "{} names no layer", d.name);
        }
    }

    #[test]
    fn setup_metric_is_present_with_the_largest_bound() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let doc = manifest();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let listed = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(entry.as_obj().unwrap().len(), 2);
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }

        let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, d) in listed.iter().zip(&END_TO_END) {
            assert_eq!(entry.as_obj().unwrap().len(), 4);
            assert_eq!(field(entry, "name"), d.name);
            assert_eq!(field(entry, "unit"), d.unit);
            assert_eq!(field(entry, "better"), d.better);
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(d.bound));
        }

        let listed = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, d) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(entry.as_obj().unwrap().len(), 3);
            assert_eq!(field(entry, "name"), d.name);
            assert_eq!(field(entry, "unit"), d.unit);
            assert_eq!(field(entry, "better"), d.better);
        }
    }

    #[test]
    fn benchmark_json_command_and_paths_stay_inside_the_benchmark() {
        let doc = manifest();
        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["examples/benchmark"]);
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        for arg in command.iter().map(|a| a.as_str().unwrap()) {
            assert!(
                arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
                "{arg}"
            );
        }
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert_eq!(seconds, crate::DEFAULT_SECONDS, "--seconds default");
    }
}
