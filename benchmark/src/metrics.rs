//! The benchmark's declared surface — workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics — in one table. The root
//! `BENCHMARK.json` is this table rendered by `bench manifest`; a unit test
//! fails when the two drift apart.

use crate::json::{self, Metric};
use std::fmt::Write as _;

/// Program and arguments the acceptance driver runs, before it appends
/// `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];
/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];
/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 10;

/// A workload and the reason it exists.
pub struct WorkloadDecl {
    /// Name on the command line.
    pub name: &'static str,
    /// One line: what it stresses and what it deliberately leaves idle.
    pub why: &'static str,
}

/// The workloads, in the order `bench aa` and `--smoke` run them.
pub const WORKLOADS: &[WorkloadDecl] = &[
    WorkloadDecl {
        name: "serve-failure-closed",
        why: "Capacity: closed loop, 8 x 2048-record frames in flight over loopback; the engine thread is the bottleneck, transport cost is amortised",
    },
    WorkloadDecl {
        name: "serve-failure-paced",
        why: "Latency at a quarter of capacity: open loop, 200k rec/s in 256-record frames timed from their due time; per-batch fixed costs and window-close stalls dominate",
    },
    WorkloadDecl {
        name: "sweep-geant",
        why: "The researcher's path: db-runner sweep of Geant2012 single-link failures x 4 fig8 variants on 2 workers; serve and frame code never runs",
    },
    WorkloadDecl {
        name: "topo-uniform-10k",
        why: "10k-node AS graph, uniform random path sources against a 128-tree cache: every query misses and runs a full Dijkstra; the traced run also localizes a link failure on the graph",
    },
    WorkloadDecl {
        name: "topo-local-10k",
        why: "Same graph, cache and call, but a 64-source hot set that fits the cache: the hit path only, so a cache change must leave it flat",
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when `b`
    /// is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// A declared metric.
pub struct MetricDecl {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one; what
/// "operation" means per workload is stated in the README.
pub const END_TO_END: &[MetricDecl] = &[
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("op_p25_us", "us", Better::Lower, 0.25),
    e2e("within_limit_share", "share", Better::Higher, 0.10),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer figures from the traced run; layers are the crate names. A
/// layer a workload never calls reads 0 there.
pub const PER_LAYER: &[MetricDecl] = &[
    // serve: frame codec, transport, and the daemon's own view.
    layer("serve.frame.decode_ns_per_rec", "ns", Lower),
    layer("serve.frame.encode_ack_us", "us", Lower),
    layer("serve.rtt_idle_us", "us", Lower),
    layer("serve.pulse_req_us", "us", Lower),
    layer("serve.snapshot_req_ms", "ms", Lower),
    layer("serve.snapshot_bytes", "count", Lower),
    layer("serve.server_batch_p50_us", "us", Lower),
    layer("serve.server_batch_p99_us", "us", Lower),
    layer("serve.batch_p50_us", "us", Lower),
    layer("serve.batch_p90_us", "us", Lower),
    layer("serve.batch_p99_us", "us", Lower),
    layer("serve.batch_max_us", "us", Lower),
    layer("serve.slow_ticks", "count", Lower),
    layer("serve.carriers_end", "count", Lower),
    layer("serve.warnings", "count", Lower),
    layer("serve.unattributed_ns_per_rec", "ns", Lower),
    // core: the engine and the batch runner.
    layer("core.engine.ingest_ns_per_rec", "ns", Lower),
    layer("core.engine.ingest_scope_ns_per_rec", "ns", Lower),
    layer("core.engine.ingest_flight_ns_per_rec", "ns", Lower),
    layer("core.engine.ingest_healthy_ns_per_rec", "ns", Lower),
    layer("core.engine.ingest_failed_ns_per_rec", "ns", Lower),
    layer("core.engine.tick_us_p50", "us", Lower),
    layer("core.engine.tick_us_max", "us", Lower),
    layer("core.engine.snapshot_ms", "ms", Lower),
    layer("core.engine.restore_ms", "ms", Lower),
    layer("core.engine.carriers_peak", "count", Lower),
    layer("core.system.on_packet_ns", "ns", Lower),
    layer("core.run_scenario_ms_p50", "ms", Lower),
    layer("core.prepare_ms", "ms", Lower),
    // inference: the per-hop pipeline at k = 4.
    layer("inference.hop_inline_ns", "ns", Lower),
    layer("inference.hop_vec_ns", "ns", Lower),
    layer("inference.header_codec_ns", "ns", Lower),
    // flowmon and dtree: registers, window close, classification.
    layer("flowmon.on_packet_ns", "ns", Lower),
    layer("flowmon.end_interval_us", "us", Lower),
    layer("dtree.classify_ns", "ns", Lower),
    layer("dtree.train_ms", "ms", Lower),
    // netsim and runner.
    layer("netsim.events_per_s", "1/s", Higher),
    layer("netsim.packets_per_scenario", "count", Lower),
    layer("netsim.traffic_gen_ms", "ms", Lower),
    layer("runner.overhead_share", "share", Lower),
    // topology: routing cache and graph build.
    layer("topology.tree_ms_p50", "ms", Lower),
    layer("topology.path_hit_ns", "ns", Lower),
    layer("topology.cache_hit_share", "share", Higher),
    layer("topology.cache_evictions", "count", Lower),
    layer("topology.cache_peak_resident", "count", Lower),
    layer("topology.gen_ms", "ms", Lower),
    layer("topology.csr_build_ms", "ms", Lower),
    // telemetry: the recorders' own feed and extract calls.
    layer("telemetry.scope_feed_ns", "ns", Lower),
    layer("telemetry.flight_record_ns", "ns", Lower),
    layer("telemetry.points_from_us", "us", Lower),
    // The generator and the tracer themselves.
    layer("gen.encode_ns_per_rec", "ns", Lower),
    layer("gen.busy_share", "share", Lower),
    layer("gen.late_p50_us", "us", Lower),
    layer("gen.late_p99_us", "us", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.attributed_share", "share", Higher),
];

/// Values for a declared metric list, all present from the start (a layer
/// a workload never calls stays 0).
pub struct Values {
    decls: &'static [MetricDecl],
    values: Vec<f64>,
}

impl Values {
    /// All-zero values for `decls`.
    pub fn new(decls: &'static [MetricDecl]) -> Self {
        Values {
            decls,
            values: vec![0.0; decls.len()],
        }
    }

    /// Set a metric; naming one that is not declared is a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .decls
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values[i] = value;
    }

    /// The metrics in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        self.decls
            .iter()
            .zip(&self.values)
            .map(|(d, &value)| Metric {
                name: d.name,
                unit: d.unit,
                value,
            })
            .collect()
    }
}

/// Render `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| json::string(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": {},", list(COMMAND));
    let _ = writeln!(out, "  \"paths\": {},", list(PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json::string(w.name),
            json::string(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.as_str()),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json::string(m.name),
            json::string(m.unit),
            json::string(m.better.as_str())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Not assert_eq!: a mismatch would print both 8 KiB documents.
        assert!(
            on_disk == manifest(),
            "BENCHMARK.json is stale: regenerate with `bash benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }

    #[test]
    fn undeclared_layers_read_zero_and_declared_ones_keep_their_value() {
        let mut v = Values::new(PER_LAYER);
        v.set("topology.path_hit_ns", 212.5);
        let m = v.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        let value = |name: &str| m.iter().find(|x| x.name == name).map(|x| x.value);
        assert_eq!(value("topology.path_hit_ns"), Some(212.5));
        assert_eq!(value("serve.rtt_idle_us"), Some(0.0));
    }
}
