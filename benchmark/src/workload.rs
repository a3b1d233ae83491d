//! What every workload takes and returns.

use crate::json::Metric;
use crate::metrics::{Values, END_TO_END};
use std::path::PathBuf;

/// One invocation's arguments. Arguments only: the benchmark reads no
/// environment variable.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed section runs, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny sizes, same code path.
    pub smoke: bool,
    /// The `drift-bottle` binary the serve workloads spawn.
    pub daemon: Option<PathBuf>,
    /// Where traces are written.
    pub out_dir: PathBuf,
}

/// What one run measured.
pub struct Outcome {
    /// Operations attempted (records, scenarios, path queries).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every declared end-to-end metric (untraced run) or per-layer metric
    /// (traced run), in declaration order.
    pub metrics: Vec<Metric>,
    /// Oracle mismatches; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Extra facts for the context line, as `(key, JSON value)`.
    pub context: Vec<(&'static str, String)>,
}

/// The end-to-end figures of one run, named as `BENCHMARK.json` names them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Work completed per second: records (serve), scenarios (sweep), path
    /// queries (topo).
    pub ops_per_s: f64,
    /// Typical (lower-quartile) latency of one timed operation, µs.
    pub op_p25_us: f64,
    /// Share of attempted operations that finished within the workload's
    /// latency limit.
    pub within_limit_share: f64,
    /// Peak resident set of the process under test, MiB.
    pub peak_rss_mb: f64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
}

impl EndToEnd {
    /// As metrics, in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut v = Values::new(END_TO_END);
        v.set("ops_per_s", self.ops_per_s);
        v.set("op_p25_us", self.op_p25_us);
        v.set("within_limit_share", self.within_limit_share);
        v.set("peak_rss_mb", self.peak_rss_mb);
        v.set("setup_s", self.setup_s);
        v.metrics()
    }
}

/// How many times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
