//! Inference-pipeline metrics: handles into a
//! [`db_telemetry::MetricsRegistry`], plus the warning line on stderr.
//!
//! Owned by whoever drives the pipeline (the deployed system observer, a
//! bench binary); every hot-path site takes `Option<&InferenceMetrics>` so
//! the disabled path costs one branch.

use db_telemetry::{Counter, MetricsRegistry};
use db_topology::LinkId;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`InferenceMetrics::warning_raised`] prints its line; off until
/// [`log_warnings`] turns it on.
static LOG_WARNINGS: AtomicBool = AtomicBool::new(false);

/// Print every raised warning to stderr with its equation-(1) context, in
/// this process, from now on (`drift-bottle report` turns this on).
pub fn log_warnings() {
    LOG_WARNINGS.store(true, Ordering::Relaxed);
}

/// Handle set for the `inference.*` metrics.
#[derive(Debug, Clone)]
pub struct InferenceMetrics {
    /// `inference.locals_generated` — per-switch local inferences rebuilt
    /// at sampling ticks (Algorithm 1 runs).
    pub locals_generated: Counter,
    /// `inference.headers_piggybacked` — drift-bottle headers encoded onto
    /// forwarded packets.
    pub headers_piggybacked: Counter,
    /// `inference.aggregations` — ⊕ steps performed.
    pub aggregations: Counter,
    /// `inference.topk_truncations` — aggregations whose result exceeded
    /// the k header slots and lost entries.
    pub topk_truncations: Counter,
    /// `inference.warnings` — equation-(1) warnings raised.
    pub warnings: Counter,
}

impl InferenceMetrics {
    /// Register (or re-attach to) the `inference.*` metrics in `reg`.
    pub fn register(reg: &MetricsRegistry) -> Self {
        InferenceMetrics {
            locals_generated: reg.counter("inference.locals_generated"),
            headers_piggybacked: reg.counter("inference.headers_piggybacked"),
            aggregations: reg.counter("inference.aggregations"),
            topk_truncations: reg.counter("inference.topk_truncations"),
            warnings: reg.counter("inference.warnings"),
        }
    }

    /// Count one raised warning and, once [`log_warnings`] is on, print it
    /// to stderr with its full equation-(1) context.
    pub fn warning_raised(&self, switch: u16, link: LinkId, hops: u32, w0: f64, w1: f64) {
        self.warnings.inc();
        if LOG_WARNINGS.load(Ordering::Relaxed) {
            eprintln!(
                "[WARN  inference.warning] warning raised switch={switch} link={} hop={hops} w0={w0} w1={w1}",
                link.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stderr line itself is pinned through the binary, in
    /// `tests/cli_views.rs`.
    #[test]
    fn warning_raised_counts() {
        let reg = MetricsRegistry::new();
        let m = InferenceMetrics::register(&reg);
        m.warning_raised(3, LinkId(7), 5, 12.0, 4.5);
        assert_eq!(reg.snapshot().counter("inference.warnings"), Some(1));
    }
}
