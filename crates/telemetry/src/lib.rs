//! `db-telemetry`: the observability layer of the Drift-Bottle reproduction.
//!
//! Five pieces, all std-only (no external dependencies, per the workspace
//! policy):
//!
//! * [`MetricsRegistry`] — named counters, gauges, fixed-bucket histograms,
//!   and span timings. Registration locks and allocates once; every update
//!   after that is a relaxed atomic on a pre-allocated cell, cheap enough
//!   for the packet hot path.
//! * [`Span`] — RAII wall-clock timers for phase accounting
//!   (train / simulate / monitor / infer / aggregate).
//! * [`export`] — renderers from a registry [`Snapshot`] to human text
//!   tables, JSON, and the Prometheus text format.
//! * [`flight`] — the provenance flight recorder: a bounded ring of
//!   structured cause-chain records ([`FlightRecord`]) with a stable binary
//!   file format, powering `drift-bottle explain`.
//! * [`scope`] — db-scope: ring-buffered per-window time series, causal
//!   span tracing exported as Chrome `trace_event` JSON, and a sampling
//!   hot-path profiler, powering `drift-bottle timeline` and `--trace`.
//!
//! # The global registry
//!
//! Instrumented crates (netsim, flowmon, dtree, inference, core) take a
//! `&MetricsRegistry` explicitly and store handles, so libraries stay
//! testable and deterministic. The **global** registry here is a
//! convenience for binaries (CLI, benches): it is disabled by default —
//! [`active`] returns `None` and instrumentation is skipped entirely, which
//! is what keeps default runs bit-for-bit identical — and switched on with
//! [`enable`].
//!
//! ```
//! assert!(db_telemetry::active().is_none()); // default: off, zero cost
//! db_telemetry::enable();
//! let reg = db_telemetry::active().unwrap();
//! reg.counter("demo.hits").inc();
//! println!("{}", db_telemetry::export::to_table(&reg.snapshot()));
//! # db_telemetry::disable();
//! ```

pub mod export;
pub mod flight;
mod registry;
pub mod scope;
mod span;

pub use export::{
    json_escape, prometheus_f64, prometheus_label_value, prometheus_name, to_json, to_prometheus,
    to_table,
};
pub use flight::{DropKind, FlightError, FlightRecord, FlightRecorder, Recording};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot, Timing, TimingSnapshot,
};
pub use scope::{hot, HotFn, ScopeMeta, ScopePoint, ScopeRecorder, SeriesKind, TraceData};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Every observability attachment a run can carry, in one handle.
///
/// The flight recorder (provenance cause chains, `drift-bottle explain`) and
/// the scope recorder (per-window health series + span tracing,
/// `drift-bottle timeline`) in a single off-by-default struct: the default
/// instance records nothing and is pinned bit-identical to running without
/// instrumentation at all (see `crates/core/tests/{flight,scope}.rs` and
/// the golden snapshot).
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// Provenance flight recorder; `None` records nothing.
    pub flight: Option<Arc<FlightRecorder>>,
    /// db-scope recorder; `None` records nothing.
    pub scope: Option<Arc<ScopeRecorder>>,
}

impl Instrumentation {
    /// No instrumentation — identical to `Default`, named for call sites.
    pub fn off() -> Self {
        Self::default()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry (created on first use, even while disabled —
/// so a handle registered before [`enable`] still shows up in reports).
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Turn global metrics collection on.
pub fn enable() {
    global();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn global metrics collection off (the registry and its values are
/// kept; [`active`] just stops handing it out).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether global collection is on.
pub fn enabled() -> bool {
    // Gates instrumentation volume only; the registry behind it is created
    // via OnceLock, which carries its own synchronization.
    // db-lint: allow(conc-relaxed-publish) — enable flag, not a data gate
    ENABLED.load(Ordering::Relaxed)
}

/// The global registry if collection is enabled, else `None`. This is the
/// gate instrumented code checks once per component (not per packet):
/// attach handles when `Some`, skip instrumentation entirely when `None`.
pub fn active() -> Option<&'static MetricsRegistry> {
    if enabled() {
        Some(global())
    } else {
        None
    }
}

/// Start a span on the global registry, or `None` when disabled. Binding
/// the result keeps the span alive for the scope:
///
/// ```
/// let _span = db_telemetry::span("phase.simulate");
/// ```
pub fn span(name: &str) -> Option<Span> {
    active().map(|reg| reg.span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable/disable flag is process-global state shared by every test
    // in this binary, so the whole lifecycle lives in one #[test].
    #[test]
    fn global_toggle_lifecycle() {
        assert!(!enabled(), "collection must default to off");
        assert!(active().is_none());
        assert!(span("phase.x").is_none(), "disabled spans cost nothing");

        // Handles registered before enabling still land in the registry.
        let early = global().counter("lifecycle.early");
        early.inc();

        enable();
        let reg = active().expect("enabled");
        reg.counter("lifecycle.late").inc();
        {
            let _s = span("phase.x");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lifecycle.early"), Some(1));
        assert_eq!(snap.counter("lifecycle.late"), Some(1));
        assert_eq!(
            snap.timings.iter().filter(|(n, _)| n == "phase.x").count(),
            1
        );

        disable();
        assert!(active().is_none());
        // Values survive the toggle.
        assert_eq!(global().snapshot().counter("lifecycle.early"), Some(1));
    }
}
