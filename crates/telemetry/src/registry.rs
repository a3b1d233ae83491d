//! The metrics registry: named counters, gauges, fixed-bucket histograms,
//! and span timings.
//!
//! Registration (name → handle) takes a lock and allocates; everything after
//! that is lock-free atomics on pre-allocated cells, cheap enough for the
//! packet hot path. Handles are `Clone` + `Send` + `Sync` and stay valid for
//! the life of the registry — instrumented components hold handles, not the
//! registry itself.

use db_util::sync::lock_recover;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable `f64` metric (stored as bit-cast `u64`).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive) of each bucket; an implicit +inf bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` cells.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` samples (e.g. nanoseconds of queue
/// wait). Bucket layout is frozen at registration; recording is two relaxed
/// atomic adds plus a branchless-ish bucket scan over a handful of bounds.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket state (for quantile estimation
    /// without snapshotting the whole registry).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

#[derive(Debug, Default)]
struct TimingCell {
    total_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
}

/// Accumulated wall-clock for one named phase (fed by [`crate::Span`]).
#[derive(Debug, Clone, Default)]
pub struct Timing(Arc<TimingCell>);

impl Timing {
    /// Record one interval of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.0.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.0.total_ns.load(Ordering::Relaxed)
    }

    /// Number of recorded intervals.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Longest single interval, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.0.max_ns.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Timing>,
}

/// A collection of named metrics. See the module docs for the usage model.
///
/// Metric names are dotted lowercase paths (`netsim.packets_sent`,
/// `inference.warnings`); the Prometheus exporter rewrites dots to
/// underscores.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. Idempotent: the same name always
    /// maps to the same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = lock_recover(&self.inner);
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = lock_recover(&self.inner);
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name` with the given inclusive upper
    /// bucket bounds (an overflow bucket is added automatically). Bounds are
    /// frozen by the **first** registration; later calls return the same
    /// histogram and their `bounds` argument is ignored — so two call sites
    /// registering the same name with different bucket layouts share the
    /// first layout.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = lock_recover(&self.inner);
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Get or create the phase-timing accumulator `name`.
    pub fn timing(&self, name: &str) -> Timing {
        let mut inner = lock_recover(&self.inner);
        inner.timings.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every metric, for export.
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock_recover(&self.inner);
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            timings: inner
                .timings
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        TimingSnapshot {
                            total_ns: v.total_ns(),
                            count: v.count(),
                            max_ns: v.max_ns(),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_recover(&self.inner);
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("timings", &inner.timings.len())
            .finish()
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds; the final bucket in `buckets` is +inf.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket holding the target rank — the same estimator
    /// Prometheus' `histogram_quantile` uses. Samples landing in the
    /// implicit +inf bucket clamp to the largest finite bound (there is no
    /// upper edge to interpolate toward), and an empty histogram reports 0.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let upto = seen + n;
            if (upto as f64) >= rank {
                let Some(&hi) = self.bounds.get(i) else {
                    // +inf bucket: clamp to the largest finite bound.
                    return self.bounds[self.bounds.len() - 1] as f64;
                };
                let lo = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let frac = (rank - seen as f64) / n as f64;
                return lo + (hi as f64 - lo) * frac.clamp(0.0, 1.0);
            }
            seen = upto;
        }
        self.bounds[self.bounds.len() - 1] as f64
    }
}

/// Point-in-time copy of a [`Timing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Total accumulated nanoseconds.
    pub total_ns: u64,
    /// Number of recorded intervals.
    pub count: u64,
    /// Longest single interval, in nanoseconds.
    pub max_ns: u64,
}

/// Point-in-time copy of an entire [`MetricsRegistry`], the input to every
/// exporter in [`crate::export`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span-timing snapshots, sorted by name.
    pub timings: Vec<(String, TimingSnapshot)>,
}

impl Snapshot {
    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timings.is_empty()
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x.hits").get(), 5);
        assert_eq!(reg.snapshot().counter("x.hits"), Some(5));
    }

    #[test]
    fn gauge_round_trips_f64() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("x.ratio");
        g.set(0.125);
        assert_eq!(g.get(), 0.125);
        g.set(-3.5);
        assert_eq!(reg.snapshot().gauge("x.ratio"), Some(-3.5));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.wait", &[10, 100, 1000]);
        for v in [0, 10, 11, 100, 5_000] {
            h.record(v);
        }
        let snap = &reg.snapshot().histograms[0].1;
        assert_eq!(snap.bounds, vec![10, 100, 1000]);
        // ≤10: {0, 10}; ≤100: {11, 100}; ≤1000: {}; +inf: {5000}.
        assert_eq!(snap.buckets, vec![2, 2, 0, 1]);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 5_121);
        assert!((snap.mean() - 1_024.2).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.lat", &[10, 100, 1000]);
        // 10 samples ≤10, 10 samples in (10, 100].
        for _ in 0..10 {
            h.record(5);
            h.record(50);
        }
        let snap = &reg.snapshot().histograms[0].1;
        // Rank 10 lands exactly on the first bucket's edge.
        assert_eq!(snap.percentile(0.5), 10.0);
        // Rank 15 is halfway through the (10, 100] bucket.
        assert_eq!(snap.percentile(0.75), 55.0);
        // p100 is the last populated bucket's upper bound.
        assert_eq!(snap.percentile(1.0), 100.0);
        // p0 clamps to the bottom of the first populated bucket.
        assert_eq!(snap.percentile(0.0), 0.0);
    }

    #[test]
    fn percentile_clamps_overflow_and_handles_empty() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.lat", &[10, 100]);
        assert_eq!(h.snapshot().percentile(0.5), 0.0, "empty histogram");
        // All mass in the +inf bucket: no upper edge, clamp to 100.
        h.record(5_000);
        h.record(9_000);
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.5), 100.0);
        assert_eq!(snap.percentile(0.99), 100.0);
        // Out-of-range q is clamped, not a panic; with every sample in
        // overflow even q=0 clamps to the last finite bound.
        assert_eq!(snap.percentile(7.0), 100.0);
        assert_eq!(snap.percentile(-1.0), 100.0);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.h", &[100, 10, 100]);
        h.record(50);
        let snap = &reg.snapshot().histograms[0].1;
        assert_eq!(snap.bounds, vec![10, 100]);
        assert_eq!(snap.buckets, vec![0, 1, 0]);
    }

    #[test]
    fn histogram_keeps_first_bounds_on_conflicting_reregistration() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("x.h", &[10, 100]);
        // Documented lenient path: the second call's bounds are ignored and
        // both handles share the first layout.
        let b = reg.histogram("x.h", &[7]);
        a.record(50);
        b.record(5);
        let snap = &reg.snapshot().histograms[0].1;
        assert_eq!(snap.bounds, vec![10, 100]);
        assert_eq!(snap.count, 2);
    }

    #[test]
    fn timing_accumulates_and_tracks_max() {
        let reg = MetricsRegistry::new();
        let t = reg.timing("phase.sim");
        t.record_ns(100);
        t.record_ns(400);
        assert_eq!(t.total_ns(), 500);
        assert_eq!(t.count(), 2);
        assert_eq!(t.max_ns(), 400);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("b");
        reg.counter("a");
        reg.counter("c");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn handles_are_send_and_usable_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.par");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        assert!(MetricsRegistry::new().snapshot().is_empty());
    }
}
