//! Sliding-window feature assembly (Table 2).
//!
//! §4.1: "we extract some measures from several sampling time intervals and
//! formulate feature vectors by windows sliding on sampling intervals. ...
//! we set the length of sliding windows to the 90th percentile of RTTs of
//! all data paths in the network."
//!
//! A feature vector is `(f_flow, f_avg, f_last)`:
//!
//! * `f_flow` — RTT, path length, number of sampling intervals covering one
//!   RTT (flow topology features, pushed from the controller);
//! * `f_avg` — the six Table-1 measures averaged over the sampling intervals
//!   of the flow's last RTT;
//! * `f_last` — the six measures of the most recent interval.
//!
//! The monitor keeps each flow's `f_avg` numerators as running integer sums
//! over its closed intervals; this module derives the window length and
//! turns metadata, sums and the newest interval into the vector.

use db_netsim::SimTime;
use db_topology::{LinkId, NodeId, Routes, SCALE_NODE_THRESHOLD};
use db_util::{stats as st, Pcg64};

/// Number of features in a vector: 3 (`f_flow`) + 6 (`f_avg`) + 6 (`f_last`).
pub const NUM_FEATURES: usize = 15;

/// Feature names, index-aligned with [`FeatureVector`] (Table 2 order).
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "rtt_ms",
    "len_path",
    "n_interval",
    "avg_n_packet",
    "avg_len_all",
    "avg_len_max",
    "avg_len_last",
    "avg_n_burst",
    "avg_pos_burst",
    "last_n_packet",
    "last_len_all",
    "last_len_max",
    "last_len_last",
    "last_n_burst",
    "last_pos_burst",
];

/// A dense feature vector in [`FEATURE_NAMES`] order.
pub type FeatureVector = [f64; NUM_FEATURES];

/// FNV-1a 64 digest of a feature vector's exact IEEE-754 bit patterns, in
/// [`FEATURE_NAMES`] order, each value big-endian. The provenance flight
/// recorder stores this instead of 15 floats: two recordings produced the
/// same digest iff the classifier saw bit-identical features.
pub fn feature_digest(features: &FeatureVector) -> u64 {
    let mut bytes = [0u8; NUM_FEATURES * 8];
    for (i, v) in features.iter().enumerate() {
        bytes[i * 8..(i + 1) * 8].copy_from_slice(&v.to_bits().to_be_bytes());
    }
    db_util::wire::fnv1a64(&bytes)
}

/// Network-wide monitoring window configuration (§4.1: consistent across the
/// network "for the sake of scalability and deployability").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Sampling interval length (4 ms in §6.3).
    pub interval: SimTime,
    /// Sliding window length in intervals — the p90 RTT, rounded up.
    pub window_intervals: usize,
}

/// Upper bound on the sliding-window length in intervals (128 ms at the
/// paper's 4 ms interval). The p90-RTT rule would give multi-hundred-ms
/// windows on topologies with very long links (Tinet); switch memory and
/// reaction time both cap the history a monitor keeps.
pub const MAX_WINDOW_INTERVALS: usize = 32;

impl WindowConfig {
    /// Derive the configuration from a routing engine: window = p90 of
    /// all-pairs RTT, at least one interval, at most
    /// [`MAX_WINDOW_INTERVALS`]. `O(n²)` — intended for graphs at or below
    /// [`SCALE_NODE_THRESHOLD`]; use [`WindowConfig::for_network_sampled`]
    /// beyond it, or [`WindowConfig::for_network_auto`] to dispatch.
    pub fn for_network(routes: &dyn Routes, interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "interval must be positive");
        let rtts = routes.all_rtts_ms();
        Self::from_rtts(&rtts, interval)
    }

    /// Derive the configuration from a deterministic 64-source × ≤32-dest
    /// RTT sample (`2 × one-way latency`, fixed internal stream) instead of
    /// all `n²` pairs — the scale regime's approximation (DESIGN.md §14).
    pub fn for_network_sampled(routes: &dyn Routes, interval: SimTime) -> Self {
        assert!(interval > SimTime::ZERO, "interval must be positive");
        let n = routes.node_count();
        let mut rng = Pcg64::new_stream(0x5CA1E, 0x91D0);
        let sources = rng.sample_indices(n, 64.min(n));
        let mut rtts = Vec::new();
        for s in sources {
            let mut dests = rng.sample_indices(n, 33.min(n));
            dests.retain(|&d| d != s);
            dests.truncate(32);
            for d in dests {
                rtts.push(2.0 * routes.latency_ms(NodeId(s as u16), NodeId(d as u16)));
            }
        }
        Self::from_rtts(&rtts, interval)
    }

    /// [`WindowConfig::for_network`] at or below [`SCALE_NODE_THRESHOLD`]
    /// nodes, [`WindowConfig::for_network_sampled`] above.
    pub fn for_network_auto(routes: &dyn Routes, interval: SimTime) -> Self {
        if routes.node_count() <= SCALE_NODE_THRESHOLD {
            Self::for_network(routes, interval)
        } else {
            Self::for_network_sampled(routes, interval)
        }
    }

    fn from_rtts(rtts: &[f64], interval: SimTime) -> Self {
        let p90 = if rtts.is_empty() {
            0.0
        } else {
            st::percentile(rtts, 90.0)
        };
        let window_intervals =
            ((p90 / interval.as_ms_f64()).ceil() as usize).clamp(1, MAX_WINDOW_INTERVALS);
        WindowConfig {
            interval,
            window_intervals,
        }
    }

    /// Explicit configuration (tests, ablations).
    pub fn explicit(interval: SimTime, window_intervals: usize) -> Self {
        assert!(interval > SimTime::ZERO && window_intervals >= 1);
        WindowConfig {
            interval,
            window_intervals,
        }
    }

    /// Window length as simulated time.
    pub fn window_len(&self) -> SimTime {
        SimTime::from_ns(self.interval.as_ns() * self.window_intervals as u64)
    }
}

/// Per-(switch, flow) static metadata — the `f_flow` features plus the
/// upstream path the Inference Generation module needs (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMeta {
    /// Flow RTT in milliseconds.
    pub rtt_ms: f64,
    /// Length of the flow's full data path, in links.
    pub path_len: usize,
    /// Number of sampling intervals needed to cover one RTT (≥ 1, clamped to
    /// the window length).
    pub n_interval: usize,
    /// Links on the upstream part of the flow's path w.r.t. this switch.
    pub upstream: Vec<LinkId>,
}

impl FlowMeta {
    /// Build metadata for a flow monitored at a given switch.
    pub fn new(rtt_ms: f64, path_len: usize, upstream: Vec<LinkId>, cfg: &WindowConfig) -> Self {
        let n_interval =
            ((rtt_ms / cfg.interval.as_ms_f64()).ceil() as usize).clamp(1, cfg.window_intervals);
        FlowMeta {
            rtt_ms,
            path_len,
            n_interval,
            upstream,
        }
    }
}

/// Assemble the Table-2 feature vector of a flow from its metadata, the
/// per-measure sums over its last `meta.n_interval` closed intervals (one
/// RTT of history — callers emit nothing before that much is buffered), and
/// the newest of those intervals,
/// [`widened`](crate::measures::IntervalMeasures::widened). The one
/// place a feature vector is made: the monitor's window close and the
/// training dataset's row decode both call it, and the close stays free of
/// a call per row.
#[inline]
pub(crate) fn assemble(meta: &FlowMeta, sums: &[u64; 6], last: &[u64; 6]) -> FeatureVector {
    let inv = 1.0 / meta.n_interval as f64;
    let mut f = [0.0; NUM_FEATURES];
    f[0] = meta.rtt_ms;
    f[1] = meta.path_len as f64;
    f[2] = meta.n_interval as f64;
    for (i, (sum, last)) in sums.iter().zip(last).enumerate() {
        f[3 + i] = *sum as f64 * inv;
        f[9 + i] = *last as f64;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::IntervalMeasures;
    use db_topology::zoo;

    fn meas(n_packet: u32, len_all: u64) -> IntervalMeasures {
        IntervalMeasures {
            n_packet,
            len_all,
            len_max: 1500,
            len_last: 1500,
            n_burst: 2,
            pos_burst: 5,
        }
    }

    #[test]
    fn window_config_from_routes() {
        let topo = zoo::line(3); // 1 ms links; RTTs 2 and 4 ms
        let routes = db_topology::RouteTable::build(&topo);
        let cfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        // p90 of [2,2,2,2,4,4] = 4ms → 1 interval.
        assert_eq!(cfg.window_intervals, 1);
        let cfg2 = WindowConfig::for_network(&routes, SimTime::from_ms(1));
        assert_eq!(cfg2.window_intervals, 4);
        assert_eq!(cfg2.window_len(), SimTime::from_ms(4));
    }

    #[test]
    fn sampled_window_config_matches_exact_on_small_graphs() {
        // Below the sample sizes every pair is visited, and symmetric
        // latencies make 2×one-way equal the two-directional RTT, so the
        // sampled p90 can only differ by sample multiplicity — on a uniform
        // line (all RTT values present in both samples) it matches exactly.
        let topo = zoo::line(3);
        let routes = db_topology::RouteTable::build(&topo);
        let exact = WindowConfig::for_network(&routes, SimTime::from_ms(1));
        let sampled = WindowConfig::for_network_sampled(&routes, SimTime::from_ms(1));
        assert_eq!(sampled.window_intervals, exact.window_intervals);
        let auto = WindowConfig::for_network_auto(&routes, SimTime::from_ms(1));
        assert_eq!(auto, exact, "small graph dispatches to the exact pass");
    }

    #[test]
    fn flow_meta_clamps_n_interval() {
        let cfg = WindowConfig::explicit(SimTime::from_ms(4), 5);
        let m = FlowMeta::new(10.0, 3, vec![], &cfg);
        assert_eq!(m.n_interval, 3, "10ms RTT / 4ms = 2.5 → 3 intervals");
        let long = FlowMeta::new(100.0, 3, vec![], &cfg);
        assert_eq!(long.n_interval, 5, "clamped to window length");
        let tiny = FlowMeta::new(0.1, 3, vec![], &cfg);
        assert_eq!(tiny.n_interval, 1);
    }

    #[test]
    fn assemble_lays_out_flow_avg_last() {
        let cfg = WindowConfig::explicit(SimTime::from_ms(4), 8);
        let meta = FlowMeta::new(12.0, 4, vec![], &cfg); // n_interval = 3
        let last = meas(2, 3_000);
        // Sums of three intervals: 5 + 5 + 2 packets, 7 500 + 7 500 + 3 000 B.
        let f = assemble(&meta, &[12, 18_000, 4_500, 4_500, 6, 15], &last.widened());
        assert_eq!(f[..3], [12.0, 4.0, 3.0]);
        assert_eq!(f[3], 12.0 * (1.0 / 3.0), "avg n_packet = sum · 1/n");
        assert_eq!(f[4], 18_000.0 * (1.0 / 3.0));
        assert_eq!(f[8], 15.0 * (1.0 / 3.0));
        assert_eq!(f[9..], [2.0, 3_000.0, 1_500.0, 1_500.0, 2.0, 5.0]);
    }

    #[test]
    fn feature_names_align() {
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
        assert_eq!(FEATURE_NAMES[0], "rtt_ms");
        assert_eq!(FEATURE_NAMES[9], "last_n_packet");
    }

    #[test]
    fn feature_digest_is_bit_exact() {
        let mut a: FeatureVector = [0.0; NUM_FEATURES];
        a[0] = 8.0;
        a[3] = 1.5;
        let b = a;
        assert_eq!(feature_digest(&a), feature_digest(&b));
        let mut c = a;
        c[3] = 1.5 + f64::EPSILON; // one-ulp change flips the digest
        assert_ne!(feature_digest(&a), feature_digest(&c));
        // ±0.0 differ at the bit level, so digests differ too.
        let zero: FeatureVector = [0.0; NUM_FEATURES];
        let mut negzero = zero;
        negzero[0] = -0.0;
        assert_ne!(feature_digest(&zero), feature_digest(&negzero));
        // Pinned: the digest of the all-zeros vector must never drift.
        assert_eq!(feature_digest(&[0.0; NUM_FEATURES]), {
            db_util::wire::fnv1a64(&[0u8; NUM_FEATURES * 8])
        });
    }
}
