//! Topology statistics (Table 3) and path statistics.
//!
//! Table 3 of the paper characterizes the evaluation topologies by node and
//! link counts and by the variance of link latency; §6.1 additionally argues
//! from the variance and skewness of node degrees (Chinanet 17.30 / 2.63 vs.
//! Geant2012 3.79 / 1.42). The monitoring configuration (§4.1) derives the
//! sliding-window length from the 90th percentile of path RTTs.

use crate::graph::{NodeId, Topology};
use crate::routing::{ordered_pairs, Routes, SCALE_NODE_THRESHOLD};
use db_util::{stats as st, Pcg64};

/// Summary statistics of a topology, in the units the paper uses.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStats {
    /// Topology name.
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected links.
    pub links: usize,
    /// Population variance of one-way link latency (ms²) — Table 3 column.
    pub latency_variance: f64,
    /// Mean one-way link latency (ms).
    pub latency_mean: f64,
    /// Population variance of node degree — §6.1.
    pub degree_variance: f64,
    /// Skewness of node degree — §6.1.
    pub degree_skewness: f64,
    /// Maximum node degree.
    pub max_degree: usize,
}

impl TopologyStats {
    /// Compute statistics for a topology.
    pub fn compute(topo: &Topology) -> Self {
        let latencies: Vec<f64> = topo.links().iter().map(|l| l.latency_ms).collect();
        let degrees: Vec<f64> = topo.nodes().map(|n| topo.degree(n) as f64).collect();
        TopologyStats {
            name: topo.name().to_string(),
            nodes: topo.node_count(),
            links: topo.link_count(),
            latency_variance: st::variance(&latencies),
            latency_mean: st::mean(&latencies),
            degree_variance: st::variance(&degrees),
            degree_skewness: st::skewness(&degrees),
            max_degree: topo.nodes().map(|n| topo.degree(n)).max().unwrap_or(0),
        }
    }
}

/// Path/RTT statistics derived from a route table.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// 90th percentile of all-pairs RTT (ms) — the paper's sliding window length.
    pub rtt_p90_ms: f64,
    /// Maximum all-pairs RTT (ms) — the paper's simulation horizon ("the
    /// largest RTT of all flows, at the magnitude of 0.1 seconds").
    pub rtt_max_ms: f64,
    /// Mean all-pairs RTT (ms).
    pub rtt_mean_ms: f64,
    /// Mean path length in links.
    pub mean_path_links: f64,
    /// Maximum path length in links (hop diameter under latency routing).
    pub max_path_links: usize,
}

impl PathStats {
    /// Compute exact path statistics over all ordered pairs. `O(n²)` path
    /// queries — intended for graphs at or below
    /// [`crate::routing::SCALE_NODE_THRESHOLD`]; use
    /// [`PathStats::compute_sampled`] beyond it.
    pub fn compute(routes: &dyn Routes) -> Self {
        let rtts = routes.all_rtts_ms();
        let mut lens = Vec::with_capacity(rtts.len());
        for (s, d) in ordered_pairs(routes.node_count()) {
            lens.push(routes.path(s, d).len() as f64);
        }
        Self::from_samples(&rtts, &lens)
    }

    /// Estimate path statistics from a deterministic sample of sources ×
    /// destinations (64 × 32, fixed internal stream) instead of all `n²`
    /// pairs. RTTs use `2 × one-way latency` so only the source trees are
    /// computed — the scale regime's approximation, documented in
    /// DESIGN.md §14.
    pub fn compute_sampled(routes: &dyn Routes) -> Self {
        let n = routes.node_count();
        let mut rng = Pcg64::new_stream(0x5CA1E, 0x57A7);
        let sources = rng.sample_indices(n, 64.min(n));
        let mut rtts = Vec::new();
        let mut lens = Vec::new();
        for s in sources {
            let src = NodeId(s as u16);
            let mut dests = rng.sample_indices(n, 33.min(n));
            dests.retain(|&d| d != s);
            dests.truncate(32);
            for d in dests {
                let dst = NodeId(d as u16);
                rtts.push(2.0 * routes.latency_ms(src, dst));
                lens.push(routes.path(src, dst).len() as f64);
            }
        }
        Self::from_samples(&rtts, &lens)
    }

    /// [`PathStats::compute`] at or below [`SCALE_NODE_THRESHOLD`] nodes,
    /// [`PathStats::compute_sampled`] above — and then the figures are the
    /// sampled estimate, which the second value says by naming the
    /// threshold the graph is above (`None` = exact). Inlined: a dispatch,
    /// compiled where it is called (the routing hot path's crate emits
    /// nothing new).
    #[inline]
    pub fn compute_auto(routes: &dyn Routes) -> (Self, Option<usize>) {
        if routes.node_count() <= SCALE_NODE_THRESHOLD {
            (Self::compute(routes), None)
        } else {
            (Self::compute_sampled(routes), Some(SCALE_NODE_THRESHOLD))
        }
    }

    fn from_samples(rtts: &[f64], lens: &[f64]) -> Self {
        PathStats {
            rtt_p90_ms: st::percentile(rtts, 90.0),
            rtt_max_ms: st::max(rtts).unwrap_or(0.0),
            rtt_mean_ms: st::mean(rtts),
            mean_path_links: st::mean(lens),
            max_path_links: lens.iter().map(|&l| l as usize).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::routing::RouteTable;

    #[test]
    fn stats_on_star() {
        // Star with one hub of degree 4 and four leaves of degree 1.
        let mut b = TopologyBuilder::new("star5");
        let hub = b.node("hub");
        for i in 0..4 {
            let leaf = b.node(format!("leaf{i}"));
            b.link(hub, leaf, 2.0);
        }
        let t = b.build().unwrap();
        let s = TopologyStats::compute(&t);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.links, 4);
        assert_eq!(s.latency_variance, 0.0);
        assert_eq!(s.latency_mean, 2.0);
        assert_eq!(s.max_degree, 4);
        // Degrees [4,1,1,1,1]: mean 1.6, variance 1.44, strongly right-skewed.
        assert!((s.degree_variance - 1.44).abs() < 1e-9);
        assert!(s.degree_skewness > 1.0);
    }

    #[test]
    fn latency_variance_reflects_spread() {
        let mut b = TopologyBuilder::new("spread");
        let n = b.nodes(3, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[2], 9.0);
        let t = b.build().unwrap();
        let s = TopologyStats::compute(&t);
        assert_eq!(s.latency_mean, 5.0);
        assert_eq!(s.latency_variance, 16.0);
    }

    #[test]
    fn path_stats_on_chain() {
        let mut b = TopologyBuilder::new("chain3");
        let n = b.nodes(3, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[2], 1.0);
        let t = b.build().unwrap();
        let rt = RouteTable::build(&t);
        let p = PathStats::compute(&rt);
        // RTTs: 2,2 (adjacent pairs twice each) and 4,4 (ends) → max 4.
        assert_eq!(p.rtt_max_ms, 4.0);
        assert_eq!(p.max_path_links, 2);
        assert!(p.rtt_p90_ms <= 4.0 && p.rtt_p90_ms >= 2.0);
        assert!((p.mean_path_links - 8.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_stats_cover_small_graphs_exactly() {
        // With n below the sample sizes, compute_sampled sees every source
        // and destination, so the hop statistics match the exact pass.
        let mut b = TopologyBuilder::new("chain4");
        let n = b.nodes(4, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[2], 1.0);
        b.link(n[2], n[3], 1.0);
        let t = b.build().unwrap();
        let rt = RouteTable::build(&t);
        let exact = PathStats::compute(&rt);
        let sampled = PathStats::compute_sampled(&rt);
        assert_eq!(sampled.max_path_links, exact.max_path_links);
        assert_eq!(sampled.rtt_max_ms, exact.rtt_max_ms);
        // Symmetric latencies: 2×one-way equals the two-directional sum.
        assert_eq!(sampled.rtt_mean_ms, exact.rtt_mean_ms);
    }
}
