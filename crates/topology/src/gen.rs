//! Random topology generators, used by property-based tests and stress tests.
//!
//! The generators always return *connected* graphs: a random spanning tree is
//! laid down first, then extra edges follow the model's attachment rule.

use crate::csr::CsrTopology;
use crate::graph::{Topology, TopologyBuilder};
use db_util::Pcg64;

/// Largest `n` accepted by [`as_graph`]: above this the ~1.1·n links of the
/// m=1-plus-shortcuts regime overflow the `u16` link-id budget the
/// simulation stack requires. Bigger AS graphs are CSR-only ([`as_csr`]).
pub const AS_GRAPH_MAX_NODES: usize = 50_000;

/// Shared AS-graph edge construction: a fully meshed long-haul core plus
/// deterministic preferential attachment with tiered latencies.
///
/// * **Core tier** — `min(8 + n/1250, 64)` nodes in a clique with
///   long-haul latencies (5–40 ms), standing in for transit ASes.
/// * **Attachment** — every further node attaches to `m` distinct targets
///   sampled degree-proportionally from a repeated-endpoints list
///   (`BTreeSet` dedup, so link creation order never depends on hash
///   iteration). Latency is 1–5 ms toward a core node (gateway uplink),
///   0.2–2 ms otherwise (edge/access).
/// * **Shortcuts** — `shortcuts` extra degree-proportional peerings
///   (0.5–3 ms), restoring path redundancy when `m == 1`.
///
/// Everything is a pure function of `(n, m, shortcuts, seed)`.
fn as_edges(n: usize, m: usize, shortcuts: usize, seed: u64) -> Vec<(u32, u32, f64)> {
    assert!(n >= 4, "as graph needs at least 4 nodes");
    assert!(m >= 1, "as graph needs m >= 1");
    let mut rng = Pcg64::new_stream(seed, 0xA5);
    let core = (8 + n / 1250).clamp(2, 64).min(n);
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut endpoints: Vec<u32> = Vec::new();
    for u in 0..core {
        for v in (u + 1)..core {
            edges.push((u as u32, v as u32, rng.range_f64(5.0, 40.0)));
            endpoints.push(u as u32);
            endpoints.push(v as u32);
        }
    }
    for new in core..n {
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m.min(new) {
            chosen.insert(endpoints[rng.index(endpoints.len())]);
        }
        for &t in &chosen {
            let latency = if (t as usize) < core {
                rng.range_f64(1.0, 5.0)
            } else {
                rng.range_f64(0.2, 2.0)
            };
            edges.push((new as u32, t, latency));
            endpoints.push(new as u32);
            endpoints.push(t);
        }
    }
    let mut seen: std::collections::BTreeSet<(u32, u32)> = edges
        .iter()
        .map(|&(a, b, _)| (a.min(b), a.max(b)))
        .collect();
    for _ in 0..shortcuts {
        // Bounded retry: on dense graphs a sampled pair may already exist.
        for _attempt in 0..8 {
            let u = endpoints[rng.index(endpoints.len())];
            let v = endpoints[rng.index(endpoints.len())];
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                continue;
            }
            edges.push((u, v, rng.range_f64(0.5, 3.0)));
            endpoints.push(u);
            endpoints.push(v);
            break;
        }
    }
    edges
}

/// AS-graph-style topology for simulation: power-law degrees via
/// deterministic preferential attachment over a long-haul core clique (see
/// `as_edges` above for the tier structure). Accepts up to
/// [`AS_GRAPH_MAX_NODES`] nodes; `n ≤ 30_000` attaches with `m = 2`,
/// larger graphs use `m = 1` plus `n/10` shortcut peerings to stay inside
/// the `u16` link-id budget.
pub fn as_graph(n: usize, seed: u64) -> Topology {
    assert!(
        n <= AS_GRAPH_MAX_NODES,
        "as graph is capped at {AS_GRAPH_MAX_NODES} nodes by the u16 link budget; \
         use as_csr for larger graphs"
    );
    let (m, shortcuts) = if n <= 30_000 { (2, 0) } else { (1, n / 10) };
    let edges = as_edges(n, m, shortcuts, seed);
    let mut b = TopologyBuilder::new(format!("as{n}"));
    let ids = b.nodes(n, "a");
    for &(u, v, latency) in &edges {
        b.link(ids[u as usize], ids[v as usize], latency);
    }
    b.build().expect("as graph construction is valid")
}

/// AS graph built straight into CSR form, bypassing the `u16` id space —
/// the 10⁵-node path, for landmark estimation.
pub fn as_csr(n: usize, m: usize, seed: u64) -> CsrTopology {
    let edges = as_edges(n, m, 0, seed);
    CsrTopology::from_edges(format!("as{n}m{m}"), n, &edges)
}

/// Waxman random geometric graph: `n` nodes on a unit square; after a random
/// spanning tree, extra pairs (u, v) are linked with probability
/// `alpha * exp(-d(u,v) / (beta * L))` where `L` is the maximum distance.
/// Latency is proportional to distance (scaled to `[0.5, 10]` ms).
pub fn waxman(n: usize, alpha: f64, beta: f64, seed: u64) -> Topology {
    assert!(n >= 2, "waxman needs at least two nodes");
    assert!(
        alpha > 0.0 && beta > 0.0,
        "waxman parameters must be positive"
    );
    let mut rng = Pcg64::new_stream(seed, 0x3A47);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.f64(), rng.f64())).collect();
    let dist = |u: usize, v: usize| -> f64 {
        let dx = pts[u].0 - pts[v].0;
        let dy = pts[u].1 - pts[v].1;
        (dx * dx + dy * dy).sqrt()
    };
    let mut b = TopologyBuilder::new(format!("waxman{n}"));
    let ids = b.nodes(n, "w");
    // Random spanning tree: connect each node to a random earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    for i in 1..n {
        let u = order[i];
        let v = order[rng.index(i)];
        b.link(ids[u], ids[v], latency_of(dist(u, v)));
    }
    let l = std::f64::consts::SQRT_2;
    for u in 0..n {
        for v in (u + 1)..n {
            if b.has_link(ids[u], ids[v]) {
                continue;
            }
            let p = alpha * (-dist(u, v) / (beta * l)).exp();
            if rng.chance(p) {
                b.link(ids[u], ids[v], latency_of(dist(u, v)));
            }
        }
    }
    b.build().expect("waxman construction is valid")
}

fn latency_of(distance: f64) -> f64 {
    0.5 + distance * 6.7
}

/// Barabási-Albert preferential attachment: start from a small clique, then
/// each new node attaches to `m` existing nodes with probability proportional
/// to degree. Produces hub-dominated graphs like Chinanet.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Topology {
    assert!(m >= 1, "barabasi_albert needs m >= 1");
    assert!(n > m, "barabasi_albert needs n > m");
    let mut rng = Pcg64::new_stream(seed, 0xBA);
    let mut b = TopologyBuilder::new(format!("ba{n}_{m}"));
    let ids = b.nodes(n, "b");
    // Repeated-endpoint list: sampling from it is degree-proportional.
    let mut endpoints: Vec<usize> = Vec::new();
    // Seed clique of m+1 nodes.
    for u in 0..=m {
        for v in (u + 1)..=m {
            b.link(ids[u], ids[v], 0.5 + 4.0 * rng.f64());
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for new in (m + 1)..n {
        // BTreeSet, not HashSet: links are created in iteration order below,
        // and HashSet order varies per process (seeded RandomState), which
        // would scramble LinkId assignment and every subsequent weight draw.
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m {
            let t = endpoints[rng.index(endpoints.len())];
            chosen.insert(t);
        }
        for &t in &chosen {
            b.link(ids[new], ids[t], 0.5 + 4.0 * rng.f64());
            endpoints.push(new);
            endpoints.push(t);
        }
    }
    b.build().expect("barabasi-albert construction is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TopologyStats;

    #[test]
    fn waxman_is_connected_and_deterministic() {
        let a = waxman(30, 0.4, 0.3, 7);
        let b = waxman(30, 0.4, 0.3, 7);
        assert!(a.is_connected());
        assert_eq!(a.link_count(), b.link_count());
        assert!(a.link_count() >= 29, "at least a spanning tree");
        let c = waxman(30, 0.4, 0.3, 8);
        // Different seed should (almost surely) give a different graph.
        assert!(
            a.link_count() != c.link_count() || {
                a.links()
                    .iter()
                    .zip(c.links())
                    .any(|(x, y)| x.a != y.a || x.b != y.b)
            }
        );
    }

    #[test]
    fn waxman_density_grows_with_alpha() {
        let sparse = waxman(40, 0.1, 0.2, 3);
        let dense = waxman(40, 0.9, 0.6, 3);
        assert!(dense.link_count() > sparse.link_count());
    }

    #[test]
    fn ba_hub_dominance() {
        let t = barabasi_albert(60, 2, 11);
        assert!(t.is_connected());
        // n-m-1 new nodes each add m links, plus the seed clique.
        assert_eq!(t.link_count(), 3 + (60 - 3) * 2);
        let s = TopologyStats::compute(&t);
        assert!(
            s.degree_skewness > 1.0,
            "preferential attachment must be right-skewed, got {}",
            s.degree_skewness
        );
    }

    #[test]
    #[should_panic(expected = "n > m")]
    fn ba_rejects_bad_params() {
        barabasi_albert(3, 3, 1);
    }

    #[test]
    fn as_graph_is_connected_deterministic_and_skewed() {
        let a = as_graph(600, 7);
        let b = as_graph(600, 7);
        assert!(a.is_connected());
        assert_eq!(a.link_count(), b.link_count());
        assert!(a
            .links()
            .iter()
            .zip(b.links())
            .all(|(x, y)| x.a == y.a && x.b == y.b && x.latency_ms == y.latency_ms));
        let s = TopologyStats::compute(&a);
        assert!(
            s.degree_skewness > 1.0,
            "preferential attachment must be right-skewed, got {}",
            s.degree_skewness
        );
        let c = as_graph(600, 8);
        assert!(a
            .links()
            .iter()
            .zip(c.links())
            .any(|(x, y)| x.a != y.a || x.b != y.b || x.latency_ms != y.latency_ms));
    }

    #[test]
    fn as_graph_latencies_are_tiered() {
        let t = as_graph(400, 3);
        let core = 8; // 8 + n/1250 core nodes: n=400 adds none
        let core_lat: Vec<f64> = t
            .links()
            .iter()
            .filter(|l| (l.a.0 as usize) < core && (l.b.0 as usize) < core)
            .map(|l| l.latency_ms)
            .collect();
        let edge_lat: Vec<f64> = t
            .links()
            .iter()
            .filter(|l| (l.a.0 as usize) >= core && (l.b.0 as usize) >= core)
            .map(|l| l.latency_ms)
            .collect();
        assert!(!core_lat.is_empty() && !edge_lat.is_empty());
        assert!(core_lat.iter().all(|&l| l >= 5.0), "core is long-haul");
        assert!(edge_lat.iter().all(|&l| l < 5.0), "edge tier is short");
    }

    #[test]
    fn as_csr_scales_past_u16_ids() {
        let c = as_csr(70_000, 2, 1);
        assert_eq!(c.node_count(), 70_000);
        assert!(c.link_count() > 70_000, "m=2 attachment beats tree density");
        assert!(c.is_connected());
        // Deterministic: same seed, same graph.
        assert_eq!(as_csr(70_000, 2, 1), c);
    }

    #[test]
    fn as_graph_large_regime_fits_u16_links() {
        // Spot-check the m=1 + shortcuts regime stays under the link cap
        // without building the full 50k graph in a unit test.
        let t = as_graph(31_000, 5);
        assert!(t.is_connected());
        assert!(t.link_count() < usize::from(u16::MAX));
        assert!(
            t.link_count() > 31_000,
            "shortcuts must add redundancy beyond the attachment tree"
        );
    }
}
