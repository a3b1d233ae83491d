//! Deterministic shortest-path routing.
//!
//! Flows follow latency-shortest paths (ties broken first by hop count, then
//! lexicographically by node id) so that routing — and therefore every
//! experiment — is a pure function of the topology. The [`RouteTable`] caches
//! the path for every ordered node pair; the upstream/downstream split of
//! §2.2 (`upstream data path of a flow w.r.t. a monitoring switch`) is
//! computed on [`Path`].

use crate::graph::{LinkId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A concrete routed path between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Visited nodes, `nodes[0]` = source switch, `nodes.last()` = destination switch.
    pub nodes: Vec<NodeId>,
    /// Traversed links; `links[i]` connects `nodes[i]` and `nodes[i+1]`.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of links (hops between switches).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the path is a single node (source == destination).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Source switch.
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination switch.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// One-way propagation latency of the path in milliseconds.
    pub fn latency_ms(&self, topo: &Topology) -> f64 {
        self.links.iter().map(|&l| topo.link(l).latency_ms).sum()
    }

    /// Position of `n` on the path, if present.
    pub fn position_of(&self, n: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&x| x == n)
    }

    /// The **upstream** links w.r.t. monitoring switch `monitor`: the links the
    /// flow traverses *before* reaching `monitor` (§2.2). Empty when `monitor`
    /// is the source switch; `None` when `monitor` is not on the path.
    pub fn upstream_links(&self, monitor: NodeId) -> Option<&[LinkId]> {
        self.position_of(monitor).map(|pos| &self.links[..pos])
    }

    /// The **downstream** links w.r.t. `monitor`: links traversed after it.
    pub fn downstream_links(&self, monitor: NodeId) -> Option<&[LinkId]> {
        self.position_of(monitor).map(|pos| &self.links[pos..])
    }

    /// The next hop after `monitor` on this path, if any.
    pub fn next_hop(&self, monitor: NodeId) -> Option<NodeId> {
        let pos = self.position_of(monitor)?;
        self.nodes.get(pos + 1).copied()
    }
}

/// Dijkstra state ordered for a min-heap with deterministic tie-breaking.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    hops: u32,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need smallest first.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("link latencies are finite")
            .then(other.hops.cmp(&self.hops))
            .then(other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-destination predecessor: the `(previous node, link)` on the chosen
/// shortest path, `None` at the source and for unreachable nodes.
type ParentVec = Vec<Option<(NodeId, LinkId)>>;

/// Single-source shortest paths (latency metric, deterministic ties).
///
/// Returns `(dist, hops, parent)` where `parent[v]` is the `(previous node,
/// link)` on the chosen shortest path from `src` to `v`.
fn dijkstra(topo: &Topology, src: NodeId) -> (Vec<f64>, Vec<u32>, ParentVec) {
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut hops = vec![u32::MAX; n];
    let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.idx()] = 0.0;
    hops[src.idx()] = 0;
    heap.push(HeapEntry {
        dist: 0.0,
        hops: 0,
        node: src,
    });
    while let Some(HeapEntry {
        dist: d,
        hops: h,
        node: u,
    }) = heap.pop()
    {
        if done[u.idx()] {
            continue;
        }
        done[u.idx()] = true;
        for &(v, l) in topo.neighbors(u) {
            if done[v.idx()] {
                continue;
            }
            let nd = d + topo.link(l).latency_ms;
            let nh = h + 1;
            // Deterministic tie-break: distance, then hop count, then the id
            // of the parent node (neighbors are visited in sorted order, so
            // strict improvement is required to replace).
            let better = nd < dist[v.idx()]
                || (nd == dist[v.idx()] && nh < hops[v.idx()])
                || (nd == dist[v.idx()]
                    && nh == hops[v.idx()]
                    && parent[v.idx()].is_some_and(|(p, _)| u.0 < p.0));
            if better {
                dist[v.idx()] = nd;
                hops[v.idx()] = nh;
                parent[v.idx()] = Some((u, l));
                heap.push(HeapEntry {
                    dist: nd,
                    hops: nh,
                    node: v,
                });
            }
        }
    }
    (dist, hops, parent)
}

/// Node count above which scale-aware call sites switch from exact
/// all-pairs computation to deterministic sampling (traffic generation,
/// window sizing, coverage scans). At or below the threshold every code
/// path is bit-identical to the historical all-pairs implementation.
pub const SCALE_NODE_THRESHOLD: usize = 1024;

/// Routing engine abstraction: precomputed all-pairs ([`RouteTable`]) or
/// on-demand per-source trees (`OnDemandRoutes`) behind one interface, so
/// `netsim`/`core`/`runner` are agnostic to how paths are produced.
///
/// Implementations must agree bit-for-bit on every method for the same
/// topology: same latency→hop-count→lexicographic tie-break, `rtt_ms`
/// summing the two directional distances (which may differ in the last ulp
/// — see `OnDemandRoutes`), and [`Routes::all_rtts_ms`] in the canonical
/// src-major, dst-inner order of [`ordered_pairs`].
pub trait Routes: Send + Sync + std::fmt::Debug {
    /// Number of nodes routed over.
    fn node_count(&self) -> usize;
    /// The routed path from `src` to `dst` (owned; the diagonal yields a
    /// trivial single-node path).
    fn path(&self, src: NodeId, dst: NodeId) -> Path;
    /// One-way latency from `src` to `dst` in milliseconds.
    fn latency_ms(&self, src: NodeId, dst: NodeId) -> f64;
    /// Round-trip time in milliseconds: forward plus reverse latency.
    fn rtt_ms(&self, src: NodeId, dst: NodeId) -> f64;
    /// RTTs of all ordered pairs (src != dst) in [`ordered_pairs`] order.
    fn all_rtts_ms(&self) -> Vec<f64>;
}

impl Routes for RouteTable {
    fn node_count(&self) -> usize {
        RouteTable::node_count(self)
    }
    fn path(&self, src: NodeId, dst: NodeId) -> Path {
        RouteTable::path(self, src, dst).clone()
    }
    fn latency_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        RouteTable::latency_ms(self, src, dst)
    }
    fn rtt_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        RouteTable::rtt_ms(self, src, dst)
    }
    fn all_rtts_ms(&self) -> Vec<f64> {
        RouteTable::all_rtts_ms(self)
    }
}

/// All ordered `(src, dst)` pairs with `src != dst`, src-major — the
/// engine-independent equivalent of [`RouteTable::pairs`], byte-for-byte
/// the same sequence. Callers that consume RNG draws per pair rely on this
/// exact order.
pub fn ordered_pairs(n: usize) -> impl Iterator<Item = (NodeId, NodeId)> {
    debug_assert!(n <= usize::from(u16::MAX) + 1, "pairs need u16 node ids");
    let n = n as u16;
    (0..n).flat_map(move |s| {
        (0..n)
            .filter(move |&t| t != s)
            .map(move |t| (NodeId(s), NodeId(t)))
    })
}

/// All-pairs routes, precomputed. `O(n · (m log n))` to build.
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    /// `paths[src][dst]`; the diagonal holds trivial single-node paths.
    paths: Vec<Vec<Path>>,
    /// `dist[src][dst]` one-way latency in ms.
    dist: Vec<Vec<f64>>,
}

impl RouteTable {
    /// Build routes between every ordered pair of nodes.
    pub fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut paths = Vec::with_capacity(n);
        let mut dist = Vec::with_capacity(n);
        for s in topo.nodes() {
            let (d, _h, parent) = dijkstra(topo, s);
            let mut row = Vec::with_capacity(n);
            for t in topo.nodes() {
                if t == s {
                    row.push(Path {
                        nodes: vec![s],
                        links: vec![],
                    });
                    continue;
                }
                // Walk parents back from t to s.
                let mut nodes = vec![t];
                let mut links = Vec::new();
                let mut cur = t;
                while cur != s {
                    let (p, l) =
                        parent[cur.idx()].expect("topology is connected, parent must exist");
                    nodes.push(p);
                    links.push(l);
                    cur = p;
                }
                nodes.reverse();
                links.reverse();
                row.push(Path { nodes, links });
            }
            paths.push(row);
            dist.push(d);
        }
        RouteTable { n, paths, dist }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The routed path from `src` to `dst`.
    pub fn path(&self, src: NodeId, dst: NodeId) -> &Path {
        &self.paths[src.idx()][dst.idx()]
    }

    /// One-way latency from `src` to `dst` in milliseconds.
    pub fn latency_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        self.dist[src.idx()][dst.idx()]
    }

    /// Round-trip time between `src` and `dst` in milliseconds (symmetric
    /// routing: forward + reverse latency).
    pub fn rtt_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        self.dist[src.idx()][dst.idx()] + self.dist[dst.idx()][src.idx()]
    }

    /// RTTs of all ordered pairs (src != dst), for window sizing (§4.1 sets
    /// the sliding window to the 90th percentile of path RTTs).
    pub fn all_rtts_ms(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * (self.n - 1));
        for s in 0..self.n {
            for t in 0..self.n {
                if s != t {
                    out.push(self.dist[s][t] + self.dist[t][s]);
                }
            }
        }
        out
    }

    /// Iterate over all ordered `(src, dst)` pairs with `src != dst`.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let n = self.n as u16;
        (0..n).flat_map(move |s| {
            (0..n)
                .filter(move |&t| t != s)
                .map(move |t| (NodeId(s), NodeId(t)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    fn diamond() -> Topology {
        // s0 - s1 - s3 (1 + 1 ms) vs s0 - s2 - s3 (1 + 5 ms)
        let mut b = TopologyBuilder::new("diamond");
        let n = b.nodes(4, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[3], 1.0);
        b.link(n[0], n[2], 1.0);
        b.link(n[2], n[3], 5.0);
        b.build().unwrap()
    }

    #[test]
    fn picks_lower_latency_branch() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let p = rt.path(NodeId(0), NodeId(3));
        assert_eq!(
            p.nodes,
            vec![NodeId(0), NodeId(1), NodeId(3)],
            "should route via s1"
        );
        assert_eq!(rt.latency_ms(NodeId(0), NodeId(3)), 2.0);
        assert_eq!(rt.rtt_ms(NodeId(0), NodeId(3)), 4.0);
    }

    #[test]
    fn path_links_match_nodes() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        for (s, d) in rt.pairs() {
            let p = rt.path(s, d);
            assert_eq!(p.nodes.len(), p.links.len() + 1);
            assert_eq!(p.src(), s);
            assert_eq!(p.dst(), d);
            for (i, &l) in p.links.iter().enumerate() {
                let link = t.link(l);
                let (a, b) = (p.nodes[i], p.nodes[i + 1]);
                assert!(
                    (link.a == a && link.b == b) || (link.a == b && link.b == a),
                    "link {l:?} does not connect {a:?} and {b:?}"
                );
            }
        }
    }

    #[test]
    fn trivial_path_on_diagonal() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let p = rt.path(NodeId(2), NodeId(2));
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(rt.latency_ms(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-latency parallel routes: s0-s1-s3 and s0-s2-s3, all 1ms.
        let mut b = TopologyBuilder::new("tie");
        let n = b.nodes(4, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[3], 1.0);
        b.link(n[0], n[2], 1.0);
        b.link(n[2], n[3], 1.0);
        let t = b.build().unwrap();
        let p1 = RouteTable::build(&t).path(NodeId(0), NodeId(3)).clone();
        let p2 = RouteTable::build(&t).path(NodeId(0), NodeId(3)).clone();
        assert_eq!(p1, p2, "routing must be deterministic");
        // Tie broken toward the smaller intermediate node id.
        assert_eq!(p1.nodes[1], NodeId(1));
    }

    #[test]
    fn prefers_fewer_hops_on_equal_latency() {
        // Direct 2ms link vs two 1ms hops: equal latency, direct has fewer hops.
        let mut b = TopologyBuilder::new("hops");
        let n = b.nodes(3, "s");
        b.link(n[0], n[2], 2.0);
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[2], 1.0);
        let t = b.build().unwrap();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.path(NodeId(0), NodeId(2)).len(), 1);
    }

    #[test]
    fn upstream_downstream_split() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let p = rt.path(NodeId(0), NodeId(3));
        // Monitor at s1: upstream = first link, downstream = second.
        let up = p.upstream_links(NodeId(1)).unwrap();
        let down = p.downstream_links(NodeId(1)).unwrap();
        assert_eq!(up.len(), 1);
        assert_eq!(down.len(), 1);
        assert_eq!([up, down].concat(), p.links);
        // Monitor at the source: empty upstream.
        assert!(p.upstream_links(NodeId(0)).unwrap().is_empty());
        // Monitor at the destination: full path upstream.
        assert_eq!(p.upstream_links(NodeId(3)).unwrap(), &p.links[..]);
        // Off-path monitor: None.
        assert!(p.upstream_links(NodeId(2)).is_none());
    }

    #[test]
    fn next_hop() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let p = rt.path(NodeId(0), NodeId(3));
        assert_eq!(p.next_hop(NodeId(0)), Some(NodeId(1)));
        assert_eq!(p.next_hop(NodeId(1)), Some(NodeId(3)));
        assert_eq!(p.next_hop(NodeId(3)), None);
        assert_eq!(p.next_hop(NodeId(2)), None);
    }

    #[test]
    fn all_rtts_count() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        assert_eq!(rt.all_rtts_ms().len(), 4 * 3);
        assert!(rt.all_rtts_ms().iter().all(|&r| r > 0.0));
    }

    #[test]
    fn ordered_pairs_matches_route_table_pairs() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let a: Vec<_> = rt.pairs().collect();
        let b: Vec<_> = ordered_pairs(rt.node_count()).collect();
        assert_eq!(a, b, "trait-level pair order must match RouteTable::pairs");
    }

    #[test]
    fn route_table_implements_routes() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let dynr: &dyn Routes = &rt;
        assert_eq!(dynr.node_count(), 4);
        assert_eq!(
            dynr.path(NodeId(0), NodeId(3)),
            *rt.path(NodeId(0), NodeId(3))
        );
        assert_eq!(dynr.rtt_ms(NodeId(0), NodeId(3)), 4.0);
        assert_eq!(dynr.all_rtts_ms(), rt.all_rtts_ms());
    }

    #[test]
    fn pairs_iterates_everything_once() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let pairs: Vec<_> = rt.pairs().collect();
        assert_eq!(pairs.len(), 12);
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 12);
    }
}
