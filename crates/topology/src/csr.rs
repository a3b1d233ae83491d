//! Compressed-sparse-row topology core for large graphs.
//!
//! [`Topology`] stores adjacency as per-node `Vec`s of `(NodeId, LinkId)`
//! pairs and caps ids at the `u16` space — comfortable for the few-hundred-
//! node evaluation topologies, but the wrong shape for 10⁴–10⁵-node AS
//! graphs. [`CsrTopology`] is the scale representation: one contiguous
//! offset array plus two parallel row arrays (neighbor node, incident link)
//! and struct-of-arrays link attributes. Node and link ids are dense `u32`s;
//! rows are sorted by `(neighbor, link)` exactly like `TopologyBuilder`
//! sorts adjacency, so Dijkstra visits neighbors in the same order through
//! either representation and routing stays bit-identical.
//!
//! A CSR graph can come from three places: converted from a validated
//! [`Topology`] ([`CsrTopology::from_topology`]), parsed from a plain-text
//! edge list ([`CsrTopology::from_edge_list_text`], `Result`-based with
//! line-carrying [`EdgeListError`]s), or built directly from a generator's
//! edge vector ([`CsrTopology::from_edges`]).

use crate::graph::{Topology, TopologyBuilder, TopologyError, DEFAULT_BANDWIDTH_MBPS};
use std::collections::VecDeque;

/// Why an edge-list text could not be turned into a [`CsrTopology`].
///
/// Every parse-stage variant carries the 1-based line number it was found
/// on, in the spirit of the offset-carrying `WireError` in `db-util`: the
/// loader never panics, and the caller can point the user at the exact line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeListError {
    /// The first significant line must be `nodes <count>`.
    MissingHeader,
    /// A `nodes` header whose count is absent or not a positive integer.
    BadHeader {
        /// 1-based line of the offending header.
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
    /// An endpoint token that is not a non-negative integer.
    BadNode {
        /// 1-based line of the offending edge.
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
    /// An endpoint at or beyond the declared node count.
    UnknownNode {
        /// 1-based line of the offending edge.
        line: usize,
        /// The out-of-range node id.
        id: u64,
        /// The declared node count.
        nodes: u64,
    },
    /// An edge from a node to itself.
    SelfLoop {
        /// 1-based line of the offending edge.
        line: usize,
        /// The repeated node id.
        id: u64,
    },
    /// The same unordered node pair listed twice.
    DuplicateEdge {
        /// 1-based line of the second occurrence.
        line: usize,
        /// Smaller endpoint of the pair.
        a: u64,
        /// Larger endpoint of the pair.
        b: u64,
    },
    /// A latency or bandwidth that is not a positive finite number.
    BadWeight {
        /// 1-based line of the offending edge.
        line: usize,
        /// The token that failed to parse or validate.
        token: String,
    },
    /// An edge line with fewer than 3 or more than 4 fields.
    BadFieldCount {
        /// 1-based line of the offending edge.
        line: usize,
        /// How many whitespace-separated fields the line has.
        fields: usize,
    },
    /// The header declared zero nodes.
    Empty,
    /// The edge list does not connect all declared nodes.
    Disconnected,
}

impl std::fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeListError::MissingHeader => {
                write!(f, "edge list must start with a `nodes <count>` header")
            }
            EdgeListError::BadHeader { line, token } => {
                write!(f, "line {line}: bad node count '{token}' in header")
            }
            EdgeListError::BadNode { line, token } => {
                write!(f, "line {line}: '{token}' is not a node id")
            }
            EdgeListError::UnknownNode { line, id, nodes } => {
                write!(
                    f,
                    "line {line}: unknown node {id} (header declares {nodes} nodes)"
                )
            }
            EdgeListError::SelfLoop { line, id } => {
                write!(f, "line {line}: self-loop on node {id}")
            }
            EdgeListError::DuplicateEdge { line, a, b } => {
                write!(f, "line {line}: duplicate edge {a}-{b}")
            }
            EdgeListError::BadWeight { line, token } => {
                write!(f, "line {line}: '{token}' is not a positive finite weight")
            }
            EdgeListError::BadFieldCount { line, fields } => {
                write!(
                    f,
                    "line {line}: expected `a b latency_ms [bandwidth_mbps]`, got {fields} fields"
                )
            }
            EdgeListError::Empty => write!(f, "edge list declares zero nodes"),
            EdgeListError::Disconnected => write!(f, "edge list graph is not connected"),
        }
    }
}

impl std::error::Error for EdgeListError {}

/// A topology in compressed-sparse-row form with dense `u32` ids.
///
/// Memory is `4(n+1) + 16m` bytes of adjacency plus `24m` bytes of link
/// attributes — a 10⁵-node, 2·10⁵-edge AS graph fits in ~8 MB. Node ids are
/// `0..node_count()`, link ids `0..link_count()`; both index directly into
/// the arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrTopology {
    name: String,
    /// `offsets[u]..offsets[u+1]` is node `u`'s row in the neighbor arrays.
    offsets: Vec<u32>,
    /// Neighbor node of each directed row entry, row-sorted by `(node, link)`.
    nbr_node: Vec<u32>,
    /// Link traversed to reach the matching `nbr_node` entry.
    nbr_link: Vec<u32>,
    /// Smaller endpoint of each link.
    link_a: Vec<u32>,
    /// Larger endpoint of each link.
    link_b: Vec<u32>,
    /// One-way propagation latency per link, milliseconds.
    latency_ms: Vec<f64>,
    /// Link capacity, megabits per second.
    bandwidth_mbps: Vec<f64>,
    /// Smallest and largest `latency_ms`, taken once at construction.
    latency_range_ms: (f64, f64),
}

/// `(min, max)` of `latencies`; `(∞, 0)` for a graph without links.
fn range_of(latencies: &[f64]) -> (f64, f64) {
    latencies
        .iter()
        .fold((f64::INFINITY, 0.0), |(lo, hi), &l| (lo.min(l), hi.max(l)))
}

impl CsrTopology {
    /// Convert a validated [`Topology`] into CSR form.
    ///
    /// Adjacency rows copy the builder's `(node, link)`-sorted order, so
    /// shortest-path computations over either representation visit
    /// neighbors identically.
    pub fn from_topology(topo: &Topology) -> Self {
        let n = topo.node_count();
        let m = topo.link_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr_node = Vec::with_capacity(2 * m);
        let mut nbr_link = Vec::with_capacity(2 * m);
        offsets.push(0);
        for u in topo.nodes() {
            for &(v, l) in topo.neighbors(u) {
                nbr_node.push(u32::from(v.0));
                nbr_link.push(u32::from(l.0));
            }
            offsets.push(nbr_node.len() as u32);
        }
        let mut link_a = Vec::with_capacity(m);
        let mut link_b = Vec::with_capacity(m);
        let mut latency_ms = Vec::with_capacity(m);
        let mut bandwidth_mbps = Vec::with_capacity(m);
        for l in topo.links() {
            link_a.push(u32::from(l.a.0));
            link_b.push(u32::from(l.b.0));
            latency_ms.push(l.latency_ms);
            bandwidth_mbps.push(l.bandwidth_mbps);
        }
        CsrTopology {
            name: topo.name().to_string(),
            offsets,
            nbr_node,
            nbr_link,
            link_a,
            link_b,
            latency_range_ms: range_of(&latency_ms),
            latency_ms,
            bandwidth_mbps,
        }
    }

    /// Build directly from a generator's edge vector `(a, b, latency_ms)`.
    ///
    /// Links get ids in input order and [`DEFAULT_BANDWIDTH_MBPS`]. This is
    /// the trusted-input constructor for deterministic generators; it panics
    /// on self-loops, out-of-range endpoints, or non-positive latencies
    /// (programmer error), and does **not** check for duplicate edges or
    /// connectivity — generators guarantee both by construction. Untrusted
    /// text goes through [`CsrTopology::from_edge_list_text`] instead.
    pub fn from_edges(name: impl Into<String>, n: usize, edges: &[(u32, u32, f64)]) -> Self {
        assert!(n > 0, "CsrTopology::from_edges: empty graph");
        assert!(
            n <= u32::MAX as usize && edges.len() <= u32::MAX as usize,
            "CsrTopology::from_edges: exceeds u32 id space"
        );
        for &(a, b, lat) in edges {
            assert!(a != b, "CsrTopology::from_edges: self-loop on {a}");
            assert!(
                (a as usize) < n && (b as usize) < n,
                "CsrTopology::from_edges: endpoint out of range"
            );
            assert!(
                lat.is_finite() && lat > 0.0,
                "CsrTopology::from_edges: bad latency {lat}"
            );
        }
        let mut link_a = Vec::with_capacity(edges.len());
        let mut link_b = Vec::with_capacity(edges.len());
        let mut latency_ms = Vec::with_capacity(edges.len());
        for &(a, b, lat) in edges {
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            link_a.push(a);
            link_b.push(b);
            latency_ms.push(lat);
        }
        let bandwidth_mbps = vec![DEFAULT_BANDWIDTH_MBPS; edges.len()];

        // Directed row entries, sorted to the canonical (src, nbr, link)
        // order; a counting sort over sources would also work but the
        // comparison sort keeps this allocation-light and obviously right.
        let mut rows: Vec<(u32, u32, u32)> = Vec::with_capacity(2 * edges.len());
        for (i, (&a, &b)) in link_a.iter().zip(link_b.iter()).enumerate() {
            rows.push((a, b, i as u32));
            rows.push((b, a, i as u32));
        }
        rows.sort_unstable();
        let mut offsets = vec![0u32; n + 1];
        let mut nbr_node = Vec::with_capacity(rows.len());
        let mut nbr_link = Vec::with_capacity(rows.len());
        for &(src, nbr, link) in &rows {
            offsets[src as usize + 1] += 1;
            nbr_node.push(nbr);
            nbr_link.push(link);
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        CsrTopology {
            name: name.into(),
            offsets,
            nbr_node,
            nbr_link,
            link_a,
            link_b,
            latency_range_ms: range_of(&latency_ms),
            latency_ms,
            bandwidth_mbps,
        }
    }

    /// Parse a plain-text edge list.
    ///
    /// Format (see README): `#` starts a comment, blank lines are skipped,
    /// the first significant line is `nodes <count>`, and every following
    /// line is `a b latency_ms [bandwidth_mbps]` with integer endpoints
    /// below the declared count. All failures are reported as line-carrying
    /// [`EdgeListError`]s — this path never panics.
    pub fn from_edge_list_text(name: impl Into<String>, text: &str) -> Result<Self, EdgeListError> {
        let mut n: Option<usize> = None;
        let mut edges: Vec<(u32, u32, f64, f64)> = Vec::new();
        let mut seen: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            let Some(n) = n else {
                if fields.first() != Some(&"nodes") || fields.len() != 2 {
                    return Err(EdgeListError::MissingHeader);
                }
                let count: u64 = fields[1].parse().map_err(|_| EdgeListError::BadHeader {
                    line,
                    token: fields[1].to_string(),
                })?;
                if count == 0 {
                    return Err(EdgeListError::Empty);
                }
                if count > u32::MAX as u64 {
                    return Err(EdgeListError::BadHeader {
                        line,
                        token: fields[1].to_string(),
                    });
                }
                n = Some(count as usize);
                continue;
            };
            if !(3..=4).contains(&fields.len()) {
                return Err(EdgeListError::BadFieldCount {
                    line,
                    fields: fields.len(),
                });
            }
            let node = |tok: &str| -> Result<u64, EdgeListError> {
                tok.parse().map_err(|_| EdgeListError::BadNode {
                    line,
                    token: tok.to_string(),
                })
            };
            let (a, b) = (node(fields[0])?, node(fields[1])?);
            for id in [a, b] {
                if id >= n as u64 {
                    return Err(EdgeListError::UnknownNode {
                        line,
                        id,
                        nodes: n as u64,
                    });
                }
            }
            if a == b {
                return Err(EdgeListError::SelfLoop { line, id: a });
            }
            let weight = |tok: &str| -> Result<f64, EdgeListError> {
                let bad = || EdgeListError::BadWeight {
                    line,
                    token: tok.to_string(),
                };
                let v: f64 = tok.parse().map_err(|_| bad())?;
                if v.is_finite() && v > 0.0 {
                    Ok(v)
                } else {
                    Err(bad())
                }
            };
            let latency = weight(fields[2])?;
            let bandwidth = match fields.get(3) {
                Some(tok) => weight(tok)?,
                None => DEFAULT_BANDWIDTH_MBPS,
            };
            let (lo, hi) = if a <= b {
                (a as u32, b as u32)
            } else {
                (b as u32, a as u32)
            };
            if !seen.insert((lo, hi)) {
                return Err(EdgeListError::DuplicateEdge {
                    line,
                    a: lo as u64,
                    b: hi as u64,
                });
            }
            edges.push((lo, hi, latency, bandwidth));
        }
        let n = n.ok_or(EdgeListError::MissingHeader)?;
        let plain: Vec<(u32, u32, f64)> = edges.iter().map(|&(a, b, l, _)| (a, b, l)).collect();
        let mut csr = CsrTopology::from_edges(name, n, &plain);
        for (i, &(_, _, _, bw)) in edges.iter().enumerate() {
            csr.bandwidth_mbps[i] = bw;
        }
        if !csr.is_connected() {
            return Err(EdgeListError::Disconnected);
        }
        Ok(csr)
    }

    /// Topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.latency_ms.len()
    }

    /// Node `u`'s CSR row as parallel `(neighbor nodes, incident links)`
    /// slices, sorted by `(neighbor, link)`. Out-of-range ids get empty
    /// slices. This is the per-edge-relaxation accessor of the on-demand
    /// router and is registered in the lint hot tier: panic-free,
    /// allocation-free, index-free.
    #[inline]
    pub fn neighbors(&self, u: u32) -> (&[u32], &[u32]) {
        let ui = u as usize;
        let (lo, hi) = match (self.offsets.get(ui), self.offsets.get(ui + 1)) {
            (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
            _ => return (&[], &[]),
        };
        match (self.nbr_node.get(lo..hi), self.nbr_link.get(lo..hi)) {
            (Some(nodes), Some(links)) => (nodes, links),
            _ => (&[], &[]),
        }
    }

    /// One-way latency of link `l` in milliseconds.
    #[inline]
    pub fn link_latency_ms(&self, l: u32) -> f64 {
        self.latency_ms[l as usize]
    }

    /// Smallest and largest one-way link latency in milliseconds, `(∞, 0)`
    /// for a graph without links. Every latency is positive and finite:
    /// all three constructors reject anything else.
    pub(crate) fn latency_range_ms(&self) -> (f64, f64) {
        self.latency_range_ms
    }

    /// Bandwidth of link `l` in Mbps.
    pub fn link_bandwidth_mbps(&self, l: u32) -> f64 {
        self.bandwidth_mbps[l as usize]
    }

    /// Endpoints of link `l` as `(smaller, larger)` node id.
    pub fn link_endpoints(&self, l: u32) -> (u32, u32) {
        (self.link_a[l as usize], self.link_b[l as usize])
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: u32) -> usize {
        let (nodes, _) = self.neighbors(u);
        nodes.len()
    }

    /// The `k` highest-degree nodes, ties broken toward the smaller id —
    /// the landmark selection rule (DESIGN.md §14).
    pub fn top_degree_nodes(&self, k: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.node_count() as u32).collect();
        ids.sort_unstable_by_key(|&u| (std::cmp::Reverse(self.degree(u)), u));
        ids.truncate(k);
        ids
    }

    /// Whether every node is reachable from node 0 (BFS over the rows).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[0] = true;
        q.push_back(0u32);
        let mut count = 1usize;
        while let Some(u) = q.pop_front() {
            let (nodes, _) = self.neighbors(u);
            for &v in nodes {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    q.push_back(v);
                }
            }
        }
        count == n
    }

    /// Convert back into a validated [`Topology`], or
    /// [`TopologyError::TooLarge`] when ids exceed the `u16` space the
    /// simulation stack requires.
    pub fn to_topology(&self) -> Result<Topology, TopologyError> {
        let n = self.node_count();
        if n > usize::from(u16::MAX) + 1 || self.link_count() > usize::from(u16::MAX) + 1 {
            return Err(TopologyError::TooLarge);
        }
        let mut b = TopologyBuilder::new(self.name.clone());
        let ids = b.nodes(n, "s");
        for l in 0..self.link_count() as u32 {
            let (a, bnode) = self.link_endpoints(l);
            b.link_bw(
                ids[a as usize],
                ids[bnode as usize],
                self.link_latency_ms(l),
                self.link_bandwidth_mbps(l),
            );
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkId, NodeId};

    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new("diamond");
        let n = b.nodes(4, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[3], 1.0);
        b.link(n[0], n[2], 1.0);
        b.link(n[2], n[3], 5.0);
        b.build().unwrap()
    }

    #[test]
    fn from_topology_mirrors_adjacency() {
        let t = diamond();
        let c = CsrTopology::from_topology(&t);
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.link_count(), 4);
        for u in t.nodes() {
            let (nodes, links) = c.neighbors(u32::from(u.0));
            let legacy: Vec<(u32, u32)> = t
                .neighbors(u)
                .iter()
                .map(|&(v, l)| (u32::from(v.0), u32::from(l.0)))
                .collect();
            let csr: Vec<(u32, u32)> = nodes.iter().zip(links).map(|(&v, &l)| (v, l)).collect();
            assert_eq!(csr, legacy, "row for {u}");
        }
        for l in t.link_ids() {
            let link = t.link(l);
            assert_eq!(
                c.link_endpoints(u32::from(l.0)),
                (u32::from(link.a.0), u32::from(link.b.0))
            );
            assert_eq!(c.link_latency_ms(u32::from(l.0)), link.latency_ms);
            assert_eq!(c.link_bandwidth_mbps(u32::from(l.0)), link.bandwidth_mbps);
        }
    }

    #[test]
    fn from_edges_rows_are_sorted() {
        // Insert edges out of order; rows must still come out (node, link)-sorted.
        let c = CsrTopology::from_edges("t", 4, &[(3, 1, 1.0), (0, 1, 1.0), (2, 1, 1.0)]);
        let (nodes, links) = c.neighbors(1);
        assert_eq!(nodes, &[0, 2, 3]);
        assert_eq!(links, &[1, 2, 0]);
        assert!(c.is_connected());
    }

    #[test]
    fn round_trips_through_topology() {
        let t = diamond();
        let c = CsrTopology::from_topology(&t);
        let back = c.to_topology().unwrap();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.link_count(), t.link_count());
        for l in t.link_ids() {
            assert_eq!(back.link(l).a, t.link(l).a);
            assert_eq!(back.link(l).b, t.link(l).b);
            assert_eq!(back.link(l).latency_ms, t.link(l).latency_ms);
        }
        // Equivalence the other way: re-converting gives the same CSR.
        assert_eq!(CsrTopology::from_topology(&back), c);
    }

    #[test]
    fn out_of_range_neighbors_are_empty() {
        let c = CsrTopology::from_edges("t", 2, &[(0, 1, 1.0)]);
        assert_eq!(c.neighbors(9), (&[][..], &[][..]));
    }

    #[test]
    fn parses_edge_list_with_comments_and_bandwidth() {
        let text = "# demo\nnodes 3\n0 1 1.5\n1 2 2.0 40000 # fat pipe\n";
        let c = CsrTopology::from_edge_list_text("demo", text).unwrap();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.link_count(), 2);
        assert_eq!(c.link_latency_ms(0), 1.5);
        assert_eq!(c.link_bandwidth_mbps(0), DEFAULT_BANDWIDTH_MBPS);
        assert_eq!(c.link_bandwidth_mbps(1), 40000.0);
    }

    #[test]
    fn edge_list_errors_carry_lines() {
        let missing = CsrTopology::from_edge_list_text("t", "0 1 1.0\n");
        assert_eq!(missing.unwrap_err(), EdgeListError::MissingHeader);

        let unknown = CsrTopology::from_edge_list_text("t", "nodes 2\n0 5 1.0\n");
        assert_eq!(
            unknown.unwrap_err(),
            EdgeListError::UnknownNode {
                line: 2,
                id: 5,
                nodes: 2
            }
        );

        let weight = CsrTopology::from_edge_list_text("t", "nodes 2\n\n0 1 fast\n");
        assert_eq!(
            weight.unwrap_err(),
            EdgeListError::BadWeight {
                line: 3,
                token: "fast".into()
            }
        );

        let dup = CsrTopology::from_edge_list_text("t", "nodes 3\n0 1 1.0\n0 2 1.0\n1 0 2.0\n");
        assert_eq!(
            dup.unwrap_err(),
            EdgeListError::DuplicateEdge {
                line: 4,
                a: 0,
                b: 1
            }
        );

        let negative = CsrTopology::from_edge_list_text("t", "nodes 2\n0 1 -1.0\n");
        assert!(matches!(
            negative.unwrap_err(),
            EdgeListError::BadWeight { line: 2, .. }
        ));

        let selfloop = CsrTopology::from_edge_list_text("t", "nodes 2\n1 1 1.0\n");
        assert_eq!(
            selfloop.unwrap_err(),
            EdgeListError::SelfLoop { line: 2, id: 1 }
        );

        let split = CsrTopology::from_edge_list_text("t", "nodes 4\n0 1 1.0\n2 3 1.0\n");
        assert_eq!(split.unwrap_err(), EdgeListError::Disconnected);

        let fields = CsrTopology::from_edge_list_text("t", "nodes 2\n0 1\n");
        assert_eq!(
            fields.unwrap_err(),
            EdgeListError::BadFieldCount { line: 2, fields: 2 }
        );
    }

    #[test]
    fn edge_list_messages_are_pointable() {
        let err = CsrTopology::from_edge_list_text("t", "nodes 2\n0 9 1.0\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("unknown node 9"), "{msg}");
    }

    #[test]
    fn too_large_for_u16_is_reported() {
        // 70k nodes in a path graph: valid CSR, too big for Topology.
        let n = 70_000usize;
        let edges: Vec<(u32, u32, f64)> = (1..n as u32).map(|i| (i - 1, i, 1.0)).collect();
        let c = CsrTopology::from_edges("big", n, &edges);
        assert_eq!(c.node_count(), n);
        assert!(c.is_connected());
        assert_eq!(c.to_topology().unwrap_err(), TopologyError::TooLarge);
    }

    #[test]
    fn top_degree_prefers_small_ids_on_ties() {
        // Star at 2 (deg 3); all others degree-tied below it.
        let c = CsrTopology::from_edges("star", 4, &[(2, 0, 1.0), (2, 1, 1.0), (2, 3, 1.0)]);
        assert_eq!(c.top_degree_nodes(3), vec![2, 0, 1]);
    }

    #[test]
    fn dense_ids_match_graph_types() {
        // NodeId/LinkId stay u16 on the legacy side; CSR ids widen losslessly.
        let t = diamond();
        let c = CsrTopology::from_topology(&t);
        let (nodes, links) = c.neighbors(0);
        assert_eq!(NodeId(nodes[0] as u16), NodeId(1));
        assert_eq!(LinkId(links[0] as u16), LinkId(0));
    }
}
