//! On-demand routing over a [`CsrTopology`]: lazy per-source shortest-path
//! trees in a bounded, deterministic LRU cache.
//!
//! [`RouteTable::build`](crate::RouteTable::build) materializes all `n²` paths up front — `O(n²)`
//! memory that walls off every graph past a few thousand nodes. The
//! [`OnDemandRoutes`] engine instead keeps one resumable Dijkstra `Search`
//! per requested source, caches at most `capacity` of them, and
//! reconstructs paths from parent pointers on demand. Peak path storage is
//! bounded by the cache capacity, never by `n²`.
//!
//! **Lazy trees.** A cache miss settles nodes only until the asked
//! destination is settled; `path`/`latency_ms`/`rtt_ms` read the answer off
//! the partial tree. A later request beyond the settled frontier resumes
//! the search — the first one as far as its destination, the second one to
//! exhaustion (a resume costs an `O(n)` heap rebuild, so unbounded resumes
//! would be `O(n²)` per source on a graph whose ids are in distance order).
//! An exhausted search is frozen into an immutable [`SourceTree`] that is
//! read without the per-slot lock; [`OnDemandRoutes::tree`] and
//! `all_rtts_ms` force exhaustion. The heap is not kept between requests:
//! its live content is exactly the discovered, unsettled nodes at their
//! current `(dist, hops)`, so a resume rebuilds it from the arrays into a
//! reused buffer, and a resident partial tree costs what a whole one did.
//!
//! **Determinism argument** (DESIGN.md §14): the CSR Dijkstra mirrors the
//! legacy one operation for operation — same heap ordering, same neighbor
//! visit order (rows are `(node, link)`-sorted in both representations),
//! same floating-point additions in the same order, same strict-improvement
//! tie-break. Relaxation only ever writes unsettled nodes, so the `dist`
//! and `parent` of a settled node — and of every ancestor, settled earlier
//! — are final, and the pop order depends only on the total order of the
//! keys: a partial tree answers bit-identically to a whole one. A cached
//! tree is likewise bit-identical to a recomputed one, so cache hits,
//! misses, and evictions cannot change any produced path or distance — the
//! cache affects *when* and *how far* trees are computed, never *what* they
//! contain. Eviction itself is deterministic under single-threaded use
//! (least-recently-used by a monotonic tick), but no result depends on it.
//!
//! `rtt_ms` deliberately sums the forward and reverse tree distances
//! (`d_src[dst] + d_dst[src]`) instead of doubling one of them: the two
//! directional sums walk the same links in opposite orders, and f64
//! addition is not associative, so they can differ in the last ulp. The
//! legacy table sums both directions; byte-identical outputs require doing
//! the same here.

use crate::csr::CsrTopology;
use crate::graph::{LinkId, NodeId};
use crate::routing::{Path, Routes};
use db_telemetry::{Counter, Gauge, MetricsRegistry};
use db_util::sync::lock_recover;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{Arc, Mutex, OnceLock};

/// `parent` entry of the source and of nodes not yet discovered.
const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

/// A single-source shortest-path tree: distances plus `(parent node,
/// parent link)` pointers, both indexed by node id.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceTree {
    /// One-way latency from the source to each node, milliseconds.
    pub dist: Vec<f64>,
    /// Predecessor on the chosen shortest path; [`NO_PARENT`] at the source.
    parent: Vec<(u32, u32)>,
}

impl SourceTree {
    /// Reconstruct the path from this tree's source to `dst` into caller
    /// buffers (cleared first): `nodes` gets the visited switches source →
    /// `dst`, `links` the traversed link per hop. Returns `false` without
    /// panicking if `dst` is unreachable or out of range, or if an id on
    /// the path does not fit the `u16` [`NodeId`]/[`LinkId`] space (trees
    /// over larger graphs serve distances only). Registered in the lint hot
    /// tier: allocation beyond `push` into the reused buffers, indexing,
    /// and panics are all banned here.
    pub fn reconstruct_into(
        &self,
        src: u32,
        dst: u32,
        nodes: &mut Vec<NodeId>,
        links: &mut Vec<LinkId>,
    ) -> bool {
        nodes.clear();
        links.clear();
        let Ok(last) = u16::try_from(dst) else {
            return false;
        };
        nodes.push(NodeId(last));
        let mut cur = dst;
        let mut steps = 0usize;
        let limit = self.parent.len();
        while cur != src {
            let (p, l) = match self.parent.get(cur as usize) {
                Some(&pair) if pair != NO_PARENT => pair,
                _ => return false,
            };
            let (Ok(node), Ok(link)) = (u16::try_from(p), u16::try_from(l)) else {
                return false;
            };
            nodes.push(NodeId(node));
            links.push(LinkId(link));
            cur = p;
            steps += 1;
            if steps > limit {
                return false;
            }
        }
        nodes.reverse();
        links.reverse();
        true
    }
}

/// Settled flag, folded into the top bit of a node's hop word.
const DONE: u32 = 1 << 31;
/// Hop word of a node not yet discovered: unsettled, "infinite" hops.
const UNSEEN: u32 = DONE - 1;

/// Min-heap entry `(dist.to_bits(), hops, node)`. Latencies are finite and
/// positive, so distances are non-negative and their IEEE bit patterns
/// order like the values: the tuple orders exactly like the legacy
/// `HeapEntry` in [`crate::routing`] (distance, then hop count, then node
/// id) with integer comparisons only.
type HeapKey = Reverse<(u64, u32, u32)>;

thread_local! {
    /// Heap storage between this thread's searches, so a cache miss does
    /// not grow a new heap.
    static HEAP_BUF: Cell<Vec<HeapKey>> = const { Cell::new(Vec::new()) };
}

/// A resumable single-source Dijkstra over CSR rows, mirroring the legacy
/// `Topology` Dijkstra operation for operation (see the module docs for why
/// that matters). Deliberately a *separate* implementation rather than a
/// shared generic: the equivalence proptest in `tests/` is only meaningful
/// if the two engines cannot share a bug.
#[derive(Debug)]
struct Search {
    src: u32,
    /// Final for every settled node; tentative for discovered ones.
    tree: SourceTree,
    /// Hop count from the source, [`DONE`] set once the node is settled.
    hops: Vec<u32>,
    /// Whether a resume already stopped short of exhaustion.
    extended: bool,
}

impl Search {
    fn new(n: usize, src: u32) -> Self {
        let mut s = Search {
            src,
            tree: SourceTree {
                dist: vec![f64::INFINITY; n],
                parent: vec![NO_PARENT; n],
            },
            hops: vec![UNSEEN; n],
            extended: false,
        };
        s.tree.dist[src as usize] = 0.0;
        s.hops[src as usize] = 0;
        s
    }

    fn is_settled(&self, v: u32) -> bool {
        self.hops[v as usize] & DONE != 0
    }

    /// Settle nodes in key order until `until` is settled (`None`: until
    /// none is left). Returns whether the search is exhausted.
    fn advance(&mut self, csr: &CsrTopology, until: Option<u32>) -> bool {
        let fresh = !self.is_settled(self.src);
        let SourceTree { dist, parent } = &mut self.tree;
        let hops = &mut self.hops;
        // The heap's live content is the discovered, unsettled nodes at
        // their current (dist, hops); every other entry it ever held is
        // skipped when popped.
        let mut buf = HEAP_BUF.take();
        buf.clear();
        if fresh {
            buf.push(Reverse((0, 0, self.src)));
        } else {
            #[cfg(test)]
            tests::REBUILDS.with(|c| c.set(c.get() + 1));
            for (v, (&d, &h)) in dist.iter().zip(hops.iter()).enumerate() {
                if h & DONE == 0 && d < f64::INFINITY {
                    buf.push(Reverse((d.to_bits(), h, v as u32)));
                }
            }
        }
        let mut heap = BinaryHeap::from(buf);
        while let Some(Reverse((bits, h, u))) = heap.pop() {
            if hops[u as usize] & DONE != 0 {
                continue;
            }
            hops[u as usize] |= DONE;
            let d = f64::from_bits(bits);
            let (nbrs, links) = csr.neighbors(u);
            for (&v, &l) in nbrs.iter().zip(links) {
                let hv = hops[v as usize];
                if hv & DONE != 0 {
                    continue;
                }
                let nd = d + csr.link_latency_ms(l);
                let nh = h + 1;
                // Same strict-improvement tie-break as the legacy engine:
                // distance, then hops, then smaller parent id.
                let dv = dist[v as usize];
                let better = nd < dv
                    || (nd == dv && nh < hv)
                    || (nd == dv && nh == hv && {
                        let p = parent[v as usize];
                        p != NO_PARENT && u < p.0
                    });
                if better {
                    dist[v as usize] = nd;
                    hops[v as usize] = nh;
                    parent[v as usize] = (u, l);
                    heap.push(Reverse((nd.to_bits(), nh, v)));
                }
            }
            // `u`'s row is relaxed before stopping, so the arrays alone
            // carry the frontier to the next resume.
            if until == Some(u) {
                break;
            }
        }
        let exhausted = heap.is_empty();
        HEAP_BUF.set(heap.into_vec());
        exhausted
    }
}

/// Single-source shortest paths over CSR rows: a new search, settled to
/// exhaustion.
pub fn shortest_tree(csr: &CsrTopology, src: u32) -> SourceTree {
    let mut search = Search::new(csr.node_count(), src);
    search.advance(csr, None);
    search.tree
}

/// Route-cache occupancy and traffic counters, readable at any time via
/// [`OnDemandRoutes::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident tree (partial or whole).
    pub hits: u64,
    /// Lookups that started a new Dijkstra search.
    pub misses: u64,
    /// Trees discarded to stay within capacity.
    pub evictions: u64,
    /// Trees currently resident.
    pub resident: usize,
    /// High-water mark of resident trees — never exceeds `capacity`.
    pub peak_resident: usize,
    /// Configured capacity bound.
    pub capacity: usize,
}

/// One cached source. `search` is `None` before the first request and
/// after the freeze; once `frozen` is set the slot is read without taking
/// the lock.
#[derive(Debug, Default)]
struct Slot {
    search: Mutex<Option<Search>>,
    frozen: OnceLock<Arc<SourceTree>>,
}

/// Bounded LRU of per-source slots. Recency is a monotonic tick stamped on
/// every touch; the eviction victim is the minimum-tick entry. A `BTreeMap`
/// keeps iteration (and thus victim selection on the impossible case of a
/// tick tie) deterministic.
#[derive(Debug)]
struct TreeCache {
    cap: usize,
    tick: u64,
    map: BTreeMap<u32, (u64, Arc<Slot>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
    peak_resident: usize,
}

impl TreeCache {
    fn new(cap: usize) -> Self {
        TreeCache {
            cap: cap.max(1),
            tick: 0,
            map: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            peak_resident: 0,
        }
    }

    /// Cache probe: refresh recency and hand back the slot on a hit.
    /// Registered in the lint hot tier — no allocation (an `Arc` clone is a
    /// reference-count bump), no indexing, no panics.
    fn lookup(&mut self, src: u32) -> Option<Arc<Slot>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&src) {
            Some(entry) => {
                entry.0 = tick;
                self.hits += 1;
                Some(Arc::clone(&entry.1))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert an empty slot for `src` (which [`Self::lookup`] just missed,
    /// under the same lock), evicting the least-recently-used entry when at
    /// capacity. Returns the slot and whether an eviction happened.
    fn insert(&mut self, src: u32) -> (Arc<Slot>, bool) {
        let mut evicted = false;
        if self.map.len() >= self.cap {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.0)
                .map(|(&src, _)| src)
            {
                self.map.remove(&victim);
                self.evictions += 1;
                evicted = true;
            }
        }
        self.tick += 1;
        let slot = Arc::new(Slot::default());
        self.map.insert(src, (self.tick, Arc::clone(&slot)));
        self.peak_resident = self.peak_resident.max(self.map.len());
        (slot, evicted)
    }
}

/// Registered metric handles for the route cache (`routes.cache_*`).
struct CacheTelemetry {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    resident: Gauge,
}

/// The on-demand routing engine: a [`CsrTopology`] plus a bounded tree
/// cache, implementing [`Routes`] bit-identically to
/// [`RouteTable`](crate::RouteTable) on the same graph.
///
/// Path-producing methods use `u16` [`NodeId`]/[`LinkId`], so construction
/// requires the graph to fit the `u16` id space; larger graphs use
/// [`CsrTopology`] and [`Landmarks`] directly.
pub struct OnDemandRoutes {
    csr: Arc<CsrTopology>,
    cache: Mutex<TreeCache>,
    telemetry: OnceLock<CacheTelemetry>,
}

impl std::fmt::Debug for OnDemandRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.cache_stats();
        f.debug_struct("OnDemandRoutes")
            .field("topology", &self.csr.name())
            .field("nodes", &self.csr.node_count())
            .field("cache", &stats)
            .finish()
    }
}

/// Default cache capacity: bound total cached-tree memory to roughly a
/// constant (~`2²⁰` node slots) regardless of graph size, with at least 16
/// trees and at most 1024. At built-in-evaluation sizes this exceeds `n`,
/// so small topologies cache every source after one pass.
fn default_capacity(n: usize) -> usize {
    ((1 << 20) / n.max(1)).clamp(16, 1024)
}

impl OnDemandRoutes {
    /// Wrap a CSR topology with the default capacity bound.
    ///
    /// Panics if the graph exceeds the `u16` id space (use [`CsrTopology`]
    /// + [`Landmarks`] for those).
    pub fn new(csr: Arc<CsrTopology>) -> Self {
        let cap = default_capacity(csr.node_count());
        Self::with_capacity(csr, cap)
    }

    /// Wrap with an explicit tree-cache capacity (minimum 1).
    pub fn with_capacity(csr: Arc<CsrTopology>, capacity: usize) -> Self {
        assert!(
            csr.node_count() <= usize::from(u16::MAX) + 1
                && csr.link_count() <= usize::from(u16::MAX) + 1,
            "OnDemandRoutes requires u16-fitting ids; got {} nodes / {} links",
            csr.node_count(),
            csr.link_count()
        );
        OnDemandRoutes {
            csr,
            cache: Mutex::new(TreeCache::new(capacity)),
            telemetry: OnceLock::new(),
        }
    }

    /// The underlying CSR topology.
    pub fn csr(&self) -> &Arc<CsrTopology> {
        &self.csr
    }

    /// Register `routes.cache_hits`/`_misses`/`_evictions` counters and the
    /// `routes.cache_resident` gauge on `reg`. Idempotent; the first
    /// registry wins (handles are get-or-create, so re-attaching the global
    /// registry is a no-op).
    pub fn set_metrics(&self, reg: &MetricsRegistry) {
        let _ = self.telemetry.set(CacheTelemetry {
            hits: reg.counter("routes.cache_hits"),
            misses: reg.counter("routes.cache_misses"),
            evictions: reg.counter("routes.cache_evictions"),
            resident: reg.gauge("routes.cache_resident"),
        });
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let c = lock_recover(&self.cache);
        CacheStats {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            resident: c.map.len(),
            peak_resident: c.peak_resident,
            capacity: c.cap,
        }
    }

    /// The cache slot of `src`: the resident one (a hit), or a new empty
    /// one (a miss). Only the map is touched under the cache lock; the
    /// search runs under the slot's own lock, so concurrent misses on
    /// different sources proceed in parallel and two threads missing on
    /// the same source share one search.
    fn slot(&self, src: u32) -> Arc<Slot> {
        assert!(
            (src as usize) < self.csr.node_count(),
            "source {src} out of range"
        );
        let mut c = lock_recover(&self.cache);
        if let Some(slot) = c.lookup(src) {
            if let Some(m) = self.telemetry.get() {
                m.hits.inc();
            }
            return slot;
        }
        let (slot, evicted) = c.insert(src);
        if let Some(m) = self.telemetry.get() {
            m.misses.inc();
            if evicted {
                m.evictions.inc();
            }
            m.resident.set(c.map.len() as f64);
        }
        slot
    }

    /// Run `read` on `src`'s tree once `until` is settled in it (`None`:
    /// once the whole tree is). A tree is extended short of exhaustion at
    /// most once: the second request beyond its settled frontier runs it
    /// to exhaustion and freezes it.
    fn settled<R>(
        &self,
        slot: &Slot,
        src: u32,
        until: Option<u32>,
        read: impl FnOnce(&SourceTree) -> R,
    ) -> R {
        if let Some(tree) = slot.frozen.get() {
            return read(tree);
        }
        let mut guard = lock_recover(&slot.search);
        if let Some(tree) = slot.frozen.get() {
            return read(tree); // frozen while this thread waited for the lock
        }
        let search = guard.get_or_insert_with(|| Search::new(self.csr.node_count(), src));
        let exhausted = match until {
            Some(dst) if search.is_settled(dst) => false,
            Some(dst) if !search.extended => {
                // A search that has settled nothing yet is being started,
                // not extended.
                search.extended = search.is_settled(src);
                search.advance(&self.csr, Some(dst))
            }
            _ => search.advance(&self.csr, None),
        };
        if !exhausted {
            return read(&search.tree);
        }
        let tree = guard.take().expect("just advanced").tree;
        read(slot.frozen.get_or_init(|| Arc::new(tree)))
    }

    /// The whole shortest-path tree rooted at `src`, from cache or computed.
    pub fn tree(&self, src: u32) -> Arc<SourceTree> {
        let slot = self.slot(src);
        self.settled(&slot, src, None, |_| ());
        Arc::clone(slot.frozen.get().expect("an exhausted search is frozen"))
    }
}

impl Routes for OnDemandRoutes {
    fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    fn path(&self, src: NodeId, dst: NodeId) -> Path {
        if src == dst {
            return Path {
                nodes: vec![src],
                links: vec![],
            };
        }
        let (s, d) = (u32::from(src.0), u32::from(dst.0));
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        let ok = self.settled(&self.slot(s), s, Some(d), |tree| {
            tree.reconstruct_into(s, d, &mut nodes, &mut links)
        });
        assert!(ok, "topology is connected, path {src}->{dst} must exist");
        Path { nodes, links }
    }

    fn latency_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        let (s, d) = (u32::from(src.0), u32::from(dst.0));
        self.settled(&self.slot(s), s, Some(d), |tree| tree.dist[dst.idx()])
    }

    fn rtt_ms(&self, src: NodeId, dst: NodeId) -> f64 {
        // Both directional trees, not 2×: see the module docs.
        self.latency_ms(src, dst) + self.latency_ms(dst, src)
    }

    fn all_rtts_ms(&self) -> Vec<f64> {
        // O(n²): intended for graphs at or below SCALE_NODE_THRESHOLD —
        // scale callers use their sampled variants instead. Trees are
        // pinned via Arc for the duration, so a small cache capacity does
        // not force recomputation mid-pass.
        let n = self.csr.node_count();
        let trees: Vec<Arc<SourceTree>> = (0..n as u32).map(|s| self.tree(s)).collect();
        let mut out = Vec::with_capacity(n * (n - 1));
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    out.push(trees[s].dist[t] + trees[t].dist[s]);
                }
            }
        }
        out
    }
}

/// Landmark (pivot) distance estimation for graphs too large to route
/// per-pair: `k` high-degree nodes, each with a full distance vector.
/// `estimate_ms` is the best triangle-inequality **upper bound**
/// `min_l d(l,s) + d(l,t)` — exact whenever a landmark lies on a shortest
/// s–t path (hub-routed AS graphs make that common).
#[derive(Debug, Clone)]
pub struct Landmarks {
    ids: Vec<u32>,
    dist: Vec<Vec<f64>>,
}

impl Landmarks {
    /// Build `k` landmarks: the highest-degree nodes, ties toward the
    /// smaller id. Cost is `k` Dijkstras and `k·n` floats.
    pub fn build(csr: &CsrTopology, k: usize) -> Self {
        let ids = csr.top_degree_nodes(k.max(1));
        let dist = ids.iter().map(|&l| shortest_tree(csr, l).dist).collect();
        Landmarks { ids, dist }
    }

    /// The landmark node ids, highest degree first.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Upper-bound estimate of the one-way latency between `s` and `t`.
    pub fn estimate_ms(&self, s: u32, t: u32) -> f64 {
        let mut best = f64::INFINITY;
        for row in &self.dist {
            let e = row[s as usize] + row[t as usize];
            if e < best {
                best = e;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::routing::{ordered_pairs, RouteTable};
    use std::sync::Barrier;

    thread_local! {
        /// Heap rebuilds (resumes of a partial search) on this thread.
        pub(super) static REBUILDS: Cell<u32> = const { Cell::new(0) };
    }

    /// A path graph `0 — 1 — … — n-1` of unit-latency links.
    fn line(n: u32) -> Arc<CsrTopology> {
        let edges: Vec<(u32, u32, f64)> = (1..n).map(|v| (v - 1, v, 1.0)).collect();
        Arc::new(CsrTopology::from_edges("line", n as usize, &edges))
    }

    /// Nodes settled in `src`'s resident slot, and whether it is frozen.
    fn slot_state(od: &OnDemandRoutes, src: u32) -> (usize, bool) {
        let slot = Arc::clone(&lock_recover(&od.cache).map[&src].1);
        if let Some(tree) = slot.frozen.get() {
            return (tree.dist.len(), true);
        }
        let guard = lock_recover(&slot.search);
        let search = guard.as_ref().expect("a partial slot holds its search");
        (
            search.hops.iter().filter(|&&h| h & DONE != 0).count(),
            false,
        )
    }

    fn diamond() -> crate::graph::Topology {
        let mut b = TopologyBuilder::new("diamond");
        let n = b.nodes(4, "s");
        b.link(n[0], n[1], 1.0);
        b.link(n[1], n[3], 1.0);
        b.link(n[0], n[2], 1.0);
        b.link(n[2], n[3], 5.0);
        b.build().unwrap()
    }

    fn engines() -> (RouteTable, OnDemandRoutes) {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let od = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&t)));
        (rt, od)
    }

    #[test]
    fn paths_match_route_table_bit_for_bit() {
        let (rt, od) = engines();
        for (s, d) in ordered_pairs(4) {
            assert_eq!(od.path(s, d), *rt.path(s, d), "path {s}->{d}");
            assert_eq!(
                od.latency_ms(s, d).to_bits(),
                RouteTable::latency_ms(&rt, s, d).to_bits()
            );
            assert_eq!(
                od.rtt_ms(s, d).to_bits(),
                RouteTable::rtt_ms(&rt, s, d).to_bits()
            );
        }
        let a: Vec<u64> = od.all_rtts_ms().iter().map(|r| r.to_bits()).collect();
        let b: Vec<u64> = rt.all_rtts_ms().iter().map(|r| r.to_bits()).collect();
        assert_eq!(a, b, "all_rtts order and bits");
    }

    #[test]
    fn diagonal_is_trivial() {
        let (_, od) = engines();
        let p = od.path(NodeId(2), NodeId(2));
        assert!(p.is_empty());
        assert_eq!(p.nodes, vec![NodeId(2)]);
        assert_eq!(od.latency_ms(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    fn tiny_cache_evicts_without_changing_results() {
        let t = diamond();
        let rt = RouteTable::build(&t);
        let od = OnDemandRoutes::with_capacity(Arc::new(CsrTopology::from_topology(&t)), 2);
        // Two full passes with capacity 2 over 4 sources: guaranteed
        // eviction churn between them.
        for _pass in 0..2 {
            for (s, d) in ordered_pairs(4) {
                assert_eq!(od.path(s, d), *rt.path(s, d));
            }
        }
        let stats = od.cache_stats();
        assert!(stats.evictions > 0, "capacity 2 must evict: {stats:?}");
        assert!(stats.resident <= 2 && stats.peak_resident <= 2, "{stats:?}");
        assert_eq!(stats.capacity, 2);
        assert!(stats.hits > 0 && stats.misses >= 4, "{stats:?}");
    }

    #[test]
    fn lru_keeps_the_recently_used_source() {
        let t = diamond();
        let od = OnDemandRoutes::with_capacity(Arc::new(CsrTopology::from_topology(&t)), 2);
        od.tree(0);
        od.tree(1);
        od.tree(0); // refresh 0: next insert must evict 1, not 0
        od.tree(2);
        let before = od.cache_stats();
        od.tree(0);
        let after = od.cache_stats();
        assert_eq!(after.hits, before.hits + 1, "0 must still be resident");
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn reconstruct_into_reports_unreachable() {
        let tree = SourceTree {
            dist: vec![0.0, f64::INFINITY],
            parent: vec![NO_PARENT, NO_PARENT],
        };
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        assert!(!tree.reconstruct_into(0, 1, &mut nodes, &mut links));
        assert!(tree.reconstruct_into(0, 0, &mut nodes, &mut links));
        assert_eq!(nodes, vec![NodeId(0)]);
        assert!(links.is_empty());
    }

    #[test]
    fn reconstruct_into_rejects_ids_beyond_u16() {
        // What `Landmarks::build` computes on a 10⁵-node graph: a tree whose
        // ids do not fit `NodeId`/`LinkId`.
        let n = u32::from(u16::MAX) + 4;
        let csr = line(n);
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        let tree = shortest_tree(&csr, 0);
        assert_eq!(tree.dist[n as usize - 1], f64::from(n - 1));
        assert!(tree.reconstruct_into(0, 100, &mut nodes, &mut links));
        assert_eq!((nodes.len(), links.len()), (101, 100));
        assert!(!tree.reconstruct_into(0, n - 1, &mut nodes, &mut links));
        // The endpoints fit, the nodes and links on the way do not.
        let far = shortest_tree(&csr, n - 1);
        assert!(!far.reconstruct_into(n - 1, 10, &mut nodes, &mut links));
    }

    #[test]
    fn a_miss_settles_only_as_far_as_its_destination() {
        let csr = line(64);
        let od = OnDemandRoutes::new(Arc::clone(&csr));
        assert_eq!(od.path(NodeId(0), NodeId(10)).links.len(), 10);
        let (settled, frozen) = slot_state(&od, 0);
        assert!(!frozen && settled == 11, "{settled} settled");
        // Inside the frontier: answered without advancing.
        assert_eq!(od.latency_ms(NodeId(0), NodeId(7)), 7.0);
        assert_eq!(slot_state(&od, 0), (11, false));
        // The first request beyond the frontier extends to its destination…
        assert_eq!(od.latency_ms(NodeId(0), NodeId(20)), 20.0);
        assert_eq!(slot_state(&od, 0), (21, false));
        // …the second one exhausts and freezes the tree.
        assert_eq!(od.path(NodeId(0), NodeId(30)).links.len(), 30);
        assert_eq!(slot_state(&od, 0), (64, true));
        assert_eq!(*od.tree(0), shortest_tree(&csr, 0));
        let stats = od.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 4), "{stats:?}");
    }

    #[test]
    fn tree_after_partial_queries_is_the_whole_tree() {
        let t = crate::gen::waxman(40, 0.5, 0.4, 7);
        let csr = Arc::new(CsrTopology::from_topology(&t));
        let od = OnDemandRoutes::new(Arc::clone(&csr));
        for s in 0..40u16 {
            od.path(NodeId(s), NodeId((s + 1) % 40));
            if s % 2 == 0 {
                od.rtt_ms(NodeId(s), NodeId((s + 17) % 40));
            }
            assert_eq!(*od.tree(u32::from(s)), shortest_tree(&csr, u32::from(s)));
            assert!(slot_state(&od, u32::from(s)).1);
        }
    }

    #[test]
    fn threads_sharing_one_source_agree_with_the_oracle() {
        let t = crate::gen::waxman(48, 0.5, 0.4, 11);
        let rt = RouteTable::build(&t);
        let od = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&t)));
        let src = NodeId(5);
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u16 {
                let (od, rt, start) = (&od, &rt, &start);
                scope.spawn(move || {
                    // All eight contend for the one slot's search at once.
                    start.wait();
                    for d in (t..48).step_by(8).map(NodeId).filter(|&d| d != src) {
                        assert_eq!(od.path(src, d), *rt.path(src, d), "path {src}->{d}");
                        assert_eq!(
                            od.latency_ms(src, d).to_bits(),
                            RouteTable::latency_ms(rt, src, d).to_bits()
                        );
                    }
                });
            }
        });
        assert_eq!(od.cache_stats().misses, 1, "one search, shared");
    }

    #[test]
    fn ids_in_distance_order_cost_two_heap_rebuilds_per_source() {
        // The adversarial case for resuming: every next destination lies
        // just beyond the settled frontier.
        let n = 1024u16;
        let od = OnDemandRoutes::new(line(u32::from(n)));
        for s in 0..n {
            REBUILDS.set(0);
            for d in (0..n).filter(|&d| d != s) {
                let want = f64::from(s.abs_diff(d));
                assert_eq!(od.latency_ms(NodeId(s), NodeId(d)), want);
            }
            assert!(
                REBUILDS.get() <= 2,
                "source {s}: {} rebuilds",
                REBUILDS.get()
            );
        }
        assert_eq!(od.cache_stats().misses, u64::from(n));
    }

    #[test]
    fn landmark_estimates_upper_bound_truth() {
        let t = diamond();
        let csr = CsrTopology::from_topology(&t);
        let od = OnDemandRoutes::new(Arc::new(csr.clone()));
        let lm = Landmarks::build(&csr, 2);
        assert_eq!(lm.ids().len(), 2);
        for (s, d) in ordered_pairs(4) {
            let truth = od.latency_ms(s, d);
            let est = lm.estimate_ms(u32::from(s.0), u32::from(d.0));
            assert!(
                est >= truth - 1e-12,
                "estimate {est} must not undercut {truth} for {s}->{d}"
            );
        }
        // Pairs touching a landmark are exact.
        let l0 = lm.ids()[0];
        let est = lm.estimate_ms(l0, (l0 + 1) % 4);
        let truth = od.latency_ms(NodeId(l0 as u16), NodeId(((l0 + 1) % 4) as u16));
        assert_eq!(est.to_bits(), truth.to_bits());
    }

    #[test]
    fn metrics_mirror_cache_stats() {
        let reg = MetricsRegistry::new();
        let (_, od) = engines();
        od.set_metrics(&reg);
        for (s, d) in ordered_pairs(4) {
            od.path(s, d);
        }
        let snap = reg.snapshot();
        let stats = od.cache_stats();
        assert_eq!(snap.counter("routes.cache_hits"), Some(stats.hits));
        assert_eq!(snap.counter("routes.cache_misses"), Some(stats.misses));
        assert_eq!(snap.counter("routes.cache_evictions"), Some(0));
        assert_eq!(
            snap.gauge("routes.cache_resident"),
            Some(stats.resident as f64)
        );
        assert_eq!(stats.misses, 4, "one tree per source");
    }
}
