//! The two 10k-node workloads. One generated AS graph, one CSR build, one
//! bounded on-demand route cache, used two ways: uniform random sources
//! (every query a miss and a full Dijkstra) and a hot set of sources that
//! fits the cache (the hit path only). The traced run of the uniform
//! workload also localizes a single-link failure on the same graph, for the
//! per-layer figures of the scale regime. All single-threaded.

use crate::metrics::{Values, PER_LAYER};
use crate::serve::record_trace;
use crate::trace::Tracer;
use crate::workload::{EndToEnd, Outcome, RunCfg};
use crate::{stats, sys};
use db_core::experiment::ScenarioKind;
use db_core::{prepare, run_scenario, PrepareConfig, Prepared, ScenarioSetup};
use db_netsim::{TrafficConfig, TrafficGen};
use db_topology::ondemand::shortest_tree;
use db_topology::{gen, CsrTopology, LinkId, NodeId, OnDemandRoutes, Path, Routes, Topology};
use db_util::Pcg64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Route-cache capacity, in source trees.
pub const CACHE_CAPACITY: usize = 128;
/// Sources in the hot set of `topo-local-10k`: half the cache.
pub const HOT_SOURCES: usize = 64;
/// Queries timed as one operation in `topo-local-10k` (a hit costs a few
/// hundred ns, too little to time alone).
pub const LOCAL_BLOCK: usize = 256;
/// Queries timed as one operation in `topo-uniform-10k`. A query costs a
/// Dijkstra (~2 ms) when its source tree is not cached and under a µs when
/// it is, so single queries are not repetitions of equal work: their fast
/// end is "a hit", whatever the hit share. A block's time follows the share
/// of hits in it, so the rate and the latency taken from blocks do too.
pub const UNIFORM_BLOCK: usize = 128;
/// Queries checked against the reference Dijkstra per run.
const ORACLE_QUERIES: usize = 48;
/// Set-up repeats of the query workloads: set-up is milliseconds there, so
/// more repeats cost nothing and steady the median.
const QUERY_SETUP_REPEATS: usize = 31;

/// Timed localizations in the traced run of `topo-uniform-10k`, after one
/// untimed one.
const LOCALIZATIONS: u64 = 4;

/// Which of the two uses of the graph runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `topo-uniform-10k`.
    Uniform,
    /// `topo-local-10k`.
    Local,
}

impl Kind {
    /// Queries per timed operation.
    fn block(self) -> usize {
        match self {
            Kind::Uniform => UNIFORM_BLOCK,
            Kind::Local => LOCAL_BLOCK,
        }
    }
}

fn node_count(smoke: bool) -> usize {
    // The smoke graph stays above the scale threshold (1024 nodes), so the
    // sampled code paths of the 10k graph run there too.
    if smoke {
        1200
    } else {
        10_000
    }
}

/// The graph, its CSR form and the bounded cache: what a user of the
/// routing layer sets up before the first query.
struct Routing {
    topo: Topology,
    csr: Arc<CsrTopology>,
    routes: OnDemandRoutes,
    gen_ms: f64,
    csr_ms: f64,
}

/// Generator seed of the graph. Fixed (the value `topo_scale` uses): a
/// different graph has different path lengths, which moved `ops_per_s` by up
/// to 25 % from seed to seed and drowned everything else. The run's seed
/// picks the queries, the hot set and the failed link instead.
const GRAPH_SEED: u64 = 1;

fn build_routing(smoke: bool) -> Routing {
    let t0 = Instant::now();
    let topo = gen::as_graph(node_count(smoke), GRAPH_SEED);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let csr = Arc::new(CsrTopology::from_topology(&topo));
    let csr_ms = t0.elapsed().as_secs_f64() * 1e3;
    let routes = OnDemandRoutes::with_capacity(Arc::clone(&csr), CACHE_CAPACITY);
    Routing {
        topo,
        csr,
        routes,
        gen_ms,
        csr_ms,
    }
}

fn node(i: u64) -> NodeId {
    NodeId(u16::try_from(i).expect("10k-node ids fit u16"))
}

/// The seed's query stream: uniform destinations; sources uniform, or drawn
/// from a fixed hot set of [`HOT_SOURCES`].
struct Queries {
    rng: Pcg64,
    n: u64,
    hot: Option<Vec<NodeId>>,
}

impl Queries {
    fn new(kind: Kind, n: usize, seed: u64) -> Self {
        let n = n as u64;
        let mut rng = Pcg64::new_stream(seed, 0x70B0);
        let hot = (kind == Kind::Local).then(|| {
            let mut set: Vec<NodeId> = Vec::with_capacity(HOT_SOURCES);
            while set.len() < HOT_SOURCES {
                let s = node(rng.below(n));
                if !set.contains(&s) {
                    set.push(s);
                }
            }
            set
        });
        Queries { rng, n, hot }
    }

    fn next(&mut self) -> (NodeId, NodeId) {
        let s = match &self.hot {
            Some(hot) => hot[self.rng.below(hot.len() as u64) as usize],
            None => node(self.rng.below(self.n)),
        };
        let mut d = node(self.rng.below(self.n));
        if d == s {
            d = node((u64::from(d.0) + 1) % self.n);
        }
        (s, d)
    }
}

/// Reference single-source distances: a plain binary-heap Dijkstra written
/// here, sharing no code with the routing layer it checks.
fn reference_dist(csr: &CsrTopology, src: u32) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; csr.node_count()];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    // Latencies are non-negative, so the IEEE bit pattern orders like the
    // value and can key the heap.
    heap.push(Reverse((0.0f64.to_bits(), src)));
    while let Some(Reverse((bits, u))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u as usize] {
            continue;
        }
        let (neighbors, links) = csr.neighbors(u);
        for (&v, &l) in neighbors.iter().zip(links) {
            let nd = d + csr.link_latency_ms(l);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd.to_bits(), v)));
            }
        }
    }
    dist
}

/// A path is correct when it starts and ends where asked, every link joins
/// the nodes on either side of it, and its latency is the true shortest
/// distance.
fn check_path(csr: &CsrTopology, s: NodeId, d: NodeId, p: &Path) -> Result<(), String> {
    if p.nodes.first() != Some(&s) || p.nodes.last() != Some(&d) {
        return Err(format!("path {s}->{d} has the wrong endpoints"));
    }
    if p.links.len() + 1 != p.nodes.len() {
        return Err(format!(
            "path {s}->{d}: {} links for {} nodes",
            p.links.len(),
            p.nodes.len()
        ));
    }
    let mut latency = 0.0;
    for (i, l) in p.links.iter().enumerate() {
        let (a, b) = csr.link_endpoints(u32::from(l.0));
        let (u, v) = (u32::from(p.nodes[i].0), u32::from(p.nodes[i + 1].0));
        if !((a, b) == (u, v) || (a, b) == (v, u)) {
            return Err(format!("path {s}->{d}: link {l} does not join hop {i}"));
        }
        latency += csr.link_latency_ms(u32::from(l.0));
    }
    let want = reference_dist(csr, u32::from(s.0))[d.idx()];
    if (latency - want).abs() > 1e-9 * want.max(1.0) {
        return Err(format!(
            "path {s}->{d}: latency {latency} ms, shortest is {want} ms"
        ));
    }
    Ok(())
}

/// What a timed query section measured.
struct Timed {
    /// Wall µs of each timed operation (one block of queries).
    op_us: Vec<f64>,
    queries: u64,
    empty_paths: u64,
    hops: u64,
    problems: Vec<String>,
}

/// Answer the seed's query stream for `seconds`; with a tracer, every
/// timed operation is a span.
fn timed_queries(
    r: &Routing,
    kind: Kind,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Timed {
    let mut q = Queries::new(kind, r.csr.node_count(), seed);
    let mut t = Timed {
        op_us: Vec::new(),
        queries: 0,
        empty_paths: 0,
        hops: 0,
        problems: Vec::new(),
    };
    // Correctness first, on the head of the same stream, and for the hot
    // set it also fills the cache, which is part of being ready.
    let mut head = Queries::new(kind, r.csr.node_count(), seed);
    for _ in 0..ORACLE_QUERIES {
        let (s, d) = head.next();
        if let Err(e) = check_path(&r.csr, s, d, &r.routes.path(s, d)) {
            t.problems.push(e);
        }
    }
    if let Some(hot) = &q.hot {
        for &s in hot {
            black_box(r.routes.tree(u32::from(s.0)));
        }
    }
    let block = kind.block();
    let run = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut op = 0u64;
    while t0.elapsed() < run {
        let span = tracer
            .as_deref_mut()
            .map(|tr| tr.begin("topology.path", op));
        let b0 = Instant::now();
        for _ in 0..block {
            let (s, d) = q.next();
            let p = r.routes.path(s, d);
            t.empty_paths += u64::from(p.links.is_empty());
            t.hops += p.links.len() as u64;
        }
        t.op_us.push(b0.elapsed().as_secs_f64() * 1e6);
        if let (Some(tr), Some(s)) = (tracer.as_deref_mut(), span) {
            tr.end(s);
        }
        t.queries += block as u64;
        op += 1;
    }
    t
}

fn query_run(cfg: &RunCfg, kind: Kind) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut routing = None;
    for _ in 0..QUERY_SETUP_REPEATS {
        let t0 = Instant::now();
        routing = Some(build_routing(cfg.smoke));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let r = routing.expect("QUERY_SETUP_REPEATS >= 1");
    let t = timed_queries(&r, kind, cfg.seed, cfg.seconds, None);
    let total_s = t.op_us.iter().sum::<f64>() / 1e6;
    let cache = r.routes.cache_stats();
    let mut problems = t.problems;
    if cache.peak_resident > cache.capacity {
        problems.push(format!(
            "cache bound violated: peak {} > capacity {}",
            cache.peak_resident, cache.capacity
        ));
    }
    let op_s: Vec<f64> = t.op_us.iter().map(|us| us / 1e6).collect();
    let e2e = EndToEnd {
        ops_per_s: stats::steady_rate(&op_s, 1, kind.block() as f64)
            .unwrap_or(t.queries as f64 / total_s.max(1e-9)),
        op_p25_us: stats::typical_latency(&t.op_us),
        within_limit_share: stats::share_within(
            &t.op_us,
            stats::stall_limit(&t.op_us),
            t.op_us.len(),
        ),
        peak_rss_mb: sys::own_peak_rss_mb()?,
        setup_s: stats::median(&setups),
    };
    Ok(Outcome {
        attempted: t.queries,
        failed: t.empty_paths,
        metrics: e2e.metrics(),
        problems,
        context: vec![
            ("threads", "1".into()),
            ("nodes", r.csr.node_count().to_string()),
            ("links", r.csr.link_count().to_string()),
            ("queries", t.queries.to_string()),
            ("queries_per_op", kind.block().to_string()),
            ("hop_checksum", t.hops.to_string()),
            ("cache_hits", cache.hits.to_string()),
            ("cache_misses", cache.misses.to_string()),
            (
                "overall_ops_per_s",
                format!("{:.2}", t.queries as f64 / total_s.max(1e-9)),
            ),
        ],
    })
}

fn query_run_traced(cfg: &RunCfg, kind: Kind, workload: &str) -> Result<Outcome, String> {
    let mut v = Values::new(PER_LAYER);
    let mut tracer = Tracer::new();
    let setup = tracer.begin("topology.setup", 0);
    let r = build_routing(cfg.smoke);
    tracer.end(setup);
    v.set("topology.gen_ms", r.gen_ms);
    v.set("topology.csr_build_ms", r.csr_ms);

    // The same stream bare and traced, a quarter of the time each.
    let bare = timed_queries(&r, kind, cfg.seed, cfg.seconds / 4.0, None);
    // A fresh cache, so both arms start from the same state.
    let fresh = Routing {
        routes: OnDemandRoutes::with_capacity(Arc::clone(&r.csr), CACHE_CAPACITY),
        ..r
    };
    let traced = timed_queries(&fresh, kind, cfg.seed, cfg.seconds / 4.0, Some(&mut tracer));
    let cache = fresh.routes.cache_stats();
    v.set(
        "topology.cache_hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    v.set("topology.cache_evictions", cache.evictions as f64);
    v.set("topology.cache_peak_resident", cache.peak_resident as f64);
    tracer.count("topology.cache_hits", cache.hits as f64);
    tracer.count("topology.cache_misses", cache.misses as f64);

    // The two halves of a query, each alone: a full tree, and a path read
    // off a resident tree.
    let mut rng = Pcg64::new_stream(cfg.seed, 0x7EE5);
    let n = fresh.csr.node_count() as u64;
    let tree_ms: Vec<f64> = (0..16)
        .map(|_| {
            let src = u32::try_from(rng.below(n)).expect("node id fits u32");
            let t0 = Instant::now();
            black_box(shortest_tree(&fresh.csr, src));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    v.set("topology.tree_ms_p50", stats::median(&tree_ms));
    let s = node(rng.below(n));
    black_box(fresh.routes.path(s, node((u64::from(s.0) + 1) % n)));
    let hit_ns = crate::layers::median_ns_per_call(5, 20_000, || {
        let mut d = node(rng.below(n));
        if d == s {
            d = node((u64::from(d.0) + 1) % n);
        }
        black_box(fresh.routes.path(s, d));
    });
    v.set("topology.path_hit_ns", hit_ns);
    // Median block against median block: a disturbed stretch of either arm
    // must not read as a cost (or a gain) of tracing.
    v.set(
        "trace.overhead_share",
        stats::median(&traced.op_us) / stats::median(&bare.op_us).max(1e-9) - 1.0,
    );
    // Everything a query costs is inside the one public call, so the span
    // is the whole of it.
    v.set("trace.attributed_share", 1.0);
    let mut problems = bare.problems;
    problems.extend(traced.problems);
    let mut attempted = bare.queries + traced.queries;
    let mut failed = bare.empty_paths + traced.empty_paths;
    let mut context = vec![
        ("threads", "1".to_string()),
        ("queries", attempted.to_string()),
    ];
    if kind == Kind::Uniform {
        let l = localize_layers(fresh.topo, cfg.seed, &mut v, &mut tracer)?;
        if l.not_localized > 0 {
            problems.push(format!(
                "{} of {LOCALIZATIONS} runs did not localize link {}",
                l.not_localized, l.link.0
            ));
        }
        attempted += LOCALIZATIONS;
        failed += l.not_localized;
        context.push(("localizations", LOCALIZATIONS.to_string()));
        context.push(("failed_link", l.link.0.to_string()));
    }
    context.push(("spans", tracer.span_count().to_string()));
    let trace_path = crate::write_trace(cfg, workload, &tracer)?;
    context.push(("trace_file", crate::json::string(&trace_path)));
    Ok(Outcome {
        attempted,
        failed,
        metrics: v.metrics(),
        problems,
        context,
    })
}

/// Smoke-sized training either way: the point is the size of the graph,
/// not of the training set (as `topo_scale` does).
fn localize_prepare(topo: Topology) -> Prepared {
    prepare(
        topo,
        &PrepareConfig {
            n_link_scenarios: 2,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 0.2,
            ..Default::default()
        },
    )
}

/// Candidates for the failed link: the two busiest links of the canonical
/// sampled workload. Not more: the third and fourth cost half as much
/// again to simulate (1.6 s against 1.1 s), and a run's figure must not
/// depend on which one its seed drew.
const LOCALIZE_CANDIDATES: usize = 2;

/// The seed's failed link: one of the [`LOCALIZE_CANDIDATES`] links crossed
/// by the most flows of the canonical sampled workload (density 1, seed 1,
/// the workload `busiest_sampled_link` ranks by), ties to the smaller id. On
/// a sparse sampled workload only a busy link gives equation (1) enough
/// signal, so the choice stays among those.
fn failed_link(prep: &Prepared, seed: u64) -> Option<LinkId> {
    let traffic = TrafficConfig::with_density(1.0);
    let flows = TrafficGen::generate_sampled(&prep.topo, prep.routes.as_ref(), &traffic, 1);
    let mut count = vec![0u32; prep.topo.link_count()];
    for f in &flows {
        for &l in &f.path.links {
            count[l.idx()] += 1;
        }
    }
    let mut ranked: Vec<usize> = (0..count.len()).filter(|&i| count[i] > 0).collect();
    ranked.sort_by_key(|&i| (Reverse(count[i]), i));
    ranked.truncate(LOCALIZE_CANDIDATES);
    let pick = ranked.get(usize::try_from(seed).ok()? % ranked.len().max(1))?;
    Some(LinkId(u16::try_from(*pick).ok()?))
}

/// What the localizations of the traced run found.
struct Localized {
    not_localized: u64,
    link: LinkId,
}

/// The scale regime of netsim, flowmon and core on the same graph: train
/// (smoke-sized), fail the seed's link — one of the busiest of the canonical
/// sampled workload — and localize it with the flagship variant
/// [`LOCALIZATIONS`] times. Per-layer figures only: a localization takes a
/// second over an 818 MiB working set, and ten same-code sets of it as a
/// workload of its own spread 7–25 % (once 103 %), too wide for a bound.
fn localize_layers(
    topo: Topology,
    seed: u64,
    v: &mut Values,
    tracer: &mut Tracer,
) -> Result<Localized, String> {
    let t0 = Instant::now();
    let prep = tracer.span("core.prepare", 0, || localize_prepare(topo));
    v.set("core.prepare_ms", t0.elapsed().as_secs_f64() * 1e3);
    let link = failed_link(&prep, seed).ok_or("sampled workload crosses no link")?;
    // The canonical sampled workload (density 1, seed 1) is the one the
    // link was ranked on, so its failure is observable.
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 1);
    setup.variants.truncate(1);
    let flagship = setup.variants[0].name.clone();
    let kind = ScenarioKind::SingleLink(link);

    // One untimed localization first: it faults in the simulator's memory
    // and fills the route cache, which the first timed one would otherwise
    // pay for (3.9 s against 1.3 s on the sandbox).
    black_box(run_scenario(&setup, &kind));

    let mut unit_ms = Vec::new();
    let mut not_localized = 0u64;
    let mut packets = 0u64;
    for op in 0..LOCALIZATIONS {
        let u0 = Instant::now();
        let outcome = tracer.span("core.run_scenario", op, || run_scenario(&setup, &kind));
        unit_ms.push(u0.elapsed().as_secs_f64() * 1e3);
        packets = outcome.stats.packets_sent;
        let localized = outcome
            .variant(&flagship)
            .is_some_and(|r| r.reported.contains(&link));
        not_localized += u64::from(!localized);
    }
    v.set("core.run_scenario_ms_p50", stats::median(&unit_ms));
    v.set("netsim.packets_per_scenario", packets as f64);
    // The simulator alone on the same failure.
    let trace = tracer.span("netsim.simulate", 0, || record_trace(&prep, 1, Some(link)));
    v.set(
        "netsim.events_per_s",
        trace.sim_events as f64 / trace.sim_wall_s.max(1e-9),
    );
    v.set("netsim.traffic_gen_ms", trace.traffic_gen_s * 1e3);
    Ok(Localized {
        not_localized,
        link,
    })
}

/// Run one of the two workloads, traced or not.
pub fn run(cfg: &RunCfg, kind: Kind, workload: &str) -> Result<Outcome, String> {
    if cfg.trace {
        query_run_traced(cfg, kind, workload)
    } else {
        query_run(cfg, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ops_per_s` as `query_run` computes it, on a synthetic stream in which
    /// a query costs 2 ms on a miss and 0.5 µs on a hit.
    fn uniform_rate(hit_percent: u64) -> f64 {
        let mut rng = Pcg64::new(42);
        let per_query: Vec<f64> = (0..40 * UNIFORM_BLOCK)
            .map(|_| {
                if rng.below(100) < hit_percent {
                    5e-7
                } else {
                    2e-3
                }
            })
            .collect();
        let block_s: Vec<f64> = per_query
            .chunks_exact(UNIFORM_BLOCK)
            .map(|b| b.iter().sum())
            .collect();
        stats::steady_rate(&block_s, 1, UNIFORM_BLOCK as f64).expect("forty blocks")
    }

    #[test]
    fn uniform_rate_follows_the_hit_share_continuously() {
        let all_miss = uniform_rate(0);
        assert!((all_miss - 500.0).abs() < 1e-6, "{all_miss}");
        // A cache fix that lifts hits from 2 % to 9 % shows (about 1.08x)…
        let small = uniform_rate(9) / uniform_rate(2);
        assert!(small > 1.04 && small < 1.20, "{small}");
        // …and 30 % hits read about 1/0.7 = 1.43x, not the thousandfold jump
        // of a rate taken from the fastest single queries.
        let large = uniform_rate(30) / all_miss;
        assert!(large > 1.3 && large < 1.7, "{large}");
    }
}
