//! Property-based tests for the topology crate.

use db_topology::matrix::{max_coverage, PathStatus, RoutingMatrix};
use db_topology::{
    gen, ordered_pairs, parse, zoo, CsrTopology, NodeId, OnDemandRoutes, RouteTable, Routes,
    Topology, TopologyBuilder,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A `w × h` grid (a ring when `h == 1`) whose link latencies are all 1, 2
/// or 3 ms, drawn from `bits`. Equal-latency routes abound, so the
/// hop-count tie-break (1 + 1 + 2 ms one way round, 3 + 1 ms the other) and
/// the smaller-parent-id tie-break (the two ways round a grid cell) both
/// fire.
fn tied_grid(w: usize, h: usize, bits: u64) -> Topology {
    let mut b = TopologyBuilder::new("tied");
    let nodes = b.nodes(w * h, "s");
    let mut k = 0;
    let mut link = |b: &mut TopologyBuilder, u: usize, v: usize| {
        b.link(
            nodes[u],
            nodes[v],
            [1.0, 2.0, 3.0, 1.0][(bits >> (k % 64) & 3) as usize],
        );
        k += 2;
    };
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                link(&mut b, y * w + x, y * w + x + 1);
            }
            if y + 1 < h {
                link(&mut b, y * w + x, (y + 1) * w + x);
            }
        }
    }
    if h == 1 {
        link(&mut b, w - 1, 0);
    }
    b.build().expect("grids and rings are valid topologies")
}

/// `topo` with each link's latency replaced by `latency(link index, old
/// latency)`.
fn with_latencies(topo: &Topology, latency: impl Fn(usize, f64) -> f64) -> Topology {
    let mut b = TopologyBuilder::new(topo.name());
    let nodes = b.nodes(topo.node_count(), "s");
    for (i, l) in topo.links().iter().enumerate() {
        b.link(nodes[l.a.idx()], nodes[l.b.idx()], latency(i, l.latency_ms));
    }
    b.build().expect("a relabelled valid topology is valid")
}

/// `topo` with link 0 at 1 000 ms and every other link at a hundredth of
/// its latency: a max/min latency ratio far above 1 024, so the on-demand
/// router's ring of buckets cannot span the longest link and pushes past
/// its span wait in the queue's heap.
fn stretched(topo: &Topology) -> Topology {
    with_latencies(topo, |i, l| if i == 0 { 1000.0 } else { l / 100.0 })
}

/// `topo` with link 0 at `tiny` ms and every other link near 10³⁰⁸ ms: two
/// long links overflow a distance to +∞, and no bucket index holds a
/// 10³⁰⁸ distance at a width of half of `tiny` — nor any distance when
/// `tiny` is subnormal and `1/Δ` is +∞.
fn overflowing(topo: &Topology, tiny: f64) -> Topology {
    with_latencies(topo, |i, l| {
        if i == 0 {
            tiny
        } else {
            1e308 * (1.0 + l / 1e3)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated graphs are connected and round-trip the text format.
    #[test]
    fn waxman_parse_round_trip(n in 3usize..25, seed in 0u64..300) {
        let topo = gen::waxman(n, 0.4, 0.35, seed);
        prop_assert!(topo.is_connected());
        let back = parse::from_text(&parse::to_text(&topo)).expect("round trip");
        prop_assert_eq!(back.node_count(), topo.node_count());
        prop_assert_eq!(back.link_count(), topo.link_count());
        for (a, b) in back.links().iter().zip(topo.links()) {
            prop_assert_eq!(a, b);
        }
    }

    /// Every routed path is simple (no repeated node) and consistent:
    /// consecutive nodes are joined by the named link.
    #[test]
    fn paths_are_simple_and_consistent(n in 3usize..20, seed in 0u64..200) {
        let topo = gen::barabasi_albert(n, 2.min(n - 1), seed);
        let routes = RouteTable::build(&topo);
        for (s, d) in routes.pairs() {
            let p = routes.path(s, d);
            let mut seen = std::collections::HashSet::new();
            for &node in &p.nodes {
                prop_assert!(seen.insert(node), "repeated node on path {s}->{d}");
            }
            for (i, &l) in p.links.iter().enumerate() {
                let link = topo.link(l);
                let (a, b) = (p.nodes[i], p.nodes[i + 1]);
                prop_assert!(link.touches(a) && link.touches(b));
            }
        }
    }

    /// Hop distances satisfy the triangle inequality over links.
    #[test]
    fn hop_distances_triangle(n in 3usize..20, seed in 0u64..200) {
        let topo = gen::waxman(n, 0.5, 0.4, seed);
        let d0 = topo.hop_distances(NodeId(0));
        for l in topo.link_ids() {
            let link = topo.link(l);
            let (da, db) = (d0[link.a.idx()], d0[link.b.idx()]);
            prop_assert!(da.abs_diff(db) <= 1, "adjacent nodes differ by more than one hop");
        }
    }

    /// MAX_COVERAGE explains every abnormal path and never accuses a link
    /// certified innocent by a normal path.
    #[test]
    fn max_coverage_soundness(n in 4usize..16, seed in 0u64..200, abnormal_bits in 0u32..256) {
        let topo = gen::waxman(n, 0.5, 0.4, seed);
        let routes = RouteTable::build(&topo);
        let paths: Vec<_> = routes
            .pairs()
            .take(8)
            .map(|(s, d)| routes.path(s, d).clone())
            .collect();
        let refs: Vec<&_> = paths.iter().collect();
        let m = RoutingMatrix::from_paths(&topo, &refs);
        let status: Vec<PathStatus> = (0..refs.len())
            .map(|i| {
                if abnormal_bits >> i & 1 == 1 {
                    PathStatus::Abnormal
                } else {
                    PathStatus::Normal
                }
            })
            .collect();
        let culprits = max_coverage(&m, &status);
        // No accused link lies on a normal path.
        for (p, s) in status.iter().enumerate() {
            if *s == PathStatus::Normal {
                for l in m.links_of(p) {
                    prop_assert!(!culprits.contains(&l), "innocent link {l:?} accused");
                }
            }
        }
        // Every abnormal path is covered unless all its links are certified
        // innocent (in which case no explanation exists).
        for (p, s) in status.iter().enumerate() {
            if *s == PathStatus::Abnormal {
                let links = m.links_of(p);
                let innocent_only = links.iter().all(|l| {
                    status
                        .iter()
                        .enumerate()
                        .any(|(q, sq)| *sq == PathStatus::Normal && m.contains(q, *l))
                });
                if !innocent_only {
                    prop_assert!(
                        links.iter().any(|l| culprits.contains(l)),
                        "abnormal path {p} left unexplained"
                    );
                }
            }
        }
    }

    /// The on-demand engine returns byte-identical `Path`s (nodes, links,
    /// tie-break order) and bit-identical latencies/RTTs to the legacy
    /// all-pairs `RouteTable`, on random graphs — including with a bounded
    /// cache (2, 16 or 128 trees) on a graph with more sources than it
    /// holds, which forces evictions and recomputation mid-pass and must
    /// never hold more trees than its capacity. A third of the graphs are
    /// [`stretched`] to a latency spread above 1 024, and a third are
    /// [`overflowing`] to infinite distances.
    #[test]
    fn ondemand_matches_route_table(n in 3usize..22, seed in 0u64..200, cap in 0usize..3) {
        let capacity = [2, 16, 128][cap];
        let n = n + capacity - 2;
        let topo = if seed % 2 == 0 {
            gen::waxman(n, 0.5, 0.4, seed)
        } else {
            gen::barabasi_albert(n, 2.min(n - 1), seed)
        };
        let topo = match seed % 3 {
            0 => stretched(&topo),
            1 => overflowing(&topo, if seed % 4 == 1 { 5e-324 } else { 1e-300 }),
            _ => topo,
        };
        let table = RouteTable::build(&topo);
        let csr = Arc::new(CsrTopology::from_topology(&topo));
        let full = OnDemandRoutes::new(Arc::clone(&csr));
        let tiny = OnDemandRoutes::with_capacity(csr, capacity);
        for engine in [&full, &tiny] {
            // Every pair on the small graphs; a stride that still visits
            // every source on the larger ones.
            for (s, d) in ordered_pairs(n).step_by(capacity / 2) {
                let expect = table.path(s, d);
                let got = engine.path(s, d);
                prop_assert_eq!(&got.nodes, &expect.nodes, "{}->{} nodes", s, d);
                prop_assert_eq!(&got.links, &expect.links, "{}->{} links", s, d);
                prop_assert_eq!(
                    engine.latency_ms(s, d).to_bits(),
                    RouteTable::latency_ms(&table, s, d).to_bits()
                );
                prop_assert_eq!(
                    engine.rtt_ms(s, d).to_bits(),
                    RouteTable::rtt_ms(&table, s, d).to_bits()
                );
            }
            let expect_rtts = RouteTable::all_rtts_ms(&table);
            let got_rtts = engine.all_rtts_ms();
            prop_assert_eq!(got_rtts.len(), expect_rtts.len());
            for (a, b) in got_rtts.iter().zip(&expect_rtts) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = tiny.cache_stats();
        prop_assert!(stats.resident <= capacity && stats.peak_resident <= capacity);
        prop_assert!(stats.evictions > 0, "{} sources never overflowed {} slots", n, capacity);
    }

    /// Lazy trees on tied latencies: a random interleaving of the three
    /// point queries, each settling its source's tree only as far as it
    /// needs (or resuming, or freezing it), answers bit-identically to the
    /// all-pairs table — whatever the tree's state when the query arrives,
    /// with and without evictions in between.
    #[test]
    fn lazy_trees_match_route_table_on_tied_latencies(
        w in 3usize..7,
        h in 1usize..6,
        bits in 0u64..u64::MAX,
        ops in proptest::collection::vec((0u8..3, 0usize..36, 0usize..36), 1..160),
    ) {
        let topo = tied_grid(w, h, bits);
        let n = topo.node_count();
        let table = RouteTable::build(&topo);
        let csr = Arc::new(CsrTopology::from_topology(&topo));
        let full = OnDemandRoutes::new(Arc::clone(&csr));
        let tiny = OnDemandRoutes::with_capacity(csr, 2);
        for engine in [&full, &tiny] {
            for &(op, a, b) in &ops {
                let (s, d) = (NodeId((a % n) as u16), NodeId((b % n) as u16));
                match op {
                    0 if s != d => {
                        let expect = table.path(s, d);
                        let got = engine.path(s, d);
                        prop_assert_eq!(&got.nodes, &expect.nodes, "{}->{} nodes", s, d);
                        prop_assert_eq!(&got.links, &expect.links, "{}->{} links", s, d);
                    }
                    1 => prop_assert_eq!(
                        engine.latency_ms(s, d).to_bits(),
                        RouteTable::latency_ms(&table, s, d).to_bits(),
                        "{}->{} latency", s, d
                    ),
                    _ => prop_assert_eq!(
                        engine.rtt_ms(s, d).to_bits(),
                        RouteTable::rtt_ms(&table, s, d).to_bits(),
                        "{}->{} rtt", s, d
                    ),
                }
            }
        }
        prop_assert!(tiny.cache_stats().peak_resident <= 2);
    }

    /// Concurrent readers racing on a shared (and undersized) cache still
    /// observe byte-identical paths: the cached tree for a source is always
    /// the same tree recomputation would produce.
    #[test]
    fn ondemand_is_deterministic_across_threads(n in 4usize..16, seed in 0u64..60) {
        let topo = gen::waxman(n, 0.5, 0.4, seed);
        let table = RouteTable::build(&topo);
        let csr = Arc::new(CsrTopology::from_topology(&topo));
        let engine = OnDemandRoutes::with_capacity(csr, 3);
        let pairs: Vec<(NodeId, NodeId)> = ordered_pairs(n).collect();
        let results: Vec<Vec<(Vec<NodeId>, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let engine = &engine;
                    let pairs = &pairs;
                    scope.spawn(move || {
                        pairs
                            .iter()
                            .skip(t)
                            .step_by(8)
                            .map(|&(s, d)| {
                                (engine.path(s, d).nodes, engine.rtt_ms(s, d).to_bits())
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for (t, rows) in results.iter().enumerate() {
            for (i, (nodes, rtt_bits)) in rows.iter().enumerate() {
                let (s, d) = pairs[t + i * 8];
                prop_assert_eq!(nodes, &table.path(s, d).nodes, "{}->{}", s, d);
                prop_assert_eq!(*rtt_bits, RouteTable::rtt_ms(&table, s, d).to_bits());
            }
        }
    }

    /// Identifiability classes partition the link set.
    #[test]
    fn identifiability_partitions(n in 3usize..14, seed in 0u64..100) {
        let topo = gen::waxman(n, 0.5, 0.4, seed);
        let routes = RouteTable::build(&topo);
        let paths: Vec<_> = routes.pairs().map(|(s, d)| routes.path(s, d).clone()).collect();
        let refs: Vec<&_> = paths.iter().collect();
        let m = RoutingMatrix::from_paths(&topo, &refs);
        let classes = m.identifiability_classes();
        let total: usize = classes.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, topo.link_count());
        let mut seen = std::collections::HashSet::new();
        for c in &classes {
            for l in c {
                prop_assert!(seen.insert(*l), "link in two classes");
            }
        }
    }
}

#[test]
fn evaluation_topologies_have_sane_route_tables() {
    for topo in zoo::evaluation_suite() {
        let routes = RouteTable::build(&topo);
        for (s, d) in routes.pairs() {
            let p = routes.path(s, d);
            assert_eq!(p.src(), s);
            assert_eq!(p.dst(), d);
            assert!(!p.is_empty());
            assert!(
                (p.latency_ms(&topo) - routes.latency_ms(s, d)).abs() < 1e-9,
                "{}: path latency mismatch",
                topo.name()
            );
        }
    }
}
