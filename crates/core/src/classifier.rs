//! Offline classifier training (§4.1, §6.1, §6.3).
//!
//! The paper generates failure datasets by simulation, extracts and labels
//! per-window feature records, splits 3:1, and trains one decision tree per
//! topology. [`prepare`] reproduces that pipeline and returns everything an
//! experiment needs: routes, monitoring windows, the trained tree compiled
//! to a match-action table, and the held-out confusion matrix (Fig. 6).

use crate::par::par_map;
use db_dtree::{ConfusionMatrix, DecisionTree, TableClassifier, TrainConfig};
use db_flowmon::dataset::Labeler;
use db_flowmon::{Dataset, TrainingMonitor, WindowConfig};
use db_netsim::{FailureScenario, SimConfig, SimTime, Simulator, TrafficConfig, TrafficGen};
use db_telemetry::Span;
use db_topology::{CsrTopology, LinkId, NodeId, OnDemandRoutes, Routes, Topology};
use db_util::Pcg64;
use std::sync::Arc;

/// Sampling interval (§6.3: 4 ms).
const INTERVAL: SimTime = SimTime::from_ms(4);

/// Master seed of the training scenarios, the split and the balance.
const SEED: u64 = 0xD81F7;

/// CART hyperparameters. The training split is already rebalanced to 4:1;
/// letting the tree auto-weight on top of that would double-count the
/// imbalance correction and crush normal recall.
const TREE: TrainConfig = TrainConfig {
    abnormal_weight: Some(2.0),
    max_depth: 10,
    min_samples_leaf: 60,
    min_gain: 1e-5,
};

/// Majority-class cap for the training split (normal ≤ ratio × abnormal).
const BALANCE_RATIO: f64 = 4.0;

/// Training pipeline configuration: how much is simulated to train on.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareConfig {
    /// Flow density of the training workloads.
    pub train_density: f64,
    /// Number of single-link-failure training scenarios (sampled links).
    pub n_link_scenarios: usize,
    /// Number of single-node-failure training scenarios.
    pub n_node_scenarios: usize,
    /// Number of failure-free training scenarios.
    pub n_healthy: usize,
}

impl Default for PrepareConfig {
    fn default() -> Self {
        PrepareConfig {
            train_density: 0.5,
            n_link_scenarios: 8,
            n_node_scenarios: 2,
            n_healthy: 2,
        }
    }
}

/// A topology prepared for experiments: routes, windows, trained classifier.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The topology.
    pub topo: Topology,
    /// Routing engine: on-demand per-source trees behind a bounded LRU
    /// cache, bit-identical to the old all-pairs `RouteTable` on small
    /// graphs (DESIGN.md §14) but `O(cache)` rather than `O(n²)` resident.
    pub routes: Arc<dyn Routes>,
    /// Network-wide monitoring window configuration.
    pub wcfg: WindowConfig,
    /// The trained tree (inspection, Fig. 6 ablations).
    pub tree: DecisionTree,
    /// The tree compiled to match-action rules — what switches deploy.
    pub table: TableClassifier,
    /// Held-out test confusion matrix (Fig. 6: per-class recall).
    pub confusion: ConfusionMatrix,
    /// Training/test sample counts (after/without balancing, respectively).
    pub train_samples: usize,
    /// Held-out sample count.
    pub test_samples: usize,
}

/// Experiment timeline derived from the monitoring window: failure injection
/// time, the warning-collection window `(from, to]`, and the simulation end.
pub fn timeline(
    wcfg: &WindowConfig,
    start_spread: SimTime,
) -> (SimTime, (SimTime, SimTime), SimTime) {
    let window_len = wcfg.window_len();
    let t_fail = start_spread + window_len + wcfg.interval + wcfg.interval;
    let collect_to = t_fail + window_len + wcfg.interval;
    let end = collect_to + wcfg.interval + wcfg.interval;
    (t_fail, (t_fail, collect_to), end)
}

/// One training scenario: simulate, monitor, label.
fn scenario_dataset(
    topo: &Topology,
    routes: &dyn Routes,
    wcfg: WindowConfig,
    scenario: &FailureScenario,
    density: f64,
    seed: u64,
) -> Dataset {
    let _monitor = Span::begin("phase.monitor", db_telemetry::active(), None);
    let traffic = TrafficConfig::with_density(density);
    let start_spread = traffic.start_spread;
    let flows = TrafficGen::generate_auto(topo, routes, &traffic, seed);
    let (t_fail, _, _) = timeline(&wcfg, start_spread);
    // Train past the failure long enough to see every flow's decaying
    // post-failure windows (bounded by monitor aging at one window length).
    let end = t_fail + wcfg.window_len() + wcfg.interval + wcfg.interval;
    let cfg = SimConfig {
        end,
        tick_interval: wcfg.interval,
        ..Default::default()
    };
    let mut monitor = TrainingMonitor::deploy(topo, &flows, wcfg);
    if let Some(reg) = db_telemetry::active() {
        monitor.set_metrics(reg);
    }
    let mut sim = Simulator::new(topo, flows.clone(), cfg, scenario, seed, monitor);
    sim.run();
    let (monitor, stats) = sim.finish();
    let labeler = Labeler::new(topo, scenario, &flows, &stats, wcfg.interval);
    monitor.finish(&labeler)
}

/// Run the full §6.1 training pipeline for a topology.
pub fn prepare(topo: Topology, cfg: &PrepareConfig) -> Prepared {
    let _train = Span::begin("phase.train", db_telemetry::active(), None);
    let ondemand = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&topo)));
    if let Some(reg) = db_telemetry::active() {
        ondemand.set_metrics(reg);
    }
    let routes: Arc<dyn Routes> = Arc::new(ondemand);
    let wcfg = WindowConfig::for_network_auto(routes.as_ref(), INTERVAL);
    let mut rng = Pcg64::new_stream(SEED, 0x7EA1);
    let start_spread = TrafficConfig::default().start_spread;
    let (t_fail, _, _) = timeline(&wcfg, start_spread);

    // Assemble the scenario list: sampled link failures, sampled node
    // failures, and healthy runs. Below the scale threshold the picks are
    // uniform over links/nodes (the historical behavior, bit-identical).
    // Above it the workload is sampled, so a uniform pick would almost
    // always fail a link carrying no flow — yielding zero abnormal windows
    // and a vacuous classifier. Instead each scale scenario picks a random
    // link (or node) on a random flow of its own workload: traffic-weighted,
    // so failures are observable by construction.
    let scale = topo.node_count() > db_topology::SCALE_NODE_THRESHOLD;
    let mut scenarios: Vec<(FailureScenario, u64)> = Vec::new();
    if scale {
        let traffic = TrafficConfig::with_density(cfg.train_density);
        let scale_pick = |rng: &mut Pcg64, seed: u64| {
            let flows = TrafficGen::generate_sampled(&topo, routes.as_ref(), &traffic, seed);
            if flows.is_empty() {
                return None;
            }
            let f = &flows[rng.below(flows.len() as u64) as usize];
            let links = &f.path.links;
            let l = links[rng.below(links.len() as u64) as usize];
            let nodes = &f.path.nodes;
            let n = nodes[rng.below(nodes.len() as u64) as usize];
            Some((l, n))
        };
        for i in 0..cfg.n_link_scenarios {
            let seed = SEED ^ (i as u64 + 1);
            if let Some((l, _)) = scale_pick(&mut rng, seed) {
                scenarios.push((FailureScenario::single_link(l, t_fail), seed));
            }
        }
        for i in 0..cfg.n_node_scenarios {
            let seed = SEED ^ (0x100 + i as u64);
            if let Some((_, n)) = scale_pick(&mut rng, seed) {
                scenarios.push((FailureScenario::node(n, t_fail), seed));
            }
        }
    } else {
        let link_picks = rng.sample_indices(
            topo.link_count(),
            cfg.n_link_scenarios.min(topo.link_count()),
        );
        for (i, l) in link_picks.into_iter().enumerate() {
            scenarios.push((
                FailureScenario::single_link(LinkId(l as u16), t_fail),
                SEED ^ (i as u64 + 1),
            ));
        }
        let node_picks = rng.sample_indices(
            topo.node_count(),
            cfg.n_node_scenarios.min(topo.node_count()),
        );
        for (i, n) in node_picks.into_iter().enumerate() {
            scenarios.push((
                FailureScenario::node(NodeId(n as u16), t_fail),
                SEED ^ (0x100 + i as u64),
            ));
        }
    }
    for i in 0..cfg.n_healthy {
        scenarios.push((FailureScenario::none(), SEED ^ (0x200 + i as u64)));
    }

    // Simulate in parallel; merge datasets.
    let datasets = par_map(scenarios, |(scenario, seed)| {
        scenario_dataset(
            &topo,
            routes.as_ref(),
            wcfg,
            scenario,
            cfg.train_density,
            *seed,
        )
    });
    let mut full = Dataset::default();
    for d in datasets {
        full.extend(d);
    }
    assert!(!full.is_empty(), "training produced no samples");

    if let Some(reg) = db_telemetry::active() {
        reg.gauge("train.rows").set(full.len() as f64);
        reg.gauge("train.dataset_bytes")
            .set(full.heap_bytes() as f64);
    }

    // 3:1 split, balance the training side, train, compile. The split and
    // the balance pick sample indices; only the picked training examples
    // are decoded, and the test side is scored in place.
    let mut split_rng = Pcg64::new_stream(SEED, 0x5711);
    let (train, mut test) = full.split(0.75, &mut split_rng);
    let train = full.balanced(train, BALANCE_RATIO, &mut split_rng);
    let examples = full.examples(&train);
    let tree = DecisionTree::train(&examples, &TREE);
    let table = TableClassifier::compile(&tree);
    // The confusion counts do not depend on order: score in storage order.
    test.sort_unstable();
    let mut confusion = ConfusionMatrix::new();
    for i in test.iter().map(|&i| i as usize) {
        confusion.record(full.label(i), table.classify(&full.features(i)));
    }
    Prepared {
        topo,
        routes,
        wcfg,
        tree,
        table,
        confusion,
        train_samples: train.len(),
        test_samples: test.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_topology::zoo;

    fn quick_cfg() -> PrepareConfig {
        PrepareConfig {
            n_link_scenarios: 3,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        }
    }

    #[test]
    fn prepare_on_a_small_mesh_learns_both_classes() {
        // A 3x3 grid with 1 ms links: small enough for a unit test, rich
        // enough for the failure signature to be learnable.
        let prep = prepare(zoo::grid(3, 3), &quick_cfg());
        assert!(prep.train_samples > 100, "train = {}", prep.train_samples);
        assert!(prep.test_samples > 100);
        let cm = prep.confusion;
        assert!(
            cm.tp + cm.fn_ > 0,
            "test split must contain abnormal samples"
        );
        assert!(
            cm.recall_normal() > 0.85,
            "normal recall too low: {:.3}",
            cm.recall_normal()
        );
        assert!(
            cm.recall_abnormal() > 0.5,
            "abnormal recall too low: {:.3}",
            cm.recall_abnormal()
        );
        assert!(prep.tree.depth() >= 1, "tree must have learned a split");
    }

    /// The tree (FNV-1a 64 of its `Debug` form, every threshold and
    /// confidence printed shortest-round-trip) and the held-out confusion
    /// matrix, recorded while training rows were 136-byte feature vectors.
    #[test]
    fn prepare_on_the_quick_grid_is_pinned() {
        let prep = prepare(zoo::grid(3, 3), &quick_cfg());
        let tree = db_util::wire::fnv1a64(format!("{:?}", prep.tree).as_bytes());
        let cm = prep.confusion;
        assert_eq!(
            format!(
                "tree={tree:#018x} tp={} fp={} fn={} tn={} train={} test={}",
                cm.tp, cm.fp, cm.fn_, cm.tn, prep.train_samples, prep.test_samples
            ),
            "tree=0x3a95e6ad09822168 tp=14 fp=274 fn=0 tn=2506 train=195 test=2794"
        );
    }

    #[test]
    fn prepare_is_deterministic() {
        let a = prepare(zoo::line(4), &quick_cfg());
        let b = prepare(zoo::line(4), &quick_cfg());
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.confusion, b.confusion);
    }

    #[test]
    fn timeline_ordering() {
        let topo = zoo::line(4);
        let routes = db_topology::RouteTable::build(&topo);
        let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
        let spread = SimTime::from_ms(20);
        let (t_fail, (from, to), end) = timeline(&wcfg, spread);
        assert!(t_fail > spread + wcfg.window_len());
        assert_eq!(from, t_fail);
        assert!(to > from + wcfg.window_len());
        assert!(end > to);
    }
}
