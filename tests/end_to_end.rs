//! End-to-end integration tests spanning all crates: topology → simulation
//! → monitoring → classification → inference → warnings → evaluation.
//!
//! These run full (small) deployments, including the paper's worked
//! examples (Fig. 1 identifiability, Fig. 5 weight assignment) recreated
//! against the live system rather than against isolated modules.

use drift_bottle::core::experiment::sample_covered_links;
use drift_bottle::prelude::*;
use drift_bottle::topology::RouteTable;
use std::sync::OnceLock;

/// A shared prepared 3x3 grid: training once keeps the suite fast.
fn grid_prep() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        prepare(
            zoo::grid(3, 3),
            &PrepareConfig {
                n_link_scenarios: 4,
                n_node_scenarios: 1,
                n_healthy: 1,
                train_density: 1.0,
            },
        )
    })
}

fn grid_setup(prep: &Prepared, seed: u64) -> ScenarioSetup<'_> {
    let mut setup = ScenarioSetup::flagship(prep, 1.0, seed);
    // Thresholds scaled to a 9-switch network (§4.3).
    setup.sys.warning = WarningConfig {
        hop_min: 3,
        alpha: 1.0,
        beta: 2.0,
    };
    setup
}

#[test]
fn localizes_every_covered_grid_link() {
    let prep = grid_prep();
    let mut found = 0;
    let links = sample_covered_links(prep, 6, 11);
    let n = links.len();
    for l in links {
        let outcome = run_scenario(&grid_setup(prep, 21), &ScenarioKind::SingleLink(l));
        let v = outcome.variant("Drift-Bottle").unwrap();
        if v.reported.contains(&l) {
            found += 1;
        }
        assert!(
            v.metrics.fpr <= 0.25,
            "link {l}: too many false accusations {:?}",
            v.reported
        );
    }
    assert!(found >= n - 1, "localized only {found}/{n} covered links");
}

#[test]
fn figure5_example_through_the_live_system() {
    // The §4.2 worked example as a network: monitor s between aggregation
    // switches a and b; failure on the s-b link (the paper's l2) makes the
    // b-side flows abnormal. The negative weights from the healthy a-side
    // flows keep the a-s link (the paper's l1) out of the report.
    let prep = prepare(
        zoo::figure5(),
        &PrepareConfig {
            n_link_scenarios: 3,
            n_node_scenarios: 0,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    let l2 = prep
        .topo
        .link_between(NodeId(1), NodeId(2))
        .expect("s-b link");
    let l1 = prep
        .topo
        .link_between(NodeId(0), NodeId(1))
        .expect("a-s link");
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 5);
    setup.sys.warning = WarningConfig {
        hop_min: 2,
        alpha: 1.0,
        beta: 1.5,
    };
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(l2));
    let v = outcome.variant("Drift-Bottle").unwrap();
    assert!(
        v.reported.contains(&l2),
        "the culprit l2 must be reported: {:?}",
        v.reported
    );
    // The negative weights from the a-side's healthy flows protect l1
    // everywhere that evidence can drift to — i.e. at the monitor s and on
    // the a side. (Monitors isolated behind the cut may transiently accuse
    // l1: no innocence evidence can reach them, the Fig.-1 partition
    // phenomenon.)
    for &(switch, link) in &v.reported_pairs {
        if link == l1 {
            assert!(
                switch == NodeId(2) || switch.0 >= 11,
                "l1 accused from {switch}, where a-side innocence evidence is visible: {:?}",
                v.reported_pairs
            );
        }
    }
}

#[test]
fn repair_stops_the_warnings() {
    // A failure repaired before the collection window should leave no
    // reports inside it.
    let prep = grid_prep();
    let setup = grid_setup(prep, 33);
    // Build a repaired scenario manually through the netsim API.
    use drift_bottle::core::classifier::timeline;
    use drift_bottle::core::system::DriftBottleSystem;
    use drift_bottle::netsim::{FailureScenario, SimConfig, Simulator};
    let traffic = TrafficConfig::with_density(1.0);
    let flows = TrafficGen::generate(&prep.topo, prep.routes.as_ref(), &traffic, 33);
    let (t_fail, window, end) = timeline(&prep.wcfg, traffic.start_spread);
    // Fail long before the window and repair before it opens.
    let early = SimTime::from_ms(10);
    let mut scenario = FailureScenario::single_link(LinkId(0), early);
    scenario.events[0].repair_at = Some(t_fail.saturating_sub(prep.wcfg.window_len()));
    let system = DriftBottleSystem::deploy(
        &prep.topo,
        &flows,
        prep.wcfg,
        prep.table.clone(),
        setup.variants.clone(),
        setup.sys.clone(),
        window,
    );
    let cfg = SimConfig {
        end,
        tick_interval: prep.wcfg.interval,
        ..Default::default()
    };
    let mut sim = Simulator::new(&prep.topo, flows, cfg, &scenario, 33, system);
    sim.run();
    let (system, _) = sim.finish();
    let log = system.log("Drift-Bottle").unwrap();
    assert!(
        log.reported_links.is_empty(),
        "repaired failure must not be reported in the window: {:?}",
        log.reported_links
    );
}

#[test]
fn severe_corruption_is_localized_like_a_failure() {
    let prep = grid_prep();
    let link = sample_covered_links(prep, 3, 7)[1];
    let outcome = run_scenario(&grid_setup(prep, 55), &ScenarioKind::Corruption(link, 0.9));
    let v = outcome.variant("Drift-Bottle").unwrap();
    assert_eq!(outcome.ground_truth, vec![link]);
    assert!(
        v.reported.contains(&link),
        "90% corruption must be localized: {:?} (raises {})",
        v.reported,
        v.raises
    );
}

#[test]
fn whole_run_is_deterministic() {
    let prep = grid_prep();
    let kind = ScenarioKind::RandomLinks { count: 2, seed: 9 };
    let a = run_scenario(&grid_setup(prep, 77), &kind);
    let b = run_scenario(&grid_setup(prep, 77), &kind);
    assert_eq!(a.ground_truth, b.ground_truth);
    assert_eq!(a.stats, b.stats);
    for (va, vb) in a.variants.iter().zip(&b.variants) {
        assert_eq!(va.reported, vb.reported);
        assert_eq!(va.raises, vb.raises);
        assert_eq!(va.reported_pairs, vb.reported_pairs);
    }
}

#[test]
fn figure1_identifiability_contrast() {
    // Host-based end-to-end monitoring cannot distinguish the two links of
    // the Fig. 1 chain; the switch-based system can.
    use drift_bottle::topology::matrix::{max_coverage, PathStatus, RoutingMatrix};
    let topo = zoo::figure1();
    let routes = RouteTable::build(&topo);
    // End-to-end view: only the full chain paths are observable.
    let m = RoutingMatrix::from_paths(
        &topo,
        &[
            routes.path(NodeId(0), NodeId(2)),
            routes.path(NodeId(2), NodeId(0)),
        ],
    );
    let classes = m.identifiability_classes();
    assert!(
        classes.iter().any(|c| c.len() == 2),
        "end-to-end monitoring must conflate the two links"
    );
    // The boolean tomography baseline accuses a set containing both links
    // (or picks one arbitrarily) — it cannot isolate the culprit.
    let culprits = max_coverage(&m, &[PathStatus::Abnormal, PathStatus::Abnormal]);
    assert!(!culprits.is_empty());

    // The switch-based system, with per-hop vantage points, isolates it.
    // (A 4-switch chain: three switches give only six flows, too little
    // evidence for the thresholds; the contrast is the same.)
    let prep = prepare(
        zoo::line_with_latency(4, 3.0),
        &PrepareConfig {
            n_link_scenarios: 3,
            n_node_scenarios: 0,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 3);
    setup.sys.warning = WarningConfig {
        hop_min: 2,
        alpha: 1.0,
        beta: 1.5,
    };
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(LinkId(1)));
    let v = outcome.variant("Drift-Bottle").unwrap();
    assert!(
        v.reported.contains(&LinkId(1)),
        "switch-based monitoring must isolate l1: {:?}",
        v.reported
    );
}

#[test]
fn healthy_network_stays_quiet() {
    let prep = grid_prep();
    let outcome = run_scenario(&grid_setup(prep, 101), &ScenarioKind::None);
    let v = outcome.variant("Drift-Bottle").unwrap();
    assert!(outcome.ground_truth.is_empty());
    assert!(
        v.metrics.fpr <= 0.1,
        "healthy-network FPR {} too high: {:?}",
        v.metrics.fpr,
        v.reported
    );
}

#[test]
fn all_variants_observe_identical_traffic() {
    // The multi-variant system shares one simulation: the run statistics
    // must be identical whether one or four variants are attached.
    let prep = grid_prep();
    let mut solo = grid_setup(prep, 13);
    solo.variants = vec![VariantSpec::drift_bottle()];
    let mut multi = grid_setup(prep, 13);
    multi.variants = VariantSpec::fig8_set();
    let kind = ScenarioKind::SingleLink(sample_covered_links(prep, 1, 1)[0]);
    let a = run_scenario(&solo, &kind);
    let b = run_scenario(&multi, &kind);
    assert_eq!(a.stats, b.stats, "observers must not perturb the network");
    assert_eq!(
        a.variant("Drift-Bottle").unwrap().reported,
        b.variant("Drift-Bottle").unwrap().reported
    );
}
