//! Cross-crate pipeline wiring tests: trace recording vs. live monitoring,
//! wire vs. exact carriers, and dataset construction consistency.

use drift_bottle::core::classifier::timeline;
use drift_bottle::core::system::DriftBottleSystem;
use drift_bottle::flowmon::dataset::Labeler;
use drift_bottle::flowmon::{feature_digest, NetworkMonitor, TrainingMonitor, WindowConfig};
use drift_bottle::netsim::trace::replay;
use drift_bottle::netsim::TraceRecorder;
use drift_bottle::prelude::*;
use drift_bottle::topology::RouteTable;

fn small_world() -> (
    Topology,
    RouteTable,
    Vec<drift_bottle::netsim::FlowSpec>,
    WindowConfig,
) {
    let topo = zoo::line_with_latency(4, 3.0);
    let routes = RouteTable::build(&topo);
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 12);
    let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
    (topo, routes, flows, wcfg)
}

#[test]
fn replayed_monitoring_equals_live_monitoring() {
    // Record a trace with one observer, then replay it into a fresh
    // NetworkMonitor: the produced feature rows must equal those of a live
    // NetworkMonitor run on the same simulation.
    let (topo, _routes, flows, wcfg) = small_world();
    let scenario = FailureScenario::single_link(LinkId(1), SimTime::from_ms(60));
    let cfg = SimConfig {
        end: SimTime::from_ms(120),
        tick_interval: wcfg.interval,
        ..Default::default()
    };
    // Live pass.
    let live = NetworkMonitor::deploy(&topo, &flows, wcfg);
    let mut sim = Simulator::new(&topo, flows.clone(), cfg.clone(), &scenario, 12, live);
    sim.run();
    let (live, live_stats) = sim.finish();
    // Trace pass.
    let mut sim = Simulator::new(
        &topo,
        flows.clone(),
        cfg,
        &scenario,
        12,
        TraceRecorder::new(),
    );
    sim.run();
    let (trace, trace_stats) = sim.finish();
    assert_eq!(
        live_stats, trace_stats,
        "observers must not affect the network"
    );
    let mut replayed = NetworkMonitor::deploy(&topo, &flows, wcfg);
    replay(&trace, &mut replayed);
    assert_eq!(replayed.rows.len(), live.rows.len());
    for (a, b) in replayed.rows.iter().zip(&live.rows) {
        assert_eq!(a, b);
    }
}

/// One run observed by both monitors: every training row decodes to the
/// bit-exact features the `NetworkMonitor` kept for it, and carries the
/// label the labeler gives that `MonitorRow`.
#[test]
fn dataset_labels_are_stable_across_construction_paths() {
    let (topo, _routes, flows, wcfg) = small_world();
    let scenario = FailureScenario::single_link(LinkId(2), SimTime::from_ms(60));
    let cfg = SimConfig {
        end: SimTime::from_ms(120),
        tick_interval: wcfg.interval,
        ..Default::default()
    };
    let observers = (
        NetworkMonitor::deploy(&topo, &flows, wcfg),
        TrainingMonitor::deploy(&topo, &flows, wcfg),
    );
    let mut sim = Simulator::new(&topo, flows.clone(), cfg, &scenario, 9, observers);
    sim.run();
    let ((nm, training), stats) = sim.finish();
    let labeler = Labeler::new(&topo, &scenario, &flows, &stats, wcfg.interval);
    let ds = training.finish(&labeler);
    assert_eq!(ds.len(), nm.rows.len());
    for (i, row) in nm.rows.iter().enumerate() {
        assert_eq!(
            feature_digest(&ds.features(i)),
            feature_digest(&row.features),
            "row {i}: {row:?}"
        );
        let upstream = nm.upstream(row.switch, row.flow).expect("monitored flow");
        assert_eq!(
            ds.label(i),
            labeler.label(row.flow, upstream, row.at),
            "row {i}: {row:?}"
        );
    }
    let (n, ab) = ds.class_counts();
    assert!(n > 0 && ab > 0, "both classes present: {n}/{ab}");
}

#[test]
fn wire_carrier_matches_exact_carrier_for_integer_weights() {
    // Drift-Bottle weights are small integers; within the header's clamp
    // range the lossy wire encoding must agree with the exact side-table
    // carrier on what gets reported.
    let (topo, _routes, flows, wcfg) = small_world();
    let (t_fail, window, end) = timeline(&wcfg, TrafficConfig::default().start_spread);
    let scenario = FailureScenario::single_link(LinkId(1), t_fail);
    let variants = vec![
        VariantSpec::drift_bottle(),
        VariantSpec {
            name: "DB-Exact".into(),
            scheme: WeightScheme::DriftBottle,
            mechanism: drift_bottle::core::Mechanism::DistributedVirtual,
        },
    ];
    let sys = SystemConfig {
        warning: WarningConfig {
            hop_min: 2,
            alpha: 1.0,
            beta: 1.5,
        },
        ..Default::default()
    };
    let system = DriftBottleSystem::deploy(
        &topo,
        &flows,
        wcfg,
        drift_bottle::dtree::ThresholdClassifier::default(),
        variants,
        sys,
        window,
    );
    let cfg = SimConfig {
        end,
        tick_interval: wcfg.interval,
        ..Default::default()
    };
    let mut sim = Simulator::new(&topo, flows, cfg, &scenario, 4, system);
    sim.run();
    let (system, _) = sim.finish();
    let wire = system.log("Drift-Bottle").unwrap();
    let exact = system.log("DB-Exact").unwrap();
    assert_eq!(
        wire.reported_links, exact.reported_links,
        "wire clamping must not change the verdicts at these weight magnitudes"
    );
}

#[test]
fn header_survives_multi_hop_transport() {
    // The annotation carried by the engine must arrive at downstream
    // switches byte-identical to what the upstream switch wrote: the codec
    // decodes every in-flight header it sees.
    use drift_bottle::inference::HeaderCodec;
    use drift_bottle::netsim::{Annotation, HopInfo, Observer};
    struct Checker {
        codec: HeaderCodec,
        decoded: u64,
    }
    impl Observer for Checker {
        fn on_packet(&mut self, _now: SimTime, info: &HopInfo, ann: &mut Annotation) {
            if !info.is_ingress && !ann.is_empty() {
                let (inf, hops) = self
                    .codec
                    .decode(ann.as_slice())
                    .expect("in-flight header must decode");
                assert_eq!(hops as usize, info.hop_index, "hop counter tracks the path");
                assert!(inf.len() <= 4);
                self.decoded += 1;
            }
            if !info.is_last_switch {
                // Write a header naming this hop.
                let inf = drift_bottle::inference::Inference::from_pairs([(
                    LinkId(info.node.0),
                    (info.hop_index + 1) as f64,
                )]);
                ann.set(&self.codec.encode(&inf, (info.hop_index + 1) as u8));
            }
        }
    }
    let (topo, _routes, flows, _wcfg) = small_world();
    let cfg = SimConfig {
        end: SimTime::from_ms(60),
        ..Default::default()
    };
    let checker = Checker {
        codec: HeaderCodec::paper(),
        decoded: 0,
    };
    let mut sim = Simulator::new(&topo, flows, cfg, &FailureScenario::none(), 3, checker);
    sim.run();
    let (checker, stats) = sim.finish();
    assert!(stats.delivered > 0);
    assert!(
        checker.decoded > 300,
        "headers decoded: {}",
        checker.decoded
    );
}
