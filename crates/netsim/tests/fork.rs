//! A run stopped before the failure, forked, and given the failure then is
//! the run that was given the failure at construction.

use db_netsim::{
    FailureScenario, FlowSpec, SimConfig, SimStats, SimTime, Simulator, TraceRecorder,
    TrafficConfig, TrafficGen,
};
use db_topology::{zoo, LinkId, NodeId, RouteTable, Topology};

const SEED: u64 = 5;
/// Every scenario below fails at this instant.
const T_FAIL: SimTime = SimTime::from_ms(40);

fn world() -> (Topology, Vec<FlowSpec>, SimConfig) {
    let topo = zoo::grid(3, 3);
    let routes = RouteTable::build(&topo);
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), SEED);
    let cfg = SimConfig {
        end: SimTime::from_ms(100),
        background_loss: 1e-3, // keeps the RNG stream in play on every hop
        ..Default::default()
    };
    (topo, flows, cfg)
}

fn healthy<'a>(
    topo: &'a Topology,
    flows: &[FlowSpec],
    cfg: &SimConfig,
) -> Simulator<'a, TraceRecorder> {
    let none = FailureScenario::none();
    Simulator::new(
        topo,
        flows.to_vec(),
        cfg.clone(),
        &none,
        SEED,
        TraceRecorder::new(),
    )
}

fn straight(scenario: &FailureScenario) -> (TraceRecorder, SimStats) {
    let (topo, flows, cfg) = world();
    let mut sim = Simulator::new(&topo, flows, cfg, scenario, SEED, TraceRecorder::new());
    sim.run();
    sim.finish()
}

fn forked(
    prefix: &Simulator<TraceRecorder>,
    scenario: &FailureScenario,
) -> (TraceRecorder, SimStats) {
    let mut sim = prefix.fork(prefix.observer().clone());
    sim.inject(scenario);
    sim.run();
    sim.finish()
}

fn assert_same(what: &str, got: &(TraceRecorder, SimStats), want: &(TraceRecorder, SimStats)) {
    assert!(
        got.0.observations == want.0.observations,
        "{what}: observation sequences differ"
    );
    assert_eq!(got.0.ticks, want.0.ticks, "{what}: ticks differ");
    assert_eq!(got.1, want.1, "{what}: stats differ");
}

fn scenarios() -> Vec<(&'static str, FailureScenario)> {
    let link = |l| FailureScenario::single_link(LinkId(l), T_FAIL);
    let mut repaired = link(6);
    repaired.events[0].repair_at = Some(SimTime::from_ms(70));
    vec![
        ("single link", link(6)),
        (
            "corruption",
            FailureScenario::corruption(LinkId(6), 0.3, T_FAIL),
        ),
        ("node", FailureScenario::node(NodeId(4), T_FAIL)),
        ("three links", link(1).merged(link(6)).merged(link(10))),
        ("repaired link", repaired),
    ]
}

#[test]
fn inject_into_a_forked_prefix_equals_scheduling_at_construction() {
    let (topo, flows, cfg) = world();
    let mut prefix = healthy(&topo, &flows, &cfg);
    prefix.run_until(T_FAIL);
    assert_eq!(prefix.now(), T_FAIL);
    for (what, scenario) in scenarios() {
        let want = straight(&scenario);
        assert!(
            want.1.dropped_down + want.1.dropped_corrupt + want.1.dropped_node > 0,
            "{what}: the failure must bite"
        );
        assert_same(what, &forked(&prefix, &scenario), &want);
    }
}

#[test]
fn forks_of_one_prefix_do_not_see_each_other() {
    let (topo, flows, cfg) = world();
    let mut prefix = healthy(&topo, &flows, &cfg);
    prefix.run_until(T_FAIL);
    let before = (prefix.observer().len(), prefix.stats.clone());
    let all = scenarios();
    let (link, node) = (&all[0].1, &all[2].1);
    // Both forks alive at once, run in turn.
    let mut a = prefix.fork(prefix.observer().clone());
    let mut b = prefix.fork(prefix.observer().clone());
    a.inject(link);
    b.inject(node);
    b.run();
    a.run();
    assert_same("link fork", &a.finish(), &straight(link));
    assert_same("node fork", &b.finish(), &straight(node));
    assert_eq!(
        (prefix.observer().len(), prefix.stats.clone()),
        before,
        "a fork wrote to its prefix"
    );
    assert_same(
        "prefix run on",
        &forked(&prefix, &FailureScenario::none()),
        &straight(&FailureScenario::none()),
    );
}

#[test]
#[should_panic(expected = "event at 10.000ms: the simulation is already at 40.000ms")]
fn injecting_into_the_past_is_refused() {
    let (topo, flows, cfg) = world();
    let mut sim = healthy(&topo, &flows, &cfg);
    sim.run_until(T_FAIL);
    sim.inject(&FailureScenario::single_link(
        LinkId(6),
        SimTime::from_ms(10),
    ));
}
