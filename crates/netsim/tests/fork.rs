//! A run stopped before the failure, forked, and given the failure then is
//! the run that was given the failure at construction — and the order the
//! engine dispatches a run's events in is pinned by digest.

use db_netsim::{
    Annotation, FailureScenario, FlowSpec, HopInfo, Observer, SimConfig, SimStats, SimTime,
    Simulator, TraceRecorder, TrafficConfig, TrafficGen,
};
use db_topology::{zoo, LinkId, NodeId, RouteTable, Topology};
use db_util::hash::MixHasher;
use db_util::wire::ByteWriter;
use std::hash::Hasher;

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

/// Every `on_packet` (time, flow, seq, node, hop, annotation bytes) and
/// every `on_tick`, in the order the engine dispatched them, folded into
/// one running hash. Each hop also writes a byte of its own into the
/// annotation, so what a packet carries depends on every hop before it.
#[derive(Clone, Default)]
struct OrderDigest(MixHasher);

impl Observer for OrderDigest {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, ann: &mut Annotation) {
        let h = &mut self.0;
        h.write_u64(now.as_ns());
        h.write_u32(info.flow.0);
        h.write_u64(info.seq);
        h.write_u32(info.node.0.into());
        h.write_u64(info.hop_index as u64);
        h.write_u64(ann.len() as u64);
        h.write(ann.as_slice());
        if !info.is_last_switch {
            let mut bytes = ann.as_slice().to_vec();
            bytes.push(info.node.0 as u8 ^ info.seq as u8);
            ann.set(&bytes);
        }
    }

    fn on_tick(&mut self, now: SimTime) {
        self.0.write_u64(u64::MAX);
        self.0.write_u64(now.as_ns());
    }
}

fn order_digest((observer, stats): (OrderDigest, SimStats)) -> u64 {
    let mut w = ByteWriter::new();
    stats.encode_into(&mut w);
    let mut h = observer.0;
    h.write(&w.into_bytes());
    h.finish()
}

/// [`order_digest`] of [`dispatch_order_is_pinned`]'s run.
const PINNED_DISPATCH_DIGEST: u64 = 0x8458_3872_a3a9_cca2;

/// Outcome pins (golden, CSVs) hold only what a run adds up to; this holds
/// the order its events were dispatched in: a link failure with repair, a
/// corruption and a node failure with repair, under background loss.
#[test]
fn dispatch_order_is_pinned() {
    let mut link = FailureScenario::single_link(LinkId(6), T_FAIL);
    link.events[0].repair_at = Some(SimTime::from_ms(70));
    let mut node = FailureScenario::node(NodeId(8), SimTime::from_ms(50));
    node.events[0].repair_at = Some(SimTime::from_ms(80));
    let scenario = link
        .merged(FailureScenario::corruption(LinkId(1), 0.3, T_FAIL))
        .merged(node);
    let (topo, flows, cfg) = world();
    let mut sim = Simulator::new(
        &topo,
        flows.clone(),
        cfg.clone(),
        &scenario,
        SEED,
        OrderDigest::default(),
    );
    sim.run();
    let (observer, stats) = sim.finish();
    assert!(
        stats.dropped_down > 0 && stats.dropped_corrupt > 0 && stats.dropped_node > 0,
        "every failure must bite: {stats:?}"
    );
    let straight = order_digest((observer, stats));
    assert_eq!(
        straight, PINNED_DISPATCH_DIGEST,
        "dispatch order moved: {straight:#018x}"
    );
    let none = FailureScenario::none();
    let mut prefix = Simulator::new(&topo, flows, cfg, &none, SEED, OrderDigest::default());
    prefix.run_until(T_FAIL);
    let mut sim = prefix.fork(prefix.observer().clone());
    sim.inject(&scenario);
    sim.run();
    assert_eq!(order_digest(sim.finish()), straight, "forked run");
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
