//! What a replay client needs besides the connection, shared by `load_gen`
//! and the session tests: one recorded failure in wire form, and the order
//! a pulse subscriber is owed.

use crate::frame::{PulseMsg, Record};
use db_core::classifier::timeline;
use db_flowmon::WindowConfig;
use db_netsim::{
    FailureScenario, FlowSpec, SimConfig, SimTime, Simulator, TraceRecorder, TrafficConfig,
    TrafficGen,
};
use db_topology::{CsrTopology, LinkId, OnDemandRoutes, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// One simulated single-link failure, as the records a daemon is fed.
pub struct FailureTrace {
    /// Every switch-level observation of the run, in simulation order.
    pub records: Vec<Record>,
    /// The failed link.
    pub link: LinkId,
    /// The monitoring interval the trace was cut at; the daemon's must match.
    pub interval_ns: u64,
    /// Past the last record, aligned to the interval: advancing the engine
    /// here closes the final window.
    pub end_ns: u64,
}

/// Simulate `topo` under the full-density workload of `seed` — the one a
/// `Hello` with that seed deploys — with the link `pick` chooses from its
/// flows failed at the standard timeline point.
pub fn record_failure(
    topo: &Topology,
    seed: u64,
    pick: impl FnOnce(&[FlowSpec]) -> LinkId,
) -> FailureTrace {
    let routes = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(topo)));
    let traffic = TrafficConfig::with_density(1.0);
    let flows = TrafficGen::generate_auto(topo, &routes, &traffic, seed);
    let wcfg = WindowConfig::for_network(&routes, SimTime::from_ms(4));
    let (t_fail, _, end) = timeline(&wcfg, traffic.start_spread);
    let link = pick(&flows);
    let scenario = FailureScenario::single_link(link, t_fail);
    let cfg = SimConfig {
        end,
        tick_interval: wcfg.interval,
        ..Default::default()
    };
    let mut sim = Simulator::new(topo, flows, cfg, &scenario, seed, TraceRecorder::new());
    sim.run();
    let (trace, _) = sim.finish();
    let interval_ns = wcfg.interval.as_ns();
    FailureTrace {
        records: trace.observations.iter().map(Record::from).collect(),
        link,
        interval_ns,
        end_ns: (end.as_ns() / interval_ns + 2) * interval_ns,
    }
}

/// Whether `pulses`, in arrival order, keep the subscriber's contract:
/// `next_window` cursors never move backwards, and no series repeats or
/// reorders a window.
pub fn pulses_in_order<'p>(pulses: impl IntoIterator<Item = &'p PulseMsg>) -> bool {
    let mut cursor = 0u64;
    let mut seen: HashMap<(u8, u16), u64> = HashMap::new();
    for p in pulses {
        if p.next_window < cursor {
            return false;
        }
        cursor = p.next_window;
        for pt in &p.points {
            let last = seen.insert((pt.kind, pt.id), pt.window);
            if last.is_some_and(|last| pt.window <= last) {
                return false;
            }
        }
    }
    true
}
