//! Ablation — data-plane register budget (§5 hash-indexed registers).
//!
//! The P4 implementation indexes measure registers by a hash of the
//! 5-tuple; colliding flows silently mix their measures. This binary
//! quantifies the fidelity loss as the register budget shrinks: collision
//! rate and the fraction of per-interval measures that diverge from the
//! collision-free reference.

use db_bench::emit;
use db_flowmon::IntervalMeasures;
use db_netsim::{
    FailureScenario, FlowId, HopInfo, Observer, SimConfig, SimTime, Simulator, TrafficConfig,
    TrafficGen,
};
use db_topology::{zoo, CsrTopology, NodeId, OnDemandRoutes};
use db_util::table::{pct, TextTable};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Fixed-slot register bank with hash indexing and silent collisions — the
/// hardware model of §5 (`hash(5-tuple) · W + i`). Slot count is the SRAM
/// budget. Two flows hashing to the same slot mix their measures, and the
/// slot is attributed to whichever flow touched it first in the interval.
struct HashedStore {
    slots: Vec<Slot>,
    /// Flows whose updates landed in a slot owned by another flow.
    collisions: u64,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    owner: Option<FlowId>,
    measures: IntervalMeasures,
}

impl HashedStore {
    /// Create a store with `slots` register slots. Panics if zero.
    fn new(slots: usize) -> Self {
        assert!(slots > 0, "HashedStore needs at least one slot");
        HashedStore {
            slots: vec![Slot::default(); slots],
            collisions: 0,
        }
    }

    /// Record a packet of `size` bytes for `flow` at `offset` into the
    /// current interval of length `interval`.
    fn record(&mut self, flow: FlowId, offset: SimTime, interval: SimTime, size: u32) {
        // The hash the P4 program would compute from the 5-tuple; here a
        // Fibonacci mix of the flow id.
        let h = (flow.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (h >> 32) as usize % self.slots.len();
        let slot = &mut self.slots[idx];
        match slot.owner {
            None => slot.owner = Some(flow),
            Some(owner) if owner != flow => self.collisions += 1,
            Some(_) => {}
        }
        // Colliding flows mix into the same registers — the hardware cannot
        // tell them apart.
        slot.measures.record(offset, interval, size);
    }

    /// Take the interval's measures by owning flow, clearing every slot.
    fn drain(&mut self) -> BTreeMap<FlowId, IntervalMeasures> {
        self.slots
            .iter_mut()
            .filter_map(|slot| Some((slot.owner.take()?, std::mem::take(&mut slot.measures))))
            .collect()
    }
}

/// Observer feeding one switch's packets into the hashed store and into a
/// collision-free reference: one measure row per flow id, which is what the
/// deployed `SwitchMonitor` column amounts to.
struct DualStore {
    node: NodeId,
    exact: BTreeMap<FlowId, IntervalMeasures>,
    hashed: HashedStore,
    interval: SimTime,
    interval_start: SimTime,
    total_intervals: u64,
    diverged: u64,
}

impl Observer for DualStore {
    fn on_packet(&mut self, now: SimTime, info: &HopInfo, _ann: &mut db_netsim::Annotation) {
        if info.node != self.node {
            return;
        }
        let off = now.saturating_sub(self.interval_start);
        self.exact
            .entry(info.flow)
            .or_default()
            .record(off, self.interval, info.size);
        self.hashed.record(info.flow, off, self.interval, info.size);
    }

    fn on_tick(&mut self, now: SimTime) {
        let e = std::mem::take(&mut self.exact);
        let h = self.hashed.drain();
        for (flow, m) in &e {
            self.total_intervals += 1;
            if h.get(flow) != Some(m) {
                self.diverged += 1;
            }
        }
        // Flows owned by nobody in the hashed store (evicted by a collision
        // winner) also diverge.
        self.diverged += h.keys().filter(|k| !e.contains_key(*k)).count() as u64;
        self.interval_start = now;
    }
}

fn main() {
    let topo = zoo::chinanet();
    let routes = OnDemandRoutes::new(Arc::new(CsrTopology::from_topology(&topo)));
    let flows = TrafficGen::generate(&topo, &routes, &TrafficConfig::default(), 0xAB2);
    // The busiest switch: a national hub.
    let hub = topo
        .nodes()
        .max_by_key(|&n| topo.degree(n))
        .expect("non-empty topology");
    let monitored = flows
        .iter()
        .filter(|f| f.path.position_of(hub).is_some())
        .count();
    println!("hub {hub} carries {monitored} of {} flows\n", flows.len());

    let mut t = TextTable::new(
        "Ablation §5: register budget vs measure fidelity (Chinanet hub switch)",
        &["slots", "slots/flow", "collisions", "diverged intervals"],
    );
    for slots in [256usize, 512, 1024, 2048, 4096, 8192] {
        let observer = DualStore {
            node: hub,
            exact: BTreeMap::new(),
            hashed: HashedStore::new(slots),
            interval: SimTime::from_ms(4),
            interval_start: SimTime::ZERO,
            total_intervals: 0,
            diverged: 0,
        };
        let cfg = SimConfig {
            end: SimTime::from_ms(120),
            ..Default::default()
        };
        let mut sim = Simulator::new(
            &topo,
            flows.clone(),
            cfg,
            &FailureScenario::none(),
            0xAB2,
            observer,
        );
        sim.run();
        let (obs, _) = sim.finish();
        t.row(&[
            slots.to_string(),
            format!("{:.1}", slots as f64 / monitored as f64),
            obs.hashed.collisions.to_string(),
            pct(obs.diverged as f64 / obs.total_intervals.max(1) as f64),
        ]);
    }
    emit("ablation_registers", &t);
    println!(
        "Takeaway: a few slots per monitored flow keep the hash-indexed hardware\n\
         registers faithful to the ideal store; §6.10's 6.88% SRAM figure buys\n\
         exactly this headroom."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const IV: SimTime = SimTime::from_ms(4);

    #[test]
    fn without_collisions_the_hashed_store_matches_the_reference() {
        let mut hashed = HashedStore::new(4096);
        let mut exact: BTreeMap<FlowId, IntervalMeasures> = BTreeMap::new();
        for id in 0..50u32 {
            for k in 0..3 {
                let off = SimTime::from_us(500 * k);
                hashed.record(FlowId(id), off, IV, 100 + id);
                exact
                    .entry(FlowId(id))
                    .or_default()
                    .record(off, IV, 100 + id);
            }
        }
        assert_eq!(hashed.collisions, 0);
        assert_eq!(hashed.drain(), exact);
        assert!(hashed.drain().is_empty(), "drained slots are free again");
    }

    #[test]
    fn collisions_mix_measures_under_the_first_toucher() {
        // One slot: everything collides into it.
        let mut s = HashedStore::new(1);
        s.record(FlowId(1), SimTime::ZERO, IV, 100);
        s.record(FlowId(2), SimTime::ZERO, IV, 200);
        assert_eq!(s.collisions, 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        let mixed = drained[&FlowId(1)];
        assert_eq!(mixed.n_packet, 2, "colliding flows mix");
        assert_eq!(mixed.len_all, 300);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_are_rejected() {
        HashedStore::new(0);
    }
}
