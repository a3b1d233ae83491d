//! Stand-alone register-bank models for the resource ablation.
//!
//! The paper's P4 implementation (§5) keeps only the current sampling
//! interval's measures on the data plane, in register arrays indexed by
//! `hash(5-tuple) · W + i`. The deployed [`crate::SwitchMonitor`] keeps its
//! own collision-free register column; the two models here exist so
//! `ablation_registers` can price a limited SRAM budget against it:
//!
//! * [`ExactStore`] — one register row per flow id; no collisions. This is
//!   what the paper's own Python replay simulator effectively evaluates
//!   with, and what the monitor's column is equivalent to.
//! * [`HashedStore`] — a fixed number of slots addressed by a hash of the
//!   flow id, with silent collisions: two flows hashing to the same slot mix
//!   their measures and the slot is attributed to whichever flow touched it
//!   first in the interval.

use crate::measures::IntervalMeasures;
use db_netsim::{FlowId, SimTime};

/// A per-interval measure store: record packets, then drain at interval end.
pub trait MeasureStore {
    /// Record a packet of `size` bytes for `flow` at `offset` into the
    /// current interval of length `interval`.
    fn record(&mut self, flow: FlowId, offset: SimTime, interval: SimTime, size: u32);
    /// Take all non-empty measures accumulated this interval, attributed to
    /// flows, clearing the store for the next interval. Sorted by ascending
    /// flow id.
    fn drain(&mut self) -> Vec<(FlowId, IntervalMeasures)>;
    /// Number of distinct slots currently in use.
    fn occupancy(&self) -> usize;
}

/// Collision-free store with one register row per flow id, indexed directly
/// (flow ids are dense small integers). A packet update is one bounds check
/// and one array write — the software analogue of the paper's per-flow P4
/// register rows. `touched` tracks which rows were written this interval so
/// draining does not scan the (mostly idle) full table.
#[derive(Debug, Clone, Default)]
pub struct ExactStore {
    rows: Vec<IntervalMeasures>,
    touched: Vec<FlowId>,
}

impl ExactStore {
    /// Fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MeasureStore for ExactStore {
    // db-lint: allow(hot-index) — rows is grown to cover idx by the resize_with above the accesses
    fn record(&mut self, flow: FlowId, offset: SimTime, interval: SimTime, size: u32) {
        let idx = flow.0 as usize;
        if idx >= self.rows.len() {
            self.rows.resize_with(idx + 1, Default::default);
        }
        // `record` always bumps n_packet, so an empty row ⇔ untouched this
        // interval — exactly when the flow must join the touched list.
        if self.rows[idx].is_empty() {
            self.touched.push(flow);
        }
        self.rows[idx].record(offset, interval, size);
    }

    fn drain(&mut self) -> Vec<(FlowId, IntervalMeasures)> {
        self.touched.sort_unstable();
        self.touched
            .drain(..)
            .map(|f| (f, std::mem::take(&mut self.rows[f.0 as usize])))
            .collect()
    }

    fn occupancy(&self) -> usize {
        self.touched.len()
    }
}

/// Fixed-slot store with hash indexing and silent collisions — the hardware
/// model. Slot count is the SRAM budget.
#[derive(Debug, Clone)]
pub struct HashedStore {
    slots: Vec<Slot>,
    /// Flows whose updates landed in a slot owned by another flow.
    pub collisions: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    owner: Option<FlowId>,
    measures: IntervalMeasures,
}

impl HashedStore {
    /// Create a store with `slots` register slots. Panics if zero.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "HashedStore needs at least one slot");
        HashedStore {
            slots: vec![Slot::default(); slots],
            collisions: 0,
        }
    }

    /// The hash the P4 program would compute from the 5-tuple; here a
    /// Fibonacci mix of the flow id.
    fn slot_of(&self, flow: FlowId) -> usize {
        let h = (flow.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % self.slots.len()
    }
}

impl MeasureStore for HashedStore {
    // db-lint: allow(hot-index) — slot_of reduces the hash modulo slots.len()
    fn record(&mut self, flow: FlowId, offset: SimTime, interval: SimTime, size: u32) {
        let idx = self.slot_of(flow);
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

    fn drain(&mut self) -> Vec<(FlowId, IntervalMeasures)> {
        let mut out = Vec::new();
        for slot in &mut self.slots {
            if let Some(owner) = slot.owner.take() {
                out.push((owner, std::mem::take(&mut slot.measures)));
            }
        }
        out.sort_unstable_by_key(|(f, _)| *f);
        out
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.owner.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IV: SimTime = SimTime::from_ms(4);

    #[test]
    fn exact_store_separates_flows() {
        let mut s = ExactStore::new();
        s.record(FlowId(1), SimTime::ZERO, IV, 100);
        s.record(FlowId(2), SimTime::ZERO, IV, 200);
        s.record(FlowId(1), SimTime::from_us(600), IV, 300);
        assert_eq!(s.occupancy(), 2);
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        let f1 = drained.iter().find(|(f, _)| *f == FlowId(1)).unwrap().1;
        assert_eq!(f1.n_packet, 2);
        assert_eq!(f1.len_all, 400);
        let f2 = drained.iter().find(|(f, _)| *f == FlowId(2)).unwrap().1;
        assert_eq!(f2.n_packet, 1);
        // Drained store is empty again.
        assert_eq!(s.occupancy(), 0);
        assert!(s.drain().is_empty());
    }

    #[test]
    fn drain_is_sorted_by_flow() {
        let mut s = ExactStore::new();
        for id in [5u32, 1, 9, 3] {
            s.record(FlowId(id), SimTime::ZERO, IV, 10);
        }
        let ids: Vec<u32> = s.drain().iter().map(|(f, _)| f.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }

    #[test]
    fn hashed_store_without_collisions_matches_exact() {
        let mut hashed = HashedStore::new(4096);
        let mut exact = ExactStore::new();
        for id in 0..50u32 {
            for k in 0..3 {
                let off = SimTime::from_us(500 * k);
                hashed.record(FlowId(id), off, IV, 100 + id);
                exact.record(FlowId(id), off, IV, 100 + id);
            }
        }
        if hashed.collisions == 0 {
            assert_eq!(hashed.drain(), exact.drain());
        }
    }

    #[test]
    fn hashed_store_collisions_mix_measures() {
        // One slot: everything collides into it.
        let mut s = HashedStore::new(1);
        s.record(FlowId(1), SimTime::ZERO, IV, 100);
        s.record(FlowId(2), SimTime::ZERO, IV, 200);
        assert_eq!(s.collisions, 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, FlowId(1), "first toucher owns the slot");
        assert_eq!(drained[0].1.n_packet, 2, "colliding flows mix");
        assert_eq!(drained[0].1.len_all, 300);
    }

    #[test]
    fn hashed_store_occupancy() {
        let mut s = HashedStore::new(128);
        assert_eq!(s.occupancy(), 0);
        s.record(FlowId(7), SimTime::ZERO, IV, 1);
        assert_eq!(s.occupancy(), 1);
        s.drain();
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn hashed_store_rejects_zero_slots() {
        HashedStore::new(0);
    }
}
