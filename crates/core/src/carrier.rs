//! The one per-packet side table of the crate: in-flight state keyed by
//! `(flow, seq)`.
//!
//! Two users, one structure: the engine's inference-header carriers
//! (what the packet would carry between switches, see [`crate::engine`])
//! and the exact-weight carrier of each `DistributedVirtual` variant in
//! [`crate::system`]. Both do the same thing once or twice per
//! record — take the upstream switch's entry, put this switch's — so the
//! lookup has to cost a constant: a flat hash table under
//! [`db_util::hash::MixHasher`], not an ordered tree and not SipHash.
//!
//! Bucket order depends on insert/remove history, so nothing iterates the
//! table into output directly: [`CarrierTable::sorted`] is the only way to
//! walk it, and it walks in key order (what snapshots encode).

use db_util::hash::MixBuild;
use std::collections::HashMap; // db-lint: allow(det-hash-iter) — iterated only by `sorted`, which orders by key first

/// `(flow id, packet sequence number)`.
pub(crate) type CarrierKey = (u32, u64);

/// Flat `(flow, seq)` → `V` table (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CarrierTable<V> {
    // db-lint: allow(det-hash-iter) — keyed take/put, an order-blind sweep, and `sorted`
    slots: HashMap<CarrierKey, V, MixBuild>,
}

impl<V> CarrierTable<V> {
    pub(crate) fn new() -> Self {
        CarrierTable {
            slots: HashMap::default(), // db-lint: allow(det-hash-iter) — see field
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Remove and return the entry a previous hop left for this packet.
    pub(crate) fn take(&mut self, flow: u32, seq: u64) -> Option<V> {
        self.slots.remove(&(flow, seq))
    }

    /// Park an entry for the packet's next hop, replacing any under the
    /// same key.
    pub(crate) fn put(&mut self, flow: u32, seq: u64, value: V) {
        self.slots.insert((flow, seq), value);
    }

    /// Drop every entry `keep` rejects, in one pass over the slots. Which
    /// entries go depends only on their values, never on bucket order.
    pub(crate) fn sweep(&mut self, mut keep: impl FnMut(&V) -> bool) {
        self.slots.retain(|_, v| keep(v));
    }

    /// Every entry in ascending key order — the snapshot encoding order,
    /// independent of how the table was filled.
    pub(crate) fn sorted(&self) -> Vec<(CarrierKey, &V)> {
        let mut entries: Vec<(CarrierKey, &V)> = self.slots.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_what_put_parked_once() {
        let mut t = CarrierTable::new();
        t.put(3, 9, 'a');
        t.put(3, 9, 'b');
        assert_eq!(t.len(), 1, "same key replaces");
        assert_eq!(t.take(3, 9), Some('b'));
        assert_eq!(t.take(3, 9), None);
        assert_eq!(t.take(9, 3), None);
    }

    #[test]
    fn sweep_drops_by_value_and_sorted_walks_in_key_order() {
        let mut t = CarrierTable::new();
        for (flow, seq) in [(2, 1), (1, 7), (1, 2), (0, 99), (2, 0)] {
            t.put(flow, seq, seq);
        }
        t.sweep(|&v| v != 7);
        let keys: Vec<CarrierKey> = t.sorted().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [(0, 99), (1, 2), (2, 0), (2, 1)]);
    }

    /// Two fill histories, one content: the sorted walk cannot tell them
    /// apart even though the bucket layouts differ.
    #[test]
    fn sorted_is_blind_to_insert_history() {
        let mut a = CarrierTable::new();
        for seq in 0..500u64 {
            a.put(1, seq, seq);
        }
        let mut b = CarrierTable::new();
        for seq in (0..2_000u64).rev() {
            b.put(1, seq, seq);
        }
        for seq in 500..2_000u64 {
            b.take(1, seq);
        }
        assert_eq!(a.sorted(), b.sorted());
    }
}
