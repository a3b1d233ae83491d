//! The one per-packet side table of the crate: in-flight state keyed by
//! `(flow, seq)`.
//!
//! Two users, one structure: the engine's inference-header carriers
//! (what the packet would carry between switches, see [`crate::engine`])
//! and the exact-weight carrier of each `DistributedVirtual` variant in
//! [`crate::system`]. Both do the same thing once per record: find the
//! entry the upstream switch left, compute this switch's from it, and
//! leave that in the same place for the next hop — or clear it, at the
//! last switch. [`CarrierTable::slot`] is that one probe and
//! [`Slot::set`] writes into the entry it found, so a hop hashes its key
//! once and moves its value once. The lookup has to cost a constant: a
//! flat hash table under [`db_util::hash::MixHasher`], not an ordered
//! tree and not SipHash.
//!
//! Bucket order depends on insert/remove history, so nothing iterates the
//! table into output directly: [`CarrierTable::sorted`] is the only way to
//! walk it, and it walks in key order (what snapshots encode).

use db_util::hash::MixBuild;
use std::collections::hash_map::Entry;
use std::collections::HashMap; // db-lint: allow(det-hash-iter) — iterated only by `sorted`, which orders by key first

/// `(flow id, packet sequence number)`.
pub(crate) type CarrierKey = (u32, u64);

/// Flat `(flow, seq)` → `V` table (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CarrierTable<V> {
    // db-lint: allow(det-hash-iter) — keyed slots, an order-blind sweep, and `sorted`
    slots: HashMap<CarrierKey, V, MixBuild>,
}

/// One packet's place in a [`CarrierTable`], found by one probe: what the
/// previous hop left there, if anything, and where this hop's value goes.
pub(crate) struct Slot<'a, V>(Entry<'a, CarrierKey, V>);

impl<V> Slot<'_, V> {
    /// The entry a previous hop left for this packet.
    pub(crate) fn get(&self) -> Option<&V> {
        match &self.0 {
            Entry::Occupied(e) => Some(e.get()),
            Entry::Vacant(_) => None,
        }
    }

    /// Leave `next` for the packet's next hop, over whatever the slot
    /// held; `None` leaves nothing and frees the slot.
    pub(crate) fn set(self, next: Option<V>) {
        match (self.0, next) {
            (Entry::Occupied(mut e), Some(v)) => *e.get_mut() = v,
            (Entry::Occupied(e), None) => {
                e.remove();
            }
            (Entry::Vacant(e), Some(v)) => {
                e.insert(v);
            }
            (Entry::Vacant(_), None) => {}
        }
    }
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

    /// The packet's slot: one probe, whatever the hop does with it.
    pub(crate) fn slot(&mut self, flow: u32, seq: u64) -> Slot<'_, V> {
        Slot(self.slots.entry((flow, seq)))
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

    /// One hop the way both users run it: the slot's entry unless the
    /// packet is entering, then `next` of that back into the slot.
    fn hop(
        t: &mut CarrierTable<char>,
        key: CarrierKey,
        ingress: bool,
        next: impl FnOnce(Option<char>) -> Option<char>,
    ) -> Option<char> {
        let slot = t.slot(key.0, key.1);
        let incoming = if ingress { None } else { slot.get().copied() };
        slot.set(next(incoming));
        incoming
    }

    #[test]
    fn an_ingress_write_replaces_a_stale_slot() {
        let mut t = CarrierTable::new();
        hop(&mut t, (3, 9), true, |_| Some('a'));
        let seen = hop(&mut t, (3, 9), true, |_| Some('b'));
        assert_eq!(seen, None, "a packet entering reads nothing");
        assert_eq!(t.len(), 1, "same key replaces");
        assert_eq!(t.slot(3, 9).get(), Some(&'b'));
    }

    #[test]
    fn an_absent_upstream_slot_reads_as_nothing_and_is_filled() {
        let mut t = CarrierTable::new();
        let seen = hop(&mut t, (1, 4), false, |prev| {
            assert_eq!(prev, None);
            Some('x')
        });
        assert_eq!(seen, None);
        assert_eq!(t.sorted(), [((1, 4), &'x')]);
        // Nothing to leave and nothing there: the table stays as it was.
        hop(&mut t, (1, 5), false, |_| None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_mid_path_hop_updates_its_slot_in_place() {
        let mut t = CarrierTable::new();
        hop(&mut t, (2, 0), true, |_| Some('a'));
        hop(&mut t, (2, 1), true, |_| Some('z'));
        let seen = hop(&mut t, (2, 0), false, |prev| {
            prev.map(|c| (c as u8 + 1) as char)
        });
        assert_eq!(seen, Some('a'));
        assert_eq!(t.sorted(), [((2, 0), &'b'), ((2, 1), &'z')]);
    }

    #[test]
    fn the_last_switch_removes_the_slot() {
        let mut t = CarrierTable::new();
        hop(&mut t, (7, 7), true, |_| Some('a'));
        let seen = hop(&mut t, (7, 7), false, |_| None);
        assert_eq!(seen, Some('a'), "the last switch still reads it");
        assert_eq!(t.len(), 0);
        assert_eq!(t.slot(7, 7).get(), None);
    }

    #[test]
    fn sweep_drops_by_value_and_sorted_walks_in_key_order() {
        let mut t = CarrierTable::new();
        for (flow, seq) in [(2, 1), (1, 7), (1, 2), (0, 99), (2, 0)] {
            t.slot(flow, seq).set(Some(seq));
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
            a.slot(1, seq).set(Some(seq));
        }
        let mut b = CarrierTable::new();
        for seq in (0..2_000u64).rev() {
            b.slot(1, seq).set(Some(seq));
        }
        for seq in 500..2_000u64 {
            b.slot(1, seq).set(None);
        }
        assert_eq!(a.sorted(), b.sorted());
    }
}
