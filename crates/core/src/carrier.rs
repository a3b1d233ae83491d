//! The one per-packet side table of the crate: in-flight state keyed by
//! `(flow, seq)`.
//!
//! Two users, one structure, both in a lane of [`crate::system`]: the
//! inference-header carriers the streaming engine parks for records that
//! have no packet (what the packet would carry between switches, see
//! [`crate::engine`]), and the exact-weight carrier of each
//! `DistributedVirtual` variant. Both do the same thing once per record: find the
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
//!
//! The system shards its lanes by flow ([`shard_of`]): shard
//! `s` of `n` holds the flows with `flow % n == s`, so one flow's packets
//! always find their carrier in one table. `sorted` walks a set of such
//! tables as one, and [`CarrierTable::deal`] deals a table's entries out
//! to another shard count; neither depends on how the entries were split.

use db_util::hash::MixBuild;
use std::collections::hash_map::Entry;
use std::collections::HashMap; // db-lint: allow(det-hash-iter) — iterated only by `sorted`, which orders by key first

/// `(flow id, packet sequence number)`.
pub(crate) type CarrierKey = (u32, u64);

/// Flat `(flow, seq)` → `V` table (see the module docs). Every hop writes
/// its table's header (the entry count), and shards' tables sit side by
/// side in one `Vec`, so each takes cache lines of its own: two shards
/// writing one line would bounce it between their cores on every record.
#[derive(Debug, Clone)]
#[repr(align(128))]
pub(crate) struct CarrierTable<V> {
    // db-lint: allow(det-hash-iter) — keyed slots, an order-blind sweep and reshard, and `sorted`
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

    /// Every entry of `tables` in ascending key order — the snapshot
    /// encoding order, independent of how the tables were filled and of how
    /// the entries are split between them.
    pub(crate) fn sorted<'a>(tables: impl IntoIterator<Item = &'a Self>) -> Vec<(CarrierKey, &'a V)>
    where
        V: 'a,
    {
        let all = tables.into_iter().flat_map(|t| t.slots.iter());
        let mut entries: Vec<(CarrierKey, &V)> = all.map(|(k, v)| (*k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// Move every entry to its flow's shard among `shards` ([`shard_of`]),
    /// into the table `table` picks out of it.
    pub(crate) fn deal<S>(self, shards: &mut [S], table: impl Fn(&mut S) -> &mut Self) {
        let n = shards.len();
        for (key, v) in self.slots {
            if let Some(shard) = shards.get_mut(shard_of(key.0, n)) {
                table(shard).slots.insert(key, v);
            }
        }
    }
}

/// The shard that holds `flow`'s carriers among `shards`.
#[inline]
pub(crate) fn shard_of(flow: u32, shards: usize) -> usize {
    flow as usize % shards.max(1)
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
        assert_eq!(sorted(&t), [((1, 4), &'x')]);
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
        assert_eq!(sorted(&t), [((2, 0), &'b'), ((2, 1), &'z')]);
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
        let keys: Vec<CarrierKey> = sorted(&t).into_iter().map(|(k, _)| k).collect();
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
        assert_eq!(sorted(&a), sorted(&b));
    }

    fn sorted<V>(t: &CarrierTable<V>) -> Vec<(CarrierKey, &V)> {
        CarrierTable::sorted(std::slice::from_ref(t))
    }

    /// However the entries are split, and into however many shards they
    /// are dealt again, the sorted walk is one walk and each entry sits in
    /// its flow's shard.
    #[test]
    fn resharding_keeps_the_sorted_walk_and_routes_by_flow() {
        let mut one = CarrierTable::new();
        for flow in 0..40u32 {
            one.slot(flow, u64::from(flow) * 3).set(Some(flow));
        }
        let want: Vec<(CarrierKey, u32)> = sorted(&one).into_iter().map(|(k, &v)| (k, v)).collect();
        let mut tables = vec![one];
        for shards in [2, 3, 1, 4] {
            let mut dealt: Vec<_> = (0..shards).map(|_| CarrierTable::new()).collect();
            for table in tables {
                table.deal(&mut dealt, |t| t);
            }
            tables = dealt;
            for (s, t) in tables.iter().enumerate() {
                assert!(sorted(t)
                    .iter()
                    .all(|((flow, _), _)| shard_of(*flow, shards) == s));
            }
            let got: Vec<(CarrierKey, u32)> = CarrierTable::sorted(&tables)
                .into_iter()
                .map(|(k, &v)| (k, v))
                .collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }
}
