//! Packed integer keys — the wire header's hop on integers.
//!
//! The Drift-Bottle scheme votes ±1 per flow and the header stores integer
//! weights (§4.2–4.3), so on the wire variant's hop every weight is an
//! integer. [`KeyedInference`] keeps each entry of a k-truncated inference
//! as one `u64`: the weight, negated and biased, in the high 48 bits and
//! the link id in the low 16. The canonical order (descending weight, ties
//! by ascending link id) is then plain ascending integer order, ⊕ is
//! integer adds, the top-k cut is an integer sort, and `w0`/`w1` are two
//! reads.
//!
//! Exactness: an `f64` sum of integers below 2^53 is exact, so every
//! result here is bit-for-bit the `f64` form's ([`InlineInference`]); the
//! equivalence proptest `keyed_wire_hop_matches_f64_reference` in
//! `tests/proptests.rs` pins that on arbitrary header bytes. Only an
//! integral inference of at most [`MAX_K`] entries has a keyed form
//! ([`KeyedInference::from_entries`]): the wire variant's local always
//! does, since a deployment admits only an integral scheme and k ≤
//! [`MAX_K`] on the wire, while 007's fractional 1/n votes ride the
//! side-table variants, which stay on the `f64` form.

use crate::inline::{InlineInference, INLINE_CAP, MAX_K};
use db_topology::LinkId;

/// Largest weight magnitude a keyed entry holds. A local's weights count
/// flow votes and the header's lie in `WEIGHT_MIN..=WEIGHT_MAX`, so real
/// sums sit far below; the limit keeps every sum inside the key's 48 bits
/// and far below 2^53, where `f64` sums stop being exact.
pub const KEY_WEIGHT_LIMIT: i64 = 1 << 40;

/// Bias of the packed weight: `KEY_BIAS - w` is positive and below 2^48
/// for every `|w| ≤ 2 · KEY_WEIGHT_LIMIT`.
const KEY_BIAS: i64 = 1 << 47;

/// The key of `(link, w)`: ascending keys are the canonical order.
#[inline]
fn pack(link: u16, w: i64) -> u64 {
    (((KEY_BIAS - w) as u64) << 16) | u64::from(link)
}

/// The link id of a key.
#[inline]
fn key_link(key: u64) -> LinkId {
    LinkId(key as u16)
}

/// The weight of a key.
#[inline]
fn key_weight(key: u64) -> i64 {
    KEY_BIAS - (key >> 16) as i64
}

/// A k-truncated inference on packed keys, ascending — the canonical order
/// of [`InlineInference::entries`]. Holds at most [`MAX_K`] entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyedInference {
    keys: [u64; MAX_K],
    len: u8,
}

impl KeyedInference {
    /// The keyed form of canonically ordered `entries` (as an
    /// [`Inference`](crate::Inference) or [`InlineInference`] holds them),
    /// or `None` when they have none: a weight that is fractional or past
    /// [`KEY_WEIGHT_LIMIT`] in magnitude, or more than [`MAX_K`] entries.
    pub fn from_entries(entries: &[(LinkId, f64)]) -> Option<Self> {
        if entries.len() > MAX_K {
            return None;
        }
        let mut out = KeyedInference::default();
        for (key, &(l, w)) in out.keys.iter_mut().zip(entries) {
            if w.fract() != 0.0 || w.abs() > KEY_WEIGHT_LIMIT as f64 {
                return None;
            }
            *key = pack(l.0, w as i64);
        }
        out.len = entries.len() as u8;
        Some(out)
    }

    /// The `f64` form: the same entries, in the same order.
    pub fn to_inline(&self) -> InlineInference {
        let mut links = [LinkId(0); MAX_K];
        let mut weights = [0.0; MAX_K];
        for ((l, w), (link, weight)) in links.iter_mut().zip(&mut weights).zip(self.entries()) {
            (*l, *w) = (link, weight as f64);
        }
        let n = self.len();
        InlineInference::from_canonical(&links[..n], &weights[..n])
    }

    /// A copy cut to the strongest `k` entries: keys are canonically
    /// ordered, so the cut is a length cap.
    pub fn top_k(&self, k: usize) -> Self {
        let mut c = *self;
        c.len = c.len.min(u8::try_from(k).unwrap_or(u8::MAX));
        c
    }

    /// The packed keys, ascending.
    pub fn keys(&self) -> &[u64] {
        self.keys.get(..self.len()).unwrap_or(&[])
    }

    /// `(link, weight)` in canonical order.
    pub fn entries(&self) -> impl Iterator<Item = (LinkId, i64)> + '_ {
        self.keys().iter().map(|&k| (key_link(k), key_weight(k)))
    }

    /// Number of (non-zero) entries.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the inference accuses nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Highest weight `w0`, or 0.0 when empty.
    #[inline]
    pub fn w0(&self) -> f64 {
        self.keys().first().map_or(0.0, |&k| key_weight(k) as f64)
    }

    /// Second-highest weight `w1`, or 0.0 when fewer than two entries.
    #[inline]
    pub fn w1(&self) -> f64 {
        self.keys().get(1).map_or(0.0, |&k| key_weight(k) as f64)
    }

    /// The most accused link, if any.
    #[inline]
    pub fn top_link(&self) -> Option<LinkId> {
        self.keys().first().map(|&k| key_link(k))
    }
}

/// A ⊕ in progress: per-link integer sums in first-seen order — a drifted
/// header's slots, then a local's entries — over at most [`INLINE_CAP`]
/// links. Integer sums are exact in any order, so this matches the `f64`
/// form's slot-order accumulate and its merge.
#[derive(Debug)]
pub(crate) struct KeySums {
    links: [u16; INLINE_CAP],
    weights: [i64; INLINE_CAP],
    len: usize,
}

impl KeySums {
    pub(crate) fn new() -> Self {
        KeySums {
            links: [0; INLINE_CAP],
            weights: [0; INLINE_CAP],
            len: 0,
        }
    }

    /// Add `w` to `link`'s sum, opening it if new. A link past the
    /// capacity is dropped; the wire hop bounds k by [`MAX_K`], so a
    /// header and a local never name more than [`INLINE_CAP`] links.
    #[inline]
    pub(crate) fn add(&mut self, link: u16, w: i64) {
        let n = self.len;
        let open = self.links.iter().zip(self.weights.iter_mut()).take(n);
        for (&l, sum) in open {
            if l == link {
                *sum += w;
                return;
            }
        }
        if let (Some(l), Some(sum)) = (self.links.get_mut(n), self.weights.get_mut(n)) {
            (*l, *sum) = (link, w);
            self.len = n + 1;
        }
    }

    /// Add every entry of `inf`.
    #[inline]
    pub(crate) fn add_all(&mut self, inf: &KeyedInference) {
        for &k in inf.keys() {
            self.add(key_link(k).0, key_weight(k));
        }
    }

    /// The ⊕ result: zero sums dropped, canonically ordered, cut to the
    /// strongest `k` (at most [`MAX_K`]), with the number of entries before
    /// the cut.
    #[inline]
    // db-lint: allow(hot-index) — live counts at most the INLINE_CAP sums and n ≤ live; the sort's cursors stay below live
    pub(crate) fn top_k(&self, k: usize) -> (KeyedInference, usize) {
        let mut keys = [0u64; INLINE_CAP];
        let mut live = 0;
        let sums = self.links.iter().zip(&self.weights).take(self.len);
        for ((&l, &w), slot) in sums.filter(|&(_, &w)| w != 0).zip(&mut keys) {
            *slot = pack(l, w);
            live += 1;
        }
        let keys = &mut keys[..live];
        // Insertion sort: at most 2k keys, mostly in order already.
        for i in 1..keys.len() {
            let key = keys[i];
            let mut j = i;
            while j > 0 && keys[j - 1] > key {
                keys[j] = keys[j - 1];
                j -= 1;
            }
            keys[j] = key;
        }
        let mut out = KeyedInference::default();
        let n = live.min(k).min(MAX_K);
        out.keys[..n].copy_from_slice(&keys[..n]);
        out.len = n as u8;
        (out, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::Inference;

    fn inline(pairs: &[(u16, f64)]) -> InlineInference {
        InlineInference::from_inference(&Inference::from_pairs(
            pairs.iter().map(|&(i, w)| (LinkId(i), w)),
        ))
    }

    #[test]
    fn key_order_is_the_canonical_order() {
        // Heavier first; at equal weight the lower link first.
        assert!(pack(9, 5) < pack(1, 4));
        assert!(pack(1, 4) < pack(2, 4));
        assert!(pack(0, -1) > pack(65535, 0));
        assert!(pack(3, KEY_WEIGHT_LIMIT * 2) < pack(0, -KEY_WEIGHT_LIMIT * 2));
        for (l, w) in [(0, 1), (65535, -KEY_WEIGHT_LIMIT), (7, KEY_WEIGHT_LIMIT)] {
            assert_eq!(
                (key_link(pack(l, w)), key_weight(pack(l, w))),
                (LinkId(l), w)
            );
        }
    }

    #[test]
    fn keyed_form_round_trips_integral_locals() {
        let a = inline(&[(7, 2.0), (2, 2.0), (5, 9.0), (1, -3.0)]);
        let keyed = KeyedInference::from_entries(a.entries()).expect("integral");
        assert_eq!(keyed.to_inline(), a);
        assert_eq!(keyed.w0(), a.w0());
        assert_eq!(keyed.w1(), a.w1());
        assert_eq!(keyed.top_link(), a.top_link());
        assert!(KeyedInference::from_entries(&[])
            .expect("empty is integral")
            .is_empty());
    }

    #[test]
    fn fractional_wide_or_long_locals_have_no_keyed_form() {
        assert!(KeyedInference::from_entries(&[(LinkId(1), 2.5)]).is_none());
        let huge = (KEY_WEIGHT_LIMIT + 1) as f64;
        assert!(KeyedInference::from_entries(&[(LinkId(1), huge)]).is_none());
        let long: Vec<(u16, f64)> = (0..=MAX_K as u16).map(|i| (i, 1.0)).collect();
        assert!(KeyedInference::from_entries(inline(&long).entries()).is_none());
    }

    #[test]
    fn sums_match_the_inline_merge() {
        let drifted = inline(&[(1, 2.0), (2, -1.0), (4, 3.0)]);
        let local = inline(&[(1, 3.0), (2, 1.0), (6, 3.0)]);
        let mut sums = KeySums::new();
        sums.add_all(&KeyedInference::from_entries(drifted.entries()).unwrap());
        sums.add_all(&KeyedInference::from_entries(local.entries()).unwrap());
        let merged = drifted.merge(&local);
        for k in 1..=MAX_K {
            let (keyed, live) = sums.top_k(k);
            assert_eq!(live, merged.len(), "zero sums vanish");
            assert_eq!(keyed.to_inline(), merged.top_k(k));
        }
    }
}
