//! Fixed-capacity inline inference sets — the zero-allocation hot path.
//!
//! [`Inference`] keeps its entries in a `Vec`; perfect for inspection and
//! the tick-rate paths, but a heap allocation per ⊕ on the per-packet path.
//! [`InlineInference`] is the same multiset in a fixed
//! `[(LinkId, f64); INLINE_CAP]` array, in the same canonical order
//! (descending weight, ties by ascending link id). Keeping the canonical
//! order *in* the representation makes the Algorithm-1 truncation a length
//! cap, the equation-(1) inputs `w0`/`w1` two array reads, and the header
//! encoder a forward scan — the per-hop decode → merge → truncate → encode
//! pipeline touches no heap and sorts at most the 2k-entry merge result.
//!
//! Every operation here is **bit-for-bit** equivalent to its `Inference`
//! counterpart: per-link sums evaluate in the same operand order and the
//! kept top-k set is decided by the same `(weight desc, link asc)` total
//! order (see the equivalence proptests in `tests/proptests.rs`).
//!
//! The wire header's hop does not run on this form: it runs on packed
//! integer keys ([`crate::keyed`], [`crate::drift::wire_hop`]). The
//! side-table variants' hops and every recorder read this form, and the
//! per-hop functions here stay the reference the keyed kernel is tested
//! against.

use crate::inference::Inference;
use db_topology::LinkId;

/// Maximum entries an [`InlineInference`] can hold. A drifted inference
/// carries at most k entries and a (distributed) local at most k, so a merge
/// needs 2k slots: 16 covers every k ≤ 8 the ablations sweep (fig13 stops at
/// k = 8). Deliberately tight — the struct is copied by value on every hop
/// of a side-table variant, so each extra slot costs 16 bytes of memcpy per
/// copy. (The wire hop copies keys instead — 8 bytes a slot, k slots — and
/// sizes its merge by this bound.)
pub const INLINE_CAP: usize = 16;

/// Largest inference length k a deployment accepts: a ⊕ of two k-truncated
/// inferences must fit [`INLINE_CAP`].
pub const MAX_K: usize = INLINE_CAP / 2;

/// An inference set in a fixed-capacity array, canonically ordered
/// (descending weight, ties by ascending link id) exactly like
/// [`Inference::entries`].
#[derive(Debug, Clone, Copy)]
pub struct InlineInference {
    entries: [(LinkId, f64); INLINE_CAP],
    len: usize,
}

impl Default for InlineInference {
    fn default() -> Self {
        InlineInference {
            entries: [(LinkId(0), 0.0); INLINE_CAP],
            len: 0,
        }
    }
}

impl PartialEq for InlineInference {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl InlineInference {
    /// The empty inference.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Exact conversion from the `Vec`-backed form — a straight copy, both
    /// forms share the canonical order. Panics if the inference has more
    /// than [`INLINE_CAP`] entries (hot-path callers only convert
    /// k-truncated inferences).
    pub fn from_inference(inf: &Inference) -> Self {
        let src = inf.entries();
        assert!(
            src.len() <= INLINE_CAP,
            "inference with {} entries exceeds the inline capacity {INLINE_CAP}",
            src.len()
        );
        let mut out = Self::empty();
        out.entries[..src.len()].copy_from_slice(src);
        out.len = src.len();
        out
    }

    /// The inference whose entries are `links[i]` with `weights[i]`, for
    /// parts already in canonical order (a stored copy of some
    /// [`Self::entries`]) — a copy, no re-sort and no allocation. Panics on
    /// slices of different lengths or past [`INLINE_CAP`].
    // db-lint: allow(hot-panic, hot-index) — mismatched parts are a caller bug (a carrier stores equal-length arrays of at most MAX_K); `windows(2)` yields pairs
    pub fn from_canonical(links: &[LinkId], weights: &[f64]) -> Self {
        assert!(
            links.len() == weights.len() && links.len() <= INLINE_CAP,
            "{} links and {} weights do not make an inline inference",
            links.len(),
            weights.len()
        );
        let mut out = Self::empty();
        for (e, (&l, &w)) in out.entries.iter_mut().zip(links.iter().zip(weights)) {
            *e = (l, w);
        }
        out.len = links.len();
        debug_assert!(
            out.entries()
                .windows(2)
                .all(|p| p[0].1 > p[1].1 || (p[0].1 == p[1].1 && p[0].0 < p[1].0)),
            "entries out of canonical order"
        );
        out
    }

    /// Exact conversion to the `Vec`-backed canonical form.
    pub fn to_inference(&self) -> Inference {
        // Entries are unique, non-zero and already canonical, so
        // `from_pairs` neither sums nor drops anything — it re-derives the
        // same order.
        Inference::from_pairs(self.entries().iter().copied())
    }

    /// Entries in canonical order (same as [`Inference::entries`]).
    pub fn entries(&self) -> &[(LinkId, f64)] {
        &self.entries[..self.len]
    }

    /// Number of (non-zero) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the inference accuses nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Weight of `link`, 0.0 if absent.
    pub fn weight_of(&self, link: LinkId) -> f64 {
        self.entries()
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Add `(link, w)`, summing into an existing entry for the same link
    /// (weights of a duplicated link add in call order, exactly like the
    /// `from_pairs` fold). Used by the header decoder; the caller restores
    /// the invariants with [`normalize`](Self::normalize) once all slots are
    /// read.
    // db-lint: allow(hot-index, hot-panic) — entries is a fixed INLINE_CAP array; the overflow assert pins len below it
    pub(crate) fn accumulate(&mut self, link: LinkId, w: f64) {
        for e in &mut self.entries[..self.len] {
            if e.0 == link {
                e.1 += w;
                return;
            }
        }
        assert!(self.len < INLINE_CAP, "inline inference overflow");
        self.entries[self.len] = (link, w);
        self.len += 1;
    }

    /// Restore the invariants after raw [`accumulate`](Self::accumulate)s:
    /// drop exact-zero weights (including `-0.0`, like `Inference`'s
    /// `retain(w != 0.0)`) and re-establish the canonical order.
    // db-lint: allow(hot-index) — both cursors stay below self.len ≤ INLINE_CAP
    pub(crate) fn normalize(&mut self) {
        let mut w = 0;
        for i in 0..self.len {
            if self.entries[i].1 != 0.0 {
                self.entries[w] = self.entries[i];
                w += 1;
            }
        }
        self.len = w;
        self.sort_canonical();
    }

    /// Insertion sort into the canonical `(weight desc, link asc)` order —
    /// the same total order `Inference::normalize` sorts by; link ids are
    /// unique, so the result is identical regardless of sort stability.
    fn sort_canonical(&mut self) {
        for i in 1..self.len {
            let e = self.entries[i];
            let mut j = i;
            while j > 0 {
                let p = self.entries[j - 1];
                if p.1 > e.1 || (p.1 == e.1 && p.0 < e.0) {
                    break;
                }
                self.entries[j] = p;
                j -= 1;
            }
            self.entries[j] = e;
        }
    }

    /// The aggregation operator ⊕. Per-link sums evaluate as `self + other`
    /// — with `self` the drifted inference and `other` the local, this is
    /// exactly the operand order of `drifted.aggregate(local)`, so results
    /// are bit-identical: zero sums vanish and the result is canonical.
    pub fn merge(&self, other: &InlineInference) -> InlineInference {
        let mut out = *self;
        for &(l, w) in other.entries() {
            out.accumulate(l, w);
        }
        out.normalize();
        out
    }

    /// Algorithm-1 truncation: entries are canonically ordered, so keeping
    /// the strongest k is a length cap — precisely `Vec::truncate`, like
    /// [`Inference::truncate_top_k`].
    pub fn truncate_top_k(&mut self, k: usize) {
        self.len = self.len.min(k);
    }

    /// A truncated copy.
    pub fn top_k(&self, k: usize) -> InlineInference {
        let mut c = *self;
        c.truncate_top_k(k);
        c
    }

    /// Highest weight `w0`, or 0.0 when empty.
    // db-lint: allow(hot-index) — index 0 guarded by the len check
    pub fn w0(&self) -> f64 {
        if self.len > 0 {
            self.entries[0].1
        } else {
            0.0
        }
    }

    /// Second-highest weight `w1`, or 0.0 when fewer than two entries.
    // db-lint: allow(hot-index) — index 1 guarded by the len check
    pub fn w1(&self) -> f64 {
        if self.len > 1 {
            self.entries[1].1
        } else {
            0.0
        }
    }

    /// The most accused link, if any.
    pub fn top_link(&self) -> Option<LinkId> {
        self.entries().first().map(|(l, _)| *l)
    }
}

impl From<&Inference> for InlineInference {
    fn from(inf: &Inference) -> Self {
        InlineInference::from_inference(inf)
    }
}

impl From<&InlineInference> for Inference {
    fn from(inf: &InlineInference) -> Self {
        inf.to_inference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    fn inline(pairs: &[(u16, f64)]) -> InlineInference {
        InlineInference::from_inference(&Inference::from_pairs(
            pairs.iter().map(|&(i, w)| (l(i), w)),
        ))
    }

    #[test]
    fn round_trip_is_exact() {
        let inf = Inference::from_pairs([(l(3), 1.0), (l(1), 2.0), (l(9), -4.0)]);
        let inl = InlineInference::from_inference(&inf);
        assert_eq!(inl.len(), 3);
        assert_eq!(inl.entries(), inf.entries(), "same canonical order");
        assert_eq!(inl.to_inference(), inf);
    }

    #[test]
    fn from_canonical_rebuilds_the_entries_it_was_given() {
        let a = inline(&[(7, 2.0), (2, 2.0), (5, 9.0), (1, -3.0)]);
        let (links, weights): (Vec<LinkId>, Vec<f64>) = a.entries().iter().copied().unzip();
        assert_eq!(InlineInference::from_canonical(&links, &weights), a);
        assert!(InlineInference::from_canonical(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not make an inline inference")]
    fn from_canonical_refuses_parts_of_different_lengths() {
        InlineInference::from_canonical(&[l(1), l(2)], &[1.0]);
    }

    #[test]
    fn merge_matches_aggregate() {
        let a = Inference::from_pairs([(l(1), 2.0), (l(2), -1.0)]);
        let b = Inference::from_pairs([(l(1), 3.0), (l(2), 1.0), (l(4), 1.0)]);
        let merged =
            InlineInference::from_inference(&a).merge(&InlineInference::from_inference(&b));
        assert_eq!(merged.to_inference(), a.aggregate(&b));
        assert_eq!(merged.weight_of(l(2)), 0.0, "zero sums vanish");
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = inline(&[(5, 2.0), (1, -3.0)]);
        assert_eq!(a.merge(&InlineInference::empty()), a);
        assert_eq!(InlineInference::empty().merge(&a), a);
    }

    #[test]
    fn truncate_keeps_the_canonical_top_k() {
        let pairs = [
            (l(1), 5.0),
            (l(2), 4.0),
            (l(3), 4.0),
            (l(4), -1.0),
            (l(5), 6.0),
        ];
        let mut a = InlineInference::from_inference(&Inference::from_pairs(pairs));
        a.truncate_top_k(3);
        // Canonical top-3: (5,6.0), (1,5.0), (2,4.0) — tie at 4.0 broken by
        // the lower link id.
        assert_eq!(a.entries(), &[(l(5), 6.0), (l(1), 5.0), (l(2), 4.0)]);
        let mut vec_form = Inference::from_pairs(pairs);
        vec_form.truncate_top_k(3);
        assert_eq!(a.to_inference(), vec_form);
    }

    #[test]
    fn truncate_beyond_len_is_noop() {
        let mut a = inline(&[(1, 1.0)]);
        a.truncate_top_k(10);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn accessors_match_vec_form() {
        let a = inline(&[(7, 2.0), (2, 2.0), (5, 9.0)]);
        let v = a.to_inference();
        assert_eq!(a.w0(), v.w0());
        assert_eq!(a.w1(), v.w1());
        assert_eq!(a.top_link(), v.top_link());
        assert_eq!(a.w0(), 9.0);
        assert_eq!(a.w1(), 2.0);
        assert_eq!(a.top_link(), Some(l(5)));
        // Empty / single-entry cases.
        assert_eq!(InlineInference::empty().w0(), 0.0);
        assert_eq!(InlineInference::empty().top_link(), None);
        let one = inline(&[(3, -2.0)]);
        assert_eq!(one.w0(), -2.0);
        assert_eq!(one.w1(), 0.0);
    }

    #[test]
    fn accumulate_sums_duplicates_in_input_order() {
        let mut a = InlineInference::empty();
        a.accumulate(l(3), 1.0);
        a.accumulate(l(1), 2.0);
        a.accumulate(l(3), 2.0);
        a.accumulate(l(2), 0.0);
        a.normalize();
        assert_eq!(
            a.to_inference(),
            Inference::from_pairs([(l(3), 1.0), (l(1), 2.0), (l(3), 2.0), (l(2), 0.0)])
        );
    }

    #[test]
    #[should_panic(expected = "inline inference overflow")]
    fn overflow_panics() {
        let mut a = InlineInference::empty();
        for i in 0..=INLINE_CAP as u16 {
            a.accumulate(l(i), 1.0);
        }
    }
}
