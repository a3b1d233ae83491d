//! The inference set and its algebra.
//!
//! §4.2: "We represent an inference by a set containing pairs formed by
//! links and their weights, as `I = {(l_i, w_i)}`. Then, we define the
//! aggregation operator ⊕, which simply aggregates inference
//! `I1 = {(l_i, w_1i)}` and `I2 = {(l_i, w_2i)}` as
//! `I1 ⊕ I2 = {(l_i, w_1i + w_2i)}`."
//!
//! Weights are `f64` so the fractional 007 schemes are expressible in the
//! simulator; the Drift-Bottle scheme itself only ever produces integers
//! (the property the wire encoding of [`crate::header`] relies on).

use db_topology::LinkId;

/// Default inference length k (§6.9: "The selection of length of inference
/// to 4 is a reasonable trade-off between performance and deployability").
pub const DEFAULT_K: usize = 4;

/// An inference: links with non-zero suspicion weights, sorted by descending
/// weight (ties: ascending link id, for determinism).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Inference {
    entries: Vec<(LinkId, f64)>,
}

impl Inference {
    /// The empty inference.
    pub fn empty() -> Self {
        Inference::default()
    }

    /// Build from arbitrary pairs: weights of duplicate links are summed,
    /// zero weights dropped, then sorted canonically. No truncation.
    ///
    /// Duplicates are summed by a stable sort-then-fold — per link, weights
    /// add left-to-right in input order, so the result is a deterministic
    /// function of the input sequence (the former `HashMap` intermediate
    /// left the fold order to iteration order; for the ±1-integer weights of
    /// the paper's schemes that never mattered, but fractional 007 weights
    /// could round differently run-to-run).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (LinkId, f64)>) -> Self {
        let mut entries: Vec<(LinkId, f64)> = pairs.into_iter().collect();
        entries.sort_by_key(|&(l, _)| l);
        let mut w = 0usize;
        for i in 0..entries.len() {
            if w > 0 && entries[w - 1].0 == entries[i].0 {
                entries[w - 1].1 += entries[i].1;
            } else {
                entries[w] = entries[i];
                w += 1;
            }
        }
        entries.truncate(w);
        let mut inf = Inference { entries };
        inf.normalize();
        inf
    }

    fn normalize(&mut self) {
        self.entries.retain(|(_, w)| *w != 0.0);
        self.entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
    }

    /// The aggregation operator ⊕: per-link weight sum.
    ///
    /// Implemented as a sorted two-pointer merge over link ids. Shared links
    /// sum as `self + other` (left operand first — the order the per-hop
    /// path depends on for bit-exactness: `drifted.aggregate(local)`). The
    /// allocation-free equivalent for the per-packet hot path is
    /// [`InlineInference::merge`](crate::inline::InlineInference::merge).
    pub fn aggregate(&self, other: &Inference) -> Inference {
        let mut a = self.entries.clone();
        a.sort_by_key(|&(l, _)| l);
        let mut b: Vec<(LinkId, f64)> = other.entries.clone();
        b.sort_by_key(|&(l, _)| l);
        let mut entries = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    entries.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    entries.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    entries.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        entries.extend_from_slice(&a[i..]);
        entries.extend_from_slice(&b[j..]);
        let mut out = Inference { entries };
        out.normalize();
        out
    }

    /// Algorithm-1 lines 17–19: drop zeros (already invariant), sort by
    /// descending weight, keep the top `k` entries.
    pub fn truncate_top_k(&mut self, k: usize) {
        self.entries.truncate(k);
    }

    /// A truncated copy.
    pub fn top_k(&self, k: usize) -> Inference {
        let mut c = self.clone();
        c.truncate_top_k(k);
        c
    }

    /// Entries in canonical order.
    pub fn entries(&self) -> &[(LinkId, f64)] {
        &self.entries
    }

    /// Number of (non-zero) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the inference accuses nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight of `link`, 0.0 if absent.
    pub fn weight_of(&self, link: LinkId) -> f64 {
        self.entries
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Highest weight `w0`, or 0.0 when empty.
    pub fn w0(&self) -> f64 {
        self.entries.first().map(|(_, w)| *w).unwrap_or(0.0)
    }

    /// Second-highest weight `w1`, or 0.0 when fewer than two entries.
    pub fn w1(&self) -> f64 {
        self.entries.get(1).map(|(_, w)| *w).unwrap_or(0.0)
    }

    /// The most accused link, if any.
    pub fn top_link(&self) -> Option<LinkId> {
        self.entries.first().map(|(l, _)| *l)
    }
}

impl FromIterator<(LinkId, f64)> for Inference {
    fn from_iter<T: IntoIterator<Item = (LinkId, f64)>>(iter: T) -> Self {
        Inference::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn from_pairs_dedups_and_sorts() {
        let inf = Inference::from_pairs([(l(3), 1.0), (l(1), 2.0), (l(3), 2.0), (l(2), 0.0)]);
        assert_eq!(inf.entries(), &[(l(3), 3.0), (l(1), 2.0)]);
        assert_eq!(inf.len(), 2);
        assert_eq!(inf.w0(), 3.0);
        assert_eq!(inf.w1(), 2.0);
        assert_eq!(inf.top_link(), Some(l(3)));
        assert_eq!(inf.weight_of(l(1)), 2.0);
        assert_eq!(inf.weight_of(l(9)), 0.0);
    }

    #[test]
    fn zero_sums_vanish() {
        let inf = Inference::from_pairs([(l(1), 2.0), (l(1), -2.0)]);
        assert!(inf.is_empty());
        assert_eq!(inf.w0(), 0.0);
        assert_eq!(inf.top_link(), None);
    }

    #[test]
    fn ties_break_by_link_id() {
        let inf = Inference::from_pairs([(l(7), 2.0), (l(2), 2.0), (l(5), 2.0)]);
        let ids: Vec<u16> = inf.entries().iter().map(|(l, _)| l.0).collect();
        assert_eq!(ids, vec![2, 5, 7]);
    }

    #[test]
    fn negative_weights_sort_last() {
        let inf = Inference::from_pairs([(l(1), -3.0), (l(2), 5.0), (l(3), -1.0)]);
        let ids: Vec<u16> = inf.entries().iter().map(|(l, _)| l.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn aggregate_is_per_link_sum() {
        // The paper's worked example: aggregation strengthens the common
        // culprit and cancels disagreement.
        let a = Inference::from_pairs([(l(1), 2.0), (l(2), -1.0)]);
        let b = Inference::from_pairs([(l(1), 3.0), (l(2), 1.0), (l(4), 1.0)]);
        let c = a.aggregate(&b);
        assert_eq!(c.weight_of(l(1)), 5.0);
        assert_eq!(c.weight_of(l(2)), 0.0, "(-1) + 1 cancels and is dropped");
        assert_eq!(c.weight_of(l(4)), 1.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn aggregate_commutes_and_associates() {
        let a = Inference::from_pairs([(l(1), 1.0), (l(2), 2.0)]);
        let b = Inference::from_pairs([(l(2), -2.0), (l(3), 4.0)]);
        let c = Inference::from_pairs([(l(1), 0.5)]);
        assert_eq!(a.aggregate(&b), b.aggregate(&a));
        assert_eq!(a.aggregate(&b).aggregate(&c), a.aggregate(&b.aggregate(&c)));
        // Empty is the identity.
        assert_eq!(a.aggregate(&Inference::empty()), a);
    }

    #[test]
    fn truncation_keeps_strongest() {
        let mut inf = Inference::from_pairs([(l(1), 5.0), (l(2), 4.0), (l(3), 3.0), (l(4), -1.0)]);
        inf.truncate_top_k(2);
        assert_eq!(inf.entries(), &[(l(1), 5.0), (l(2), 4.0)]);
        let again = inf.top_k(1);
        assert_eq!(again.len(), 1);
        assert_eq!(inf.len(), 2, "top_k must not mutate the source");
    }

    #[test]
    fn truncation_beyond_len_is_noop() {
        let mut inf = Inference::from_pairs([(l(1), 1.0)]);
        inf.truncate_top_k(10);
        assert_eq!(inf.len(), 1);
    }

    #[test]
    fn collect_from_iterator() {
        let inf: Inference = vec![(l(1), 1.0), (l(2), 2.0)].into_iter().collect();
        assert_eq!(inf.w0(), 2.0);
    }
}
