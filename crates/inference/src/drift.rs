//! The per-switch aggregation step (§4.3, §5).
//!
//! When a packet carrying a drifted inference arrives, the switch:
//!
//! 1. aggregates the drifted inference with its **local** inference via ⊕,
//! 2. re-truncates to the top-k (the header has k slots),
//! 3. increments `hop_now`,
//! 4. checks the warning condition,
//! 5. writes the new inference back to the header and forwards.
//!
//! Crucially the local inference is **never** replaced by the aggregate —
//! §4.3's *over-aggregation* argument: if switch s2 absorbed the aggregate,
//! a stream of packets from s1 would bias s3's view toward `n × I1 ⊕ I2`.

use crate::header::HeaderCodec;
use crate::inference::Inference;
use crate::inline::{InlineInference, MAX_K};
use crate::keyed::{KeySums, KeyedInference};
use crate::metrics::InferenceMetrics;
use crate::warning::{eq1, Eq1Outcome, WarningConfig};
use db_topology::LinkId;

/// One aggregation step: `(drifted ⊕ local)` truncated to `k`, with the hop
/// counter incremented (saturating at `u8::MAX`, the header field width).
pub fn aggregate_step(
    local: &Inference,
    drifted: &Inference,
    hop_now: u8,
    k: usize,
) -> (Inference, u8) {
    let mut agg = drifted.aggregate(local);
    agg.truncate_top_k(k);
    (agg, hop_now.saturating_add(1))
}

/// Allocation-free [`aggregate_step`]: same ⊕-then-truncate on the inline
/// representation. Bit-for-bit equivalent — the merge sums `drifted + local`
/// per link in that operand order, exactly like `drifted.aggregate(local)`.
pub fn aggregate_step_inline(
    local: &InlineInference,
    drifted: &InlineInference,
    hop_now: u8,
    k: usize,
) -> (InlineInference, u8) {
    aggregate_step_inline_metered(local, drifted, hop_now, k, None)
}

/// [`aggregate_step_inline`] with optional telemetry: one `aggregations`
/// tick per ⊕, one `topk_truncations` tick when the result overflowed the k
/// header slots. Exact — the check sees the pre-truncation length.
pub fn aggregate_step_inline_metered(
    local: &InlineInference,
    drifted: &InlineInference,
    hop_now: u8,
    k: usize,
    metrics: Option<&InferenceMetrics>,
) -> (InlineInference, u8) {
    let mut agg = drifted.merge(local);
    meter(metrics, agg.len(), k);
    agg.truncate_top_k(k);
    (agg, hop_now.saturating_add(1))
}

/// Count one ⊕ whose result held `live` entries before the cut to `k`.
#[inline]
fn meter(metrics: Option<&InferenceMetrics>, live: usize, k: usize) {
    if let Some(m) = metrics {
        m.aggregations.inc();
        if live > k {
            m.topk_truncations.inc();
        }
    }
}

/// What one [`wire_hop`] produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireHop {
    /// `drifted ⊕ local` cut to k, or the local cut to k at a fresh header.
    pub merged: KeyedInference,
    /// The aggregation count written with it.
    pub hops: u8,
    /// Entries of the ⊕ before the cut (the local's at a fresh header).
    pub live: usize,
    /// The equation-(1) clause that decided, on `merged`'s w0/w1 and `hops`.
    pub outcome: Eq1Outcome,
    /// Header bytes written, [`HeaderCodec::byte_len`].
    pub len: usize,
}

impl WireHop {
    /// The accused link when equation (1) fires.
    #[inline]
    pub fn warning(&self) -> Option<LinkId> {
        match self.outcome {
            Eq1Outcome::Fires => self.merged.top_link(),
            _ => None,
        }
    }
}

/// One switch's whole hop on the wire header, on packed integer keys
/// ([`crate::keyed`]): parse the drifted inference from `header` (`None`
/// at ingress; a header of the wrong length counts as none), ⊕ it with the
/// switch's keyed `local`, cut to `codec.k`, evaluate equation (1) and
/// write the next header into `buf`. A fresh header starts from the local
/// cut to k at one hop, without an `aggregations` tick.
///
/// The same entries, counters, outcome and bytes as the `f64` chain
/// [`HeaderCodec::decode_inline`] → [`aggregate_step_inline_metered`] →
/// [`check_warning_inline`](crate::check_warning_inline) →
/// [`HeaderCodec::encode_into`] on the local's `f64` form. Panics when
/// `codec.k` exceeds [`MAX_K`] or `buf` is shorter than the header.
#[inline]
// db-lint: allow(hot-panic) — k past MAX_K would overflow the 2k-entry merge; deployments assert it at setup
pub fn wire_hop(
    codec: &HeaderCodec,
    header: Option<&[u8]>,
    local: &KeyedInference,
    cfg: &WarningConfig,
    metrics: Option<&InferenceMetrics>,
    buf: &mut [u8],
) -> WireHop {
    let k = codec.k;
    assert!(
        k <= MAX_K,
        "inference length k = {k} exceeds MAX_K = {MAX_K}"
    );
    // The length is checked before the sums are set up: a record with no
    // header parked pays nothing for them.
    let (merged, hops, live) = match header.filter(|b| b.len() == codec.byte_len()) {
        Some(bytes) => {
            let mut sums = KeySums::new();
            let h = codec.decode_keyed(bytes, &mut sums);
            sums.add_all(local);
            let (merged, live) = sums.top_k(k);
            meter(metrics, live, k);
            (merged, h.saturating_add(1), live)
        }
        None => (local.top_k(k), 1, local.len()),
    };
    let outcome = eq1(merged.w0(), merged.w1(), u32::from(hops), cfg);
    let len = codec.encode_keyed_into(&merged, hops, buf);
    WireHop {
        merged,
        hops,
        live,
        outcome,
        len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn aggregates_and_increments() {
        let local = Inference::from_pairs([(l(1), 2.0), (l(2), -1.0)]);
        let drifted = Inference::from_pairs([(l(1), 3.0), (l(3), 1.0)]);
        let (next, hops) = aggregate_step(&local, &drifted, 4, 4);
        assert_eq!(hops, 5);
        assert_eq!(next.weight_of(l(1)), 5.0);
        assert_eq!(next.weight_of(l(2)), -1.0);
        assert_eq!(next.weight_of(l(3)), 1.0);
    }

    #[test]
    fn truncates_to_header_capacity() {
        let local = Inference::from_pairs((0..8).map(|i| (l(i), (8 - i) as f64)));
        let (next, _) = aggregate_step(&local, &Inference::empty(), 0, 4);
        assert_eq!(next.len(), 4);
        assert_eq!(next.w0(), 8.0);
    }

    #[test]
    fn hop_counter_saturates() {
        let (_, hops) = aggregate_step(&Inference::empty(), &Inference::empty(), u8::MAX, 4);
        assert_eq!(hops, u8::MAX);
    }

    #[test]
    fn inline_step_matches_vec_step_and_counters() {
        // The inline hot path feeds InferenceMetrics one `aggregations` tick
        // per ⊕ and one `topk_truncations` tick iff the pre-truncation
        // result overflowed k; its result is the reference `aggregate_step`'s.
        let cases = [
            // Overflows k = 2 (3 distinct links survive the sum).
            (vec![(1, 2.0), (2, -1.0)], vec![(1, 3.0), (3, 1.0)], 2, 1),
            // Fits exactly.
            (vec![(1, 2.0)], vec![(3, 1.0)], 2, 0),
            // Cancellation shrinks the result below k.
            (vec![(1, 2.0), (2, -1.0)], vec![(2, 1.0)], 2, 0),
        ];
        for (a, b, k, truncations) in cases {
            let local = Inference::from_pairs(a.iter().map(|&(l, w)| (LinkId(l), w)));
            let drifted = Inference::from_pairs(b.iter().map(|&(l, w)| (LinkId(l), w)));
            let (agg_v, h_v) = aggregate_step(&local, &drifted, 3, k);

            let il = InlineInference::from_inference(&local);
            let id = InlineInference::from_inference(&drifted);
            let reg = db_telemetry::MetricsRegistry::new();
            let m = InferenceMetrics::register(&reg);
            let (agg_i, h_i) = aggregate_step_inline_metered(&il, &id, 3, k, Some(&m));

            assert_eq!(agg_i.to_inference(), agg_v);
            assert_eq!(h_i, h_v);
            let snap = reg.snapshot();
            assert_eq!(snap.counter("inference.aggregations"), Some(1));
            assert_eq!(
                snap.counter("inference.topk_truncations"),
                Some(truncations)
            );

            // Metered and unmetered inline steps agree on the result.
            let (agg_un, h_un) = aggregate_step_inline(&il, &id, 3, k);
            assert_eq!(agg_un, agg_i);
            assert_eq!(h_un, h_i);
        }
    }

    #[test]
    fn over_aggregation_scenario() {
        // The §4.3 linear example: s1 → s2 → s3. If s2 kept updating its
        // local inference from packets, s3's aggregate would drift to
        // n·I1 ⊕ I2. With immutable locals, every packet yields I1 ⊕ I2.
        let i1 = Inference::from_pairs([(l(1), 1.0)]);
        let i2 = Inference::from_pairs([(l(2), 1.0)]);
        // Correct protocol: local stays i2 for every packet.
        for _ in 0..10 {
            let (at_s3, _) = aggregate_step(&i2, &i1, 1, 4);
            assert_eq!(at_s3.weight_of(l(1)), 1.0, "no bias toward upstream");
            assert_eq!(at_s3.weight_of(l(2)), 1.0);
        }
        // Faulty protocol (what the paper forbids): s2 absorbs aggregates.
        let mut absorbed = i2.clone();
        for _ in 0..10 {
            let (next, _) = aggregate_step(&absorbed, &i1, 1, 4);
            absorbed = next;
        }
        assert!(
            absorbed.weight_of(l(1)) > 5.0,
            "absorbing locals over-weights upstream: {}",
            absorbed.weight_of(l(1))
        );
    }
}
