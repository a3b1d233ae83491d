//! Property-based tests for the inference crate.

use db_inference::header::{
    MAX_HEADER_BYTES, SENTINEL_COMPACT, SENTINEL_WIDE, WEIGHT_MAX, WEIGHT_MIN,
};
use db_inference::warning::eq1;
use db_inference::{
    aggregate_step, aggregate_step_inline, aggregate_step_inline_metered, centralized_report,
    check_warning, check_warning_inline, wire_hop, HeaderCodec, Inference, InferenceMetrics,
    InlineInference, KeyedInference, WarningConfig, MAX_K,
};
use db_telemetry::MetricsRegistry;
use db_topology::LinkId;
use proptest::prelude::*;

fn raw_pairs(max_links: u16) -> impl Strategy<Value = Vec<(LinkId, f64)>> {
    proptest::collection::vec((0..max_links, -100.0f64..300.0), 0..10)
        .prop_map(|pairs| pairs.into_iter().map(|(l, w)| (LinkId(l), w)).collect())
}

fn inference_strategy(max_links: u16) -> impl Strategy<Value = Inference> {
    raw_pairs(max_links).prop_map(Inference::from_pairs)
}

/// One header slot as `(link id, weight byte)`, `None` for the sentinel.
/// Ids come mostly from a handful of links, so slots repeat links and hit
/// the local's; weight bytes favour zero (15), the clamp ends (−15 and 240)
/// and random values.
fn slot_strategy() -> impl Strategy<Value = Option<(u16, u8)>> {
    ((0u8..10, 0u16..6, 0u16..=65535), (0u8..5, 0u8..=255)).prop_map(
        |((id_mode, small, any), (wb_mode, wb))| {
            let id = match id_mode {
                0..=5 => small,
                6 | 7 => return None,
                8 => any,
                _ => 254,
            };
            let wb = match wb_mode {
                0 | 1 => wb,
                2 => (-WEIGHT_MIN) as u8,
                3 => (WEIGHT_MAX - WEIGHT_MIN) as u8,
                _ => 0,
            };
            Some((id, wb))
        },
    )
}

/// The bytes of a header for `codec` from `hop_now` and `slots` (cycled
/// or cut to k); a compact id past one byte is written as its low byte.
fn header_bytes(codec: HeaderCodec, hop_now: u8, slots: &[Option<(u16, u8)>]) -> Vec<u8> {
    let mut out = vec![hop_now];
    for i in 0..codec.k {
        let slot = slots.get(i).copied().flatten();
        let (id, wb) = slot.unwrap_or((SENTINEL_WIDE, 0));
        if codec.wide {
            out.extend_from_slice(&id.to_be_bytes());
        } else {
            out.push(if slot.is_some() {
                id as u8
            } else {
                SENTINEL_COMPACT
            });
        }
        out.push(wb);
    }
    out
}

/// A local of at most `MAX_K` entries on links 0..8: integral weights from
/// small votes up to past the clamp, or (mode 3) fractional ones.
fn local_strategy() -> impl Strategy<Value = Inference> {
    (
        0u8..4,
        proptest::collection::vec((0u16..8, -40i32..300, -5.0f64..5.0), 0..10),
    )
        .prop_map(|(mode, pairs)| {
            let pairs = pairs.into_iter().map(|(l, w, frac)| {
                let w = if mode == 3 { frac } else { f64::from(w) };
                (LinkId(l), w)
            });
            Inference::from_pairs(pairs).top_k(MAX_K)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encoding always clamps into the representable range, and decoding an
    /// encoded header never fails.
    #[test]
    fn encode_clamps_decode_succeeds(inf in inference_strategy(150), hops in 0u8..=255) {
        let codec = HeaderCodec::paper();
        let bytes = codec.encode(&inf, hops);
        prop_assert_eq!(bytes.len(), codec.byte_len());
        let (back, h) = codec.decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(h, hops);
        prop_assert!(back.len() <= 4);
        for (l, w) in back.entries() {
            prop_assert!((WEIGHT_MIN as f64..=WEIGHT_MAX as f64).contains(w));
            // Every decoded link existed in the source with the same sign
            // region (after rounding/clamping).
            let orig = inf.weight_of(*l);
            prop_assert!(orig != 0.0, "decoded link {l:?} absent from source");
            let clamped = (orig.round()).clamp(WEIGHT_MIN as f64, WEIGHT_MAX as f64);
            prop_assert_eq!(*w, clamped);
        }
    }

    /// A decode/encode round trip is a projection: applying it twice gives
    /// the same inference as applying it once. (Byte-level equality need not
    /// hold — clamping can reorder weight ties.)
    #[test]
    fn encoding_is_a_projection(inf in inference_strategy(150), hops in 0u8..=255) {
        let codec = HeaderCodec::paper();
        let (once, h1) = codec.decode(&codec.encode(&inf, hops)).expect("decodes");
        let (twice, h2) = codec.decode(&codec.encode(&once, h1)).expect("decodes");
        prop_assert_eq!(h1, h2);
        prop_assert_eq!(once, twice);
    }

    /// The centralized report only accuses positively weighted links, in
    /// sorted order, each clearing the portion threshold of the original
    /// mass.
    #[test]
    fn centralized_report_soundness(
        locals in proptest::collection::vec(inference_strategy(60), 0..6),
        portion in 0.05f64..1.0,
    ) {
        let reported = centralized_report(&locals, portion);
        // Sorted, unique.
        for w in reported.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Recompute the aggregate to check each reported link's weight.
        let mut agg = Inference::empty();
        for l in &locals {
            agg = agg.aggregate(l);
        }
        let mass: f64 = agg.entries().iter().map(|(_, w)| w.max(0.0)).sum();
        for l in &reported {
            let w = agg.weight_of(*l);
            prop_assert!(w > 0.0, "non-positive link {l:?} reported");
            prop_assert!(w >= portion * mass - 1e-9, "threshold violated for {l:?}");
        }
    }

    /// Warnings are monotone in the thresholds: anything raised under a
    /// stricter configuration is raised under a laxer one.
    #[test]
    fn warning_monotonicity(inf in inference_strategy(60), hops in 0u32..30) {
        let strict = WarningConfig { hop_min: 5, alpha: 2.0, beta: 2.5 };
        let lax = WarningConfig { hop_min: 2, alpha: 0.5, beta: 1.1 };
        if let Some(link) = check_warning(&inf, hops, &strict) {
            prop_assert_eq!(check_warning(&inf, hops, &lax), Some(link));
        }
    }

    /// `top_k` then `aggregate` with empty is identity on the truncated set.
    #[test]
    fn truncate_then_identity(inf in inference_strategy(60), k in 0usize..8) {
        let t = inf.top_k(k);
        prop_assert_eq!(t.aggregate(&Inference::empty()), t);
    }

    /// `from_pairs` (sort-then-fold) equals building the same multiset by a
    /// sequence of sorted merges: folding each pair in as a singleton via ⊕
    /// must land on the same entries bit-for-bit.
    #[test]
    fn from_pairs_equals_sorted_merge_fold(pairs in raw_pairs(60)) {
        let direct = Inference::from_pairs(pairs.clone());
        let folded = pairs
            .iter()
            .fold(Inference::empty(), |acc, &(l, w)| {
                acc.aggregate(&Inference::from_pairs([(l, w)]))
            });
        prop_assert_eq!(direct, folded);
    }

    /// The inline representation round-trips exactly and agrees with the
    /// Vec-backed form on every accessor the hot path uses.
    #[test]
    fn inline_round_trip_and_accessors(inf in inference_strategy(60)) {
        let inl = InlineInference::from_inference(&inf);
        prop_assert_eq!(inl.to_inference(), inf.clone());
        prop_assert_eq!(inl.len(), inf.len());
        prop_assert!(inl.w0() == inf.w0());
        prop_assert!(inl.w1() == inf.w1());
        prop_assert_eq!(inl.top_link(), inf.top_link());
        for &(l, w) in inf.entries() {
            prop_assert!(inl.weight_of(l) == w);
        }
    }

    /// One full inline hop — decode ⊕ truncate warn encode — is bit-for-bit
    /// the Vec-backed pipeline: same aggregate entries, same warning
    /// decision, same header bytes.
    #[test]
    fn inline_hop_pipeline_matches_vec(
        drifted in inference_strategy(150),
        local in inference_strategy(150),
        hops in 0u8..=255,
        k in 1usize..8,
    ) {
        let codec = HeaderCodec { k, wide: false };
        let warn = WarningConfig::default();
        let bytes = codec.encode(&drifted, hops);

        let (dv, hv) = codec.decode(&bytes).expect("decodes");
        let local_k = local.top_k(k);
        let (agg_v, hv) = aggregate_step(&local_k, &dv, hv, k);
        let warned_v = check_warning(&agg_v, hv as u32, &warn);
        let out_v = codec.encode(&agg_v, hv);

        let (di, hi) = codec.decode_inline(&bytes).expect("decodes");
        let local_i = InlineInference::from_inference(&local_k);
        let (agg_i, hi) = aggregate_step_inline(&local_i, &di, hi, k);
        let warned_i = check_warning_inline(&agg_i, hi as u32, &warn);
        let mut buf = [0u8; MAX_HEADER_BYTES];
        let n = codec.encode_into(&agg_i, hi, &mut buf);

        prop_assert_eq!(agg_i.to_inference(), agg_v);
        prop_assert_eq!(warned_i, warned_v);
        prop_assert_eq!(hv, hi);
        prop_assert_eq!(&buf[..n], &out_v[..]);
    }

    /// Inline merge/truncate agree with Vec aggregate/truncate on arbitrary
    /// (untruncated, up to capacity) operands — not just post-decode ones.
    #[test]
    fn inline_merge_truncate_matches_vec(
        a in inference_strategy(60),
        b in inference_strategy(60),
        k in 0usize..8,
    ) {
        let ia = InlineInference::from_inference(&a);
        let ib = InlineInference::from_inference(&b);
        let merged = ia.merge(&ib);
        prop_assert_eq!(merged.to_inference(), a.aggregate(&b));
        prop_assert_eq!(merged.top_k(k).to_inference(), a.aggregate(&b).top_k(k));
    }

    /// The keyed wire hop against the reference chain decode_inline →
    /// aggregate_step_inline_metered → check_warning_inline → encode_into,
    /// on arbitrary header bytes: duplicate slots, zero weights, sentinels,
    /// clamp ties, a fresh header and a wrong length. Same entries, hop
    /// count, live count, eq.(1) outcome, counters and bytes. A fractional
    /// local has no keyed form: a deployment keeps fractional schemes off
    /// the wire.
    #[test]
    fn keyed_wire_hop_matches_f64_reference(
        shape in (1usize..=MAX_K, 0u8..2, 0u8..8, 0u8..=255),
        slots in proptest::collection::vec(slot_strategy(), 0..9),
        local in local_strategy(),
        cfg in (0u32..6, 0.0f64..3.0, 0.0f64..3.0),
    ) {
        let (k, wide, header_mode, hop_byte) = shape;
        let codec = HeaderCodec { k, wide: wide == 1 };
        let warn = WarningConfig { hop_min: cfg.0, alpha: cfg.1, beta: cfg.2 };
        let hop_now = if header_mode < 4 { hop_byte % 8 } else { hop_byte };
        let mut bytes = header_bytes(codec, hop_now, &slots);
        if header_mode == 1 {
            bytes.pop();
        }
        let header = (header_mode != 0).then_some(&bytes[..]);
        let local = InlineInference::from_inference(&local.top_k(k));
        let integral = local.entries().iter().all(|(_, w)| w.fract() == 0.0);
        let keyed = KeyedInference::from_entries(local.entries());
        prop_assert_eq!(keyed.is_some(), integral);
        let Some(keyed) = keyed else {
            return Ok(());
        };

        let reg_ref = MetricsRegistry::new();
        let m_ref = InferenceMetrics::register(&reg_ref);
        let (agg, hops, live) = match header.and_then(|b| codec.decode_inline(b)) {
            Some((drifted, h)) => {
                let live = drifted.merge(&local).len();
                let (agg, h) = aggregate_step_inline_metered(&local, &drifted, h, k, Some(&m_ref));
                (agg, h, live)
            }
            None => (local.top_k(k), 1, local.len()),
        };
        let warned = check_warning_inline(&agg, u32::from(hops), &warn);
        let mut want = [0u8; MAX_HEADER_BYTES];
        let n = codec.encode_into(&agg, hops, &mut want);

        let reg = MetricsRegistry::new();
        let m = InferenceMetrics::register(&reg);
        let mut got = [0u8; MAX_HEADER_BYTES];
        let hop = wire_hop(&codec, header, &keyed, &warn, Some(&m), &mut got);

        let bits = |inf: &InlineInference| -> Vec<(LinkId, u64)> {
            inf.entries().iter().map(|&(l, w)| (l, w.to_bits())).collect()
        };
        prop_assert_eq!(bits(&hop.merged.to_inline()), bits(&agg));
        prop_assert_eq!(hop.hops, hops);
        prop_assert_eq!(hop.live, live);
        prop_assert_eq!(hop.outcome, eq1(agg.w0(), agg.w1(), u32::from(hops), &warn));
        prop_assert_eq!(hop.warning(), warned);
        prop_assert_eq!(&got[..hop.len], &want[..n]);
        for name in ["inference.aggregations", "inference.topk_truncations"] {
            prop_assert_eq!(reg.snapshot().counter(name), reg_ref.snapshot().counter(name));
        }
    }
}
