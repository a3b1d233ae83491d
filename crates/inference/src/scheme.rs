//! Weight-assignment schemes (§4.2 and the §6.4 baselines).
//!
//! Per monitored flow, the scheme decides how much suspicion (or innocence)
//! each link on the flow's **upstream** path receives:
//!
//! | scheme | abnormal flow | normal flow | data-plane friendly? |
//! |---|---|---|---|
//! | Drift-Bottle | +1 | −1 | yes (integers) |
//! | Non-Negative | +1 | 0 | yes |
//! | 007-Drifted  | +1/n | 0 | no (floats) |
//! | 007-Modified | +1/n | −1/n | no (floats) |
//!
//! where `n` is the upstream path length. §6.4 finds Drift-Bottle ≈
//! 007-Modified ≫ Non-Negative > 007-Drifted, and picks Drift-Bottle because
//! integer weights are implementable on the data plane.

use crate::inference::Inference;
use db_flowmon::FlowStatus;
use db_topology::LinkId;

/// A weight-assignment scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightScheme {
    /// Paper's scheme: +1 on abnormal paths, −1 on normal paths.
    DriftBottle,
    /// +1 on abnormal paths; normal flows contribute nothing.
    NonNegative,
    /// 007's vote: +1/n on abnormal paths, nothing on normal ones.
    Drifted007,
    /// 007's vote extended with −1/n innocence credit.
    Modified007,
}

impl WeightScheme {
    /// All schemes, in the order Fig. 7 compares them.
    pub const ALL: [WeightScheme; 4] = [
        WeightScheme::DriftBottle,
        WeightScheme::NonNegative,
        WeightScheme::Drifted007,
        WeightScheme::Modified007,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            WeightScheme::DriftBottle => "Drift-Bottle",
            WeightScheme::NonNegative => "Non-Negative",
            WeightScheme::Drifted007 => "007-Drifted",
            WeightScheme::Modified007 => "007-Modified",
        }
    }

    /// Whether every vote is an integer, so every local inference is
    /// integral — what the integer wire header can carry.
    pub fn is_integral(&self) -> bool {
        matches!(self, WeightScheme::DriftBottle | WeightScheme::NonNegative)
    }

    /// Per-link weight contribution of one flow with the given status whose
    /// upstream path has `upstream_len` links. Zero-length upstream paths
    /// contribute nothing.
    pub fn contribution(&self, status: FlowStatus, upstream_len: usize) -> f64 {
        if upstream_len == 0 {
            return 0.0;
        }
        let inv = 1.0 / upstream_len as f64;
        match (self, status) {
            (WeightScheme::DriftBottle, FlowStatus::Abnormal) => 1.0,
            (WeightScheme::DriftBottle, FlowStatus::Normal) => -1.0,
            (WeightScheme::NonNegative, FlowStatus::Abnormal) => 1.0,
            (WeightScheme::NonNegative, FlowStatus::Normal) => 0.0,
            (WeightScheme::Drifted007, FlowStatus::Abnormal) => inv,
            (WeightScheme::Drifted007, FlowStatus::Normal) => 0.0,
            (WeightScheme::Modified007, FlowStatus::Abnormal) => inv,
            (WeightScheme::Modified007, FlowStatus::Normal) => -inv,
        }
    }
}

/// Algorithm 1: generate the local inference of one switch from the statuses
/// and upstream paths of its monitored flows, truncated to length `k`.
pub fn local_inference<'a>(
    flows: impl IntoIterator<Item = (FlowStatus, &'a [LinkId])>,
    scheme: WeightScheme,
    k: usize,
) -> Inference {
    // BTreeMap keeps accumulation order independent of the process hash
    // seed; `from_pairs` sorts anyway, but float accumulation order must
    // also be stable for bit-identical weights.
    let mut weights: std::collections::BTreeMap<LinkId, f64> = std::collections::BTreeMap::new();
    for (status, upstream) in flows {
        let c = scheme.contribution(status, upstream.len());
        if c == 0.0 {
            continue;
        }
        for &l in upstream {
            *weights.entry(l).or_insert(0.0) += c;
        }
    }
    let mut inf = Inference::from_pairs(weights);
    inf.truncate_top_k(k);
    inf
}

/// Reusable accumulation buffers for [`local_inference_scratched`]. One
/// instance serves any number of calls; buffers grow to the largest link id
/// voted on and stay allocated.
#[derive(Debug, Default)]
pub struct VoteScratch {
    /// Per-link weight sum, indexed by `LinkId.0`.
    weights: Vec<f64>,
    /// Whether the link has been voted on in the current call.
    voted: Vec<bool>,
    /// Link ids voted on in the current call, unsorted.
    touched: Vec<u16>,
}

/// [`local_inference`] on dense per-link accumulators instead of a
/// `BTreeMap` — the streaming-tick form: a switch with hundreds of monitored
/// flows does one array add per (flow, upstream link) vote rather than a
/// tree lookup.
///
/// Bit-identical to [`local_inference`]: each link's weight is summed
/// left-to-right in the same input order (IEEE addition order preserved),
/// and the touched links are handed to `Inference::from_pairs` in the same
/// ascending-id order a `BTreeMap` iterates in.
///
/// Every link a flow voted on also goes to `tally`, in ascending id order,
/// with its weight before the top-k cut (zero when the votes cancel): what
/// the switch's flows cast on each link.
pub fn local_inference_scratched<'a>(
    flows: impl IntoIterator<Item = (FlowStatus, &'a [LinkId])>,
    scheme: WeightScheme,
    k: usize,
    scratch: &mut VoteScratch,
    mut tally: impl FnMut(LinkId, f64),
) -> Inference {
    for (status, upstream) in flows {
        let c = scheme.contribution(status, upstream.len());
        if c == 0.0 {
            continue;
        }
        for &l in upstream {
            let idx = usize::from(l.0);
            if idx >= scratch.weights.len() {
                scratch.weights.resize(idx + 1, 0.0);
                scratch.voted.resize(idx + 1, false);
            }
            if !scratch.voted[idx] {
                scratch.voted[idx] = true;
                scratch.touched.push(l.0);
            }
            scratch.weights[idx] += c;
        }
    }
    scratch.touched.sort_unstable();
    let sums = (scratch.touched.iter()).map(|&l| (LinkId(l), scratch.weights[usize::from(l)]));
    for (l, w) in sums.clone() {
        tally(l, w);
    }
    let mut inf = Inference::from_pairs(sums);
    inf.truncate_top_k(k);
    for &l in &scratch.touched {
        scratch.weights[usize::from(l)] = 0.0;
        scratch.voted[usize::from(l)] = false;
    }
    scratch.touched.clear();
    inf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn contributions_match_table() {
        use FlowStatus::*;
        use WeightScheme::*;
        assert_eq!(DriftBottle.contribution(Abnormal, 4), 1.0);
        assert_eq!(DriftBottle.contribution(Normal, 4), -1.0);
        assert_eq!(NonNegative.contribution(Abnormal, 4), 1.0);
        assert_eq!(NonNegative.contribution(Normal, 4), 0.0);
        assert_eq!(Drifted007.contribution(Abnormal, 4), 0.25);
        assert_eq!(Drifted007.contribution(Normal, 4), 0.0);
        assert_eq!(Modified007.contribution(Abnormal, 4), 0.25);
        assert_eq!(Modified007.contribution(Normal, 4), -0.25);
        // Ingress monitors (empty upstream) contribute nothing.
        for s in WeightScheme::ALL {
            assert_eq!(s.contribution(Abnormal, 0), 0.0);
        }
        // A scheme is integral exactly when its votes are, on any path.
        for s in WeightScheme::ALL {
            let votes = [Abnormal, Normal].map(|st| s.contribution(st, 3));
            assert_eq!(s.is_integral(), votes.iter().all(|v| v.fract() == 0.0));
        }
    }

    #[test]
    fn figure5_worked_example() {
        // §4.2's example: 5 misclassification-free normal flows and 3
        // misclassified-as-abnormal flows over l1; 2 truly abnormal flows
        // over l2. Non-negative counting blames l1 (3 > 2); Drift-Bottle's
        // innocence credit flips it to l2 (3−5 = −2 vs 2).
        let upstream_l1: &[LinkId] = &[l(1)];
        let upstream_l2: &[LinkId] = &[l(2)];
        let flows: Vec<(FlowStatus, &[LinkId])> = vec![
            (FlowStatus::Abnormal, upstream_l1), // misclassified h1
            (FlowStatus::Abnormal, upstream_l1), // misclassified h2
            (FlowStatus::Abnormal, upstream_l1), // misclassified h3
            (FlowStatus::Normal, upstream_l1),   // h4..h8 correct
            (FlowStatus::Normal, upstream_l1),
            (FlowStatus::Normal, upstream_l1),
            (FlowStatus::Normal, upstream_l1),
            (FlowStatus::Normal, upstream_l1),
            (FlowStatus::Abnormal, upstream_l2), // h9 -> h1
            (FlowStatus::Abnormal, upstream_l2), // h10 -> h1
        ];
        let naive = local_inference(flows.iter().cloned(), WeightScheme::NonNegative, 4);
        assert_eq!(naive.top_link(), Some(l(1)), "naive counting accuses l1");
        assert_eq!(naive.weight_of(l(1)), 3.0);
        assert_eq!(naive.weight_of(l(2)), 2.0);

        let db = local_inference(flows.iter().cloned(), WeightScheme::DriftBottle, 4);
        assert_eq!(db.top_link(), Some(l(2)), "Drift-Bottle localizes l2");
        assert_eq!(db.weight_of(l(2)), 2.0);
        assert_eq!(db.weight_of(l(1)), -2.0);
    }

    #[test]
    fn drifted007_divides_by_path_length() {
        let upstream: &[LinkId] = &[l(0), l(1), l(2), l(3)];
        let flows: Vec<(FlowStatus, &[LinkId])> = vec![(FlowStatus::Abnormal, upstream)];
        let inf = local_inference(flows, WeightScheme::Drifted007, 4);
        for &link in upstream {
            assert_eq!(inf.weight_of(link), 0.25);
        }
    }

    #[test]
    fn truncation_to_k() {
        let ups: Vec<Vec<LinkId>> = (0..10).map(|i| vec![l(i)]).collect();
        let flows: Vec<(FlowStatus, &[LinkId])> = ups
            .iter()
            .map(|u| (FlowStatus::Abnormal, u.as_slice()))
            .collect();
        let inf = local_inference(flows, WeightScheme::DriftBottle, 4);
        assert_eq!(inf.len(), 4);
    }

    #[test]
    fn names_and_count() {
        assert_eq!(WeightScheme::DriftBottle.name(), "Drift-Bottle");
        assert_eq!(WeightScheme::ALL.len(), 4);
    }

    #[test]
    fn empty_flow_set_gives_empty_inference() {
        let flows: Vec<(FlowStatus, &[LinkId])> = vec![];
        assert!(local_inference(flows, WeightScheme::DriftBottle, 4).is_empty());
    }

    #[test]
    fn scratched_form_is_bit_identical_to_btree_form() {
        // Pseudo-random vote sets (fractional 007 weights included, where
        // accumulation order matters bit-wise), one shared scratch across
        // calls to prove the buffers reset cleanly.
        let mut scratch = VoteScratch::default();
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let n_flows = (next() % 40) as usize;
            let ups: Vec<Vec<LinkId>> = (0..n_flows)
                .map(|_| {
                    (0..1 + next() % 5)
                        .map(|_| l((next() % 23) as u16))
                        .collect()
                })
                .collect();
            let flows: Vec<(FlowStatus, &[LinkId])> = ups
                .iter()
                .map(|u| {
                    let s = if next() % 3 == 0 {
                        FlowStatus::Abnormal
                    } else {
                        FlowStatus::Normal
                    };
                    (s, u.as_slice())
                })
                .collect();
            for scheme in WeightScheme::ALL {
                let k = 1 + (next() % 6) as usize;
                let reference = local_inference(flows.iter().cloned(), scheme, k);
                let mut tallied = Vec::new();
                let dense = local_inference_scratched(
                    flows.iter().cloned(),
                    scheme,
                    k,
                    &mut scratch,
                    |link, sum| tallied.push((link, sum.to_bits())),
                );
                assert_eq!(dense, reference, "round {round}, scheme {}", scheme.name());
                // The tally is each voted link's votes summed in flow
                // order, cut to nothing.
                let mut sums = std::collections::BTreeMap::new();
                for &(status, upstream) in &flows {
                    let c = scheme.contribution(status, upstream.len());
                    for &link in upstream.iter().filter(|_| c != 0.0) {
                        *sums.entry(link).or_insert(0.0) += c;
                    }
                }
                let want: Vec<(LinkId, u64)> =
                    sums.iter().map(|(&l, w)| (l, w.to_bits())).collect();
                assert_eq!(tallied, want, "round {round}, scheme {}", scheme.name());
            }
        }
    }
}
