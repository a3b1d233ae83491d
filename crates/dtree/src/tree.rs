//! CART decision-tree training and inference.
//!
//! Axis-aligned binary splits minimizing weighted Gini impurity. The class
//! weight compensates the heavy normal/abnormal imbalance of the monitoring
//! datasets (§6.3 "with the significant imbalance between normal and
//! abnormal samples, we mainly focus on the recall of the classifiers for
//! each class").

use db_flowmon::{FeatureVector, FlowStatus, NUM_FEATURES};

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Maximum tree depth (root = depth 0). Deployability bound: deeper
    /// trees need more pipeline stages.
    pub max_depth: usize,
    /// Minimum weighted sample count in a leaf.
    pub min_samples_leaf: usize,
    /// Minimum Gini gain to accept a split.
    pub min_gain: f64,
    /// Weight of abnormal samples relative to normal ones; `None` balances
    /// classes automatically from the training set.
    pub abnormal_weight: Option<f64>,
}

/// Maximum number of candidate thresholds evaluated per feature
/// (quantile-spaced); bounds training time on large datasets.
const MAX_CANDIDATES: usize = 48;

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_depth: 8,
            min_samples_leaf: 8,
            min_gain: 1e-7,
            abnormal_weight: None,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal decision.
    Leaf {
        /// Predicted status.
        label: FlowStatus,
        /// Weighted fraction of training samples in this leaf agreeing with
        /// the label.
        confidence: f64,
    },
    /// Internal split: `x[feature] <= threshold` goes left.
    Split {
        /// Feature index (see `db_flowmon::FEATURE_NAMES`).
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Subtree for `x[feature] <= threshold`.
        left: Box<Node>,
        /// Subtree for `x[feature] > threshold`.
        right: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
}

/// One training example.
type Example = (FeatureVector, FlowStatus);

impl DecisionTree {
    /// Train on labeled examples. Panics if `samples` is empty.
    pub fn train(samples: &[Example], cfg: &TrainConfig) -> Self {
        assert!(!samples.is_empty(), "cannot train on an empty dataset");
        let abnormal = samples
            .iter()
            .filter(|(_, l)| *l == FlowStatus::Abnormal)
            .count();
        let normal = samples.len() - abnormal;
        let w_abnormal = cfg.abnormal_weight.unwrap_or_else(|| {
            if abnormal == 0 {
                1.0
            } else {
                (normal as f64 / abnormal as f64).clamp(1.0, 64.0)
            }
        });
        let idx: Vec<u32> = (0..samples.len() as u32).collect();
        let root = build(samples, idx, w_abnormal, cfg, 0);
        DecisionTree { root }
    }

    /// Predict the status of one feature vector.
    pub fn predict(&self, x: &FeatureVector) -> FlowStatus {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label, .. } => return *label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// The root node (for compilation and inspection).
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Maximum depth (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + c(left) + c(right),
            }
        }
        c(&self.root)
    }

    /// A human-readable rendering, for debugging and documentation.
    pub fn render(&self) -> String {
        fn r(n: &Node, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match n {
                Node::Leaf { label, confidence } => {
                    out.push_str(&format!("{pad}=> {label:?} ({confidence:.2})\n"));
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let name = db_flowmon::FEATURE_NAMES[*feature];
                    out.push_str(&format!("{pad}if {name} <= {threshold:.3}:\n"));
                    r(left, indent + 1, out);
                    out.push_str(&format!("{pad}else:\n"));
                    r(right, indent + 1, out);
                }
            }
        }
        let mut s = String::new();
        r(&self.root, 0, &mut s);
        s
    }
}

/// Weighted counts `(normal, abnormal)` of a sample subset.
fn class_weights(samples: &[Example], idx: &[u32], w_abnormal: f64) -> (f64, f64) {
    let mut n = 0.0;
    let mut a = 0.0;
    for &i in idx {
        match samples[i as usize].1 {
            FlowStatus::Normal => n += 1.0,
            FlowStatus::Abnormal => a += w_abnormal,
        }
    }
    (n, a)
}

fn gini(n: f64, a: f64) -> f64 {
    let total = n + a;
    if total <= 0.0 {
        return 0.0;
    }
    let pn = n / total;
    let pa = a / total;
    1.0 - pn * pn - pa * pa
}

fn leaf_of(n: f64, a: f64) -> Node {
    let (label, agree) = if a > n {
        (FlowStatus::Abnormal, a)
    } else {
        (FlowStatus::Normal, n)
    };
    let total = n + a;
    Node::Leaf {
        label,
        confidence: if total > 0.0 { agree / total } else { 1.0 },
    }
}

fn build(
    samples: &[Example],
    idx: Vec<u32>,
    w_abnormal: f64,
    cfg: &TrainConfig,
    depth: usize,
) -> Node {
    let (n, a) = class_weights(samples, &idx, w_abnormal);
    let parent_gini = gini(n, a);
    if depth >= cfg.max_depth || parent_gini == 0.0 || idx.len() < 2 * cfg.min_samples_leaf {
        return leaf_of(n, a);
    }
    // Find the best (feature, threshold).
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
    let total_w = n + a;
    let mut values: Vec<(f64, f64, f64)> = Vec::with_capacity(idx.len()); // (value, wn, wa)
    for f in 0..NUM_FEATURES {
        values.clear();
        for &i in &idx {
            let (x, l) = &samples[i as usize];
            let (wn, wa) = match l {
                FlowStatus::Normal => (1.0, 0.0),
                FlowStatus::Abnormal => (0.0, w_abnormal),
            };
            values.push((x[f], wn, wa));
        }
        values.sort_by(|p, q| p.0.partial_cmp(&q.0).expect("finite features"));
        if values[0].0 == values[values.len() - 1].0 {
            continue; // constant feature here
        }
        // Candidate thresholds: walk the sorted values, evaluating at value
        // changes; subsample positions when there are too many.
        let stride = (idx.len() / MAX_CANDIDATES).max(1);
        let mut ln = 0.0;
        let mut la = 0.0;
        let mut k = 0usize;
        while k + 1 < values.len() {
            ln += values[k].1;
            la += values[k].2;
            let here = values[k].0;
            let next = values[k + 1].0;
            k += 1;
            if here == next {
                continue;
            }
            if stride > 1 && !k.is_multiple_of(stride) {
                continue;
            }
            let rn = n - ln;
            let ra = a - la;
            let lw = ln + la;
            let rw = rn + ra;
            if lw <= 0.0 || rw <= 0.0 {
                continue;
            }
            // Respect the (unweighted) leaf-size floor.
            if k < cfg.min_samples_leaf || idx.len() - k < cfg.min_samples_leaf {
                continue;
            }
            let gain = parent_gini - (lw / total_w) * gini(ln, la) - (rw / total_w) * gini(rn, ra);
            let threshold = 0.5 * (here + next);
            match best {
                Some((bg, _, _)) if gain <= bg => {}
                _ => best = Some((gain, f, threshold)),
            }
        }
    }
    match best {
        Some((gain, feature, threshold)) if gain > cfg.min_gain => {
            let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = idx
                .into_iter()
                .partition(|&i| samples[i as usize].0[feature] <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return leaf_of(n, a);
            }
            let left = build(samples, left_idx, w_abnormal, cfg, depth + 1);
            let right = build(samples, right_idx, w_abnormal, cfg, depth + 1);
            Node::Split {
                feature,
                threshold,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        _ => leaf_of(n, a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_util::Pcg64;

    fn vecf(last_n: f64, avg_n: f64) -> FeatureVector {
        let mut x = [0.0; NUM_FEATURES];
        x[0] = 10.0; // rtt
        x[1] = 4.0; // path len
        x[2] = 3.0; // n_interval
        x[3] = avg_n;
        x[9] = last_n;
        x
    }

    /// The canonical failure signature: avg activity but silent last interval.
    fn failure_dataset(n: usize, seed: u64) -> Vec<(FeatureVector, FlowStatus)> {
        let mut rng = Pcg64::new(seed);
        let mut out = Vec::new();
        for _ in 0..n {
            if rng.chance(0.15) {
                // Abnormal: active on average, dead now.
                out.push((vecf(0.0, rng.range_f64(2.0, 10.0)), FlowStatus::Abnormal));
            } else if rng.chance(0.5) {
                // Normal active.
                out.push((
                    vecf(rng.range_f64(1.0, 12.0), rng.range_f64(2.0, 10.0)),
                    FlowStatus::Normal,
                ));
            } else {
                // Normal idle-or-ending (low activity everywhere).
                out.push((vecf(0.0, rng.range_f64(0.0, 0.4)), FlowStatus::Normal));
            }
        }
        out
    }

    #[test]
    fn learns_the_failure_signature() {
        let data = failure_dataset(2_000, 1);
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        // Abnormal pattern.
        assert_eq!(tree.predict(&vecf(0.0, 6.0)), FlowStatus::Abnormal);
        // Active flow.
        assert_eq!(tree.predict(&vecf(5.0, 6.0)), FlowStatus::Normal);
        // Quiet flow that was never active.
        assert_eq!(tree.predict(&vecf(0.0, 0.1)), FlowStatus::Normal);
    }

    #[test]
    fn respects_max_depth() {
        let data = failure_dataset(2_000, 2);
        for depth in [1, 2, 4] {
            let cfg = TrainConfig {
                max_depth: depth,
                ..Default::default()
            };
            let tree = DecisionTree::train(&data, &cfg);
            assert!(tree.depth() <= depth, "depth {} > {depth}", tree.depth());
        }
    }

    #[test]
    fn pure_dataset_gives_single_leaf() {
        let data: Vec<_> = (0..50)
            .map(|i| (vecf(i as f64, 1.0), FlowStatus::Normal))
            .collect();
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&vecf(3.0, 1.0)), FlowStatus::Normal);
    }

    #[test]
    fn training_is_deterministic() {
        let data = failure_dataset(1_000, 3);
        let a = DecisionTree::train(&data, &TrainConfig::default());
        let b = DecisionTree::train(&data, &TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn class_weight_trades_recall() {
        // Highly imbalanced data with overlapping classes: upweighting the
        // abnormal class must not lower abnormal recall.
        let mut rng = Pcg64::new(4);
        let mut data = Vec::new();
        for _ in 0..3_000 {
            // Normals spread over last_n in [0, 4).
            data.push((vecf(rng.range_f64(0.0, 4.0), 5.0), FlowStatus::Normal));
        }
        for _ in 0..60 {
            // Abnormals concentrated at last_n in [0, 1.0) — overlapping.
            data.push((vecf(rng.range_f64(0.0, 1.0), 5.0), FlowStatus::Abnormal));
        }
        let recall = |w: Option<f64>| {
            let cfg = TrainConfig {
                abnormal_weight: w,
                max_depth: 3,
                ..Default::default()
            };
            let tree = DecisionTree::train(&data, &cfg);
            let hits = data
                .iter()
                .filter(|(x, l)| {
                    *l == FlowStatus::Abnormal && tree.predict(x) == FlowStatus::Abnormal
                })
                .count();
            hits as f64 / 60.0
        };
        let unweighted = recall(Some(1.0));
        let weighted = recall(None);
        assert!(
            weighted >= unweighted,
            "auto weighting must not reduce abnormal recall: {weighted} vs {unweighted}"
        );
        assert!(
            weighted > 0.5,
            "weighted abnormal recall too low: {weighted}"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        DecisionTree::train(&[], &TrainConfig::default());
    }

    #[test]
    fn render_mentions_feature_names() {
        let data = failure_dataset(500, 5);
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let s = tree.render();
        assert!(s.contains("if ") || s.contains("=>"));
    }

    #[test]
    fn min_samples_leaf_is_respected_at_root() {
        let data = failure_dataset(20, 6);
        let cfg = TrainConfig {
            min_samples_leaf: 50,
            ..Default::default()
        };
        let tree = DecisionTree::train(&data, &cfg);
        assert_eq!(tree.node_count(), 1, "too few samples to split");
    }
}
