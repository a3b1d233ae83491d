//! Compilation of a decision tree into match-action rules.
//!
//! §5: "Drift-Bottle's anomaly detection is implemented by match-action
//! tables in P4. ... The entries of the tables are transformed from the
//! rules of decision-tree-based classifiers" (the SwitchTree technique \[20\]).
//!
//! Each root-to-leaf path becomes one rule: a conjunction of half-open
//! interval constraints over the features, with the leaf's label as the
//! action. The rules of one tree are mutually exclusive and exhaustive, so a
//! rule table classifies *identically* to its source tree — a property the
//! test suite checks exhaustively on random inputs. The rules are what a
//! switch would be loaded with; software classification walks the same tree
//! flattened into one array, because a TCAM matches all entries at once and
//! a rule scan does not.

use crate::tree::{DecisionTree, Node};
use db_flowmon::{FeatureVector, FlowStatus, NUM_FEATURES};

/// One match-action entry: feature ranges → label.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Per-feature admissible interval `(lo, hi]`; `lo = -inf`, `hi = +inf`
    /// mean unconstrained. A vector `x` matches iff
    /// `lo < x[f] <= hi` for every feature `f`.
    pub ranges: [(f64, f64); NUM_FEATURES],
    /// The classification this rule emits.
    pub label: FlowStatus,
    /// Entry priority (insertion order; informational — rules are disjoint).
    pub priority: u32,
}

impl Rule {
    fn unconstrained(label: FlowStatus, priority: u32) -> Self {
        Rule {
            ranges: [(f64::NEG_INFINITY, f64::INFINITY); NUM_FEATURES],
            label,
            priority,
        }
    }

    /// Whether `x` satisfies every range constraint. `lo = -inf` is "no
    /// lower bound", so `-inf` itself passes it; NaN passes nothing.
    pub fn matches(&self, x: &FeatureVector) -> bool {
        self.ranges
            .iter()
            .zip(x.iter())
            .all(|((lo, hi), v)| (*lo < *v || *lo == f64::NEG_INFINITY) && *v <= *hi)
    }

    /// Number of constrained features (ternary-match width proxy).
    pub fn constrained_features(&self) -> usize {
        self.ranges
            .iter()
            .filter(|(lo, hi)| lo.is_finite() || hi.is_finite())
            .count()
    }
}

/// One node of the flattened tree, in preorder: a split's left child is the
/// next node, its right child sits at `right`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlatNode {
    Leaf(FlowStatus),
    Split {
        feature: usize,
        threshold: f64,
        right: usize,
    },
}

/// A match-action rule table compiled from a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TableClassifier {
    rules: Vec<Rule>,
    /// Fallback when no rule matches (cannot happen for tables compiled from
    /// a tree, but the hardware table needs a default action).
    default_label: FlowStatus,
    /// The classify-time form: the source tree in one contiguous array, so a
    /// lookup is at most tree-depth compares — the software stand-in for the
    /// TCAM's single match, where the cost does not grow with the number of
    /// entries. Derived in [`Self::compile`], never serialized.
    nodes: Vec<FlatNode>,
}

impl TableClassifier {
    /// Compile a trained tree into a rule table.
    pub fn compile(tree: &DecisionTree) -> Self {
        let mut rules = Vec::new();
        let mut ranges = [(f64::NEG_INFINITY, f64::INFINITY); NUM_FEATURES];
        walk(tree.root(), &mut ranges, &mut rules);
        let mut nodes = Vec::with_capacity(2 * rules.len());
        flatten(tree.root(), &mut nodes);
        TableClassifier {
            rules,
            default_label: FlowStatus::Normal,
            nodes,
        }
    }

    /// The compiled rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty (never true after `compile`).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Classify by the rule `x` matches.
    ///
    /// Walks the flattened tree instead of scanning the rules: the rules
    /// partition the feature space, so the leaf the walk ends in *is* the
    /// first (and only) rule [`Rule::matches`] accepts — that scan stays the
    /// reference semantics and the tests compare the two, including on
    /// exact thresholds and ±∞. A NaN feature fails every `<=`, so it goes
    /// right at each split on it, as [`DecisionTree::predict`] does, while
    /// no rule matches it; features are finite by construction (integer
    /// counters and a finite RTT), so the table never sees one.
    // db-lint: allow(hot-index) — feature < NUM_FEATURES: flatten copies it from a trained split
    pub fn classify(&self, x: &FeatureVector) -> FlowStatus {
        let mut at = 0;
        loop {
            match self.nodes.get(at) {
                Some(&FlatNode::Split {
                    feature,
                    threshold,
                    right,
                }) => {
                    at = if x[feature] <= threshold {
                        at + 1
                    } else {
                        right
                    }
                }
                Some(&FlatNode::Leaf(label)) => return label,
                None => return self.default_label,
            }
        }
    }
}

/// Append `node`'s subtree to `out` in preorder.
fn flatten(node: &Node, out: &mut Vec<FlatNode>) {
    match node {
        Node::Leaf { label, .. } => out.push(FlatNode::Leaf(*label)),
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let at = out.len();
            out.push(FlatNode::Leaf(FlowStatus::Normal)); // patched below
            flatten(left, out);
            out[at] = FlatNode::Split {
                feature: *feature,
                threshold: *threshold,
                right: out.len(),
            };
            flatten(right, out);
        }
    }
}

fn walk(node: &Node, ranges: &mut [(f64, f64); NUM_FEATURES], out: &mut Vec<Rule>) {
    match node {
        Node::Leaf { label, .. } => {
            let mut rule = Rule::unconstrained(*label, out.len() as u32);
            rule.ranges = *ranges;
            out.push(rule);
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            let saved = ranges[*feature];
            // Left: x[f] <= threshold — tighten the upper bound.
            ranges[*feature].1 = saved.1.min(*threshold);
            walk(left, ranges, out);
            ranges[*feature] = saved;
            // Right: x[f] > threshold — tighten the lower bound.
            ranges[*feature].0 = saved.0.max(*threshold);
            walk(right, ranges, out);
            ranges[*feature] = saved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TrainConfig;
    use db_util::Pcg64;

    fn random_dataset(n: usize, seed: u64) -> Vec<(FeatureVector, FlowStatus)> {
        let mut rng = Pcg64::new(seed);
        (0..n)
            .map(|_| {
                let mut x = [0.0; NUM_FEATURES];
                for v in &mut x {
                    *v = rng.range_f64(0.0, 10.0);
                }
                // A nontrivial ground-truth function of several features.
                let label = if x[9] < 1.0 && x[3] > 4.0 || x[4] > 8.5 && x[13] < 2.0 {
                    FlowStatus::Abnormal
                } else {
                    FlowStatus::Normal
                };
                (x, label)
            })
            .collect()
    }

    #[test]
    fn table_equals_tree_on_training_data() {
        let data = random_dataset(3_000, 1);
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let table = TableClassifier::compile(&tree);
        // One rule per leaf: a tree whose splits all have two children
        // has one node fewer than twice its leaves.
        assert_eq!(2 * table.len() - 1, tree.node_count());
        for (x, _) in &data {
            assert_eq!(table.classify(x), tree.predict(x));
        }
    }

    #[test]
    fn table_equals_tree_on_random_inputs() {
        let data = random_dataset(2_000, 2);
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let table = TableClassifier::compile(&tree);
        let mut rng = Pcg64::new(99);
        for _ in 0..5_000 {
            let mut x = [0.0; NUM_FEATURES];
            for v in &mut x {
                *v = rng.range_f64(-5.0, 15.0);
            }
            assert_eq!(table.classify(&x), tree.predict(&x));
        }
    }

    #[test]
    fn rules_are_mutually_exclusive() {
        let data = random_dataset(1_000, 3);
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let table = TableClassifier::compile(&tree);
        let mut rng = Pcg64::new(7);
        for _ in 0..2_000 {
            let mut x = [0.0; NUM_FEATURES];
            for v in &mut x {
                *v = rng.range_f64(0.0, 10.0);
            }
            let matches = table.rules().iter().filter(|r| r.matches(&x)).count();
            assert_eq!(matches, 1, "tree rules must partition the space");
        }
    }

    /// The label of the first rule whose ranges accept `x` — the reference
    /// semantics `classify` must reproduce.
    fn first_match(table: &TableClassifier, x: &FeatureVector) -> Option<FlowStatus> {
        table.rules().iter().find(|r| r.matches(x)).map(|r| r.label)
    }

    /// Every split threshold of `node`'s subtree, with its feature.
    fn thresholds(node: &Node, out: &mut Vec<(usize, f64)>) {
        if let Node::Split {
            feature,
            threshold,
            left,
            right,
        } = node
        {
            out.push((*feature, *threshold));
            thresholds(left, out);
            thresholds(right, out);
        }
    }

    #[test]
    fn tree_walk_equals_rule_scan_equals_tree() {
        for seed in [11, 12, 13] {
            let data = random_dataset(2_000, seed);
            let tree = DecisionTree::train(&data, &TrainConfig::default());
            let table = TableClassifier::compile(&tree);
            let mut splits = Vec::new();
            thresholds(tree.root(), &mut splits);
            assert!(!splits.is_empty());
            let mut rng = Pcg64::new(seed + 100);
            for round in 0..5_000 {
                let mut x = [0.0; NUM_FEATURES];
                for v in &mut x {
                    *v = rng.range_f64(-5.0, 15.0);
                }
                // Every third vector sits exactly on some split thresholds
                // (the `<=` side of each), every third carries infinities.
                match round % 3 {
                    1 => {
                        for _ in 0..4 {
                            let (f, t) = splits[rng.index(splits.len())];
                            x[f] = t;
                        }
                    }
                    2 => {
                        for _ in 0..3 {
                            let f = rng.index(NUM_FEATURES);
                            x[f] = if rng.below(2) == 0 {
                                f64::INFINITY
                            } else {
                                f64::NEG_INFINITY
                            };
                        }
                    }
                    _ => {}
                }
                let got = table.classify(&x);
                assert_eq!(Some(got), first_match(&table, &x), "rule scan at {x:?}");
                assert_eq!(got, tree.predict(&x), "tree at {x:?}");
            }
        }
    }

    #[test]
    fn nan_goes_right_like_the_tree_and_matches_no_rule() {
        let data = random_dataset(2_000, 11);
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let table = TableClassifier::compile(&tree);
        let x = [f64::NAN; NUM_FEATURES];
        assert_eq!(first_match(&table, &x), None);
        assert_eq!(table.classify(&x), tree.predict(&x));
        // All-NaN takes the right branch everywhere: the last leaf.
        assert_eq!(table.classify(&x), table.rules().last().unwrap().label);
    }

    #[test]
    fn single_leaf_tree_compiles_to_catch_all() {
        let data: Vec<_> = (0..20)
            .map(|_| ([1.0; NUM_FEATURES], FlowStatus::Normal))
            .collect();
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let table = TableClassifier::compile(&tree);
        assert_eq!(table.len(), 1);
        assert_eq!(table.rules()[0].constrained_features(), 0);
        assert!(!table.is_empty());
        assert_eq!(table.classify(&[123.0; NUM_FEATURES]), FlowStatus::Normal);
    }

    #[test]
    fn boundary_goes_left() {
        // x[f] <= threshold routes left in the tree; the table must agree on
        // exact-threshold inputs.
        let mut data = Vec::new();
        for i in 0..100 {
            let mut x = [0.0; NUM_FEATURES];
            x[9] = i as f64 / 10.0;
            let label = if x[9] <= 5.0 {
                FlowStatus::Abnormal
            } else {
                FlowStatus::Normal
            };
            data.push((x, label));
        }
        let tree = DecisionTree::train(&data, &TrainConfig::default());
        let table = TableClassifier::compile(&tree);
        // Probe a dense sweep including values near the learned threshold.
        for i in 0..1_000 {
            let mut x = [0.0; NUM_FEATURES];
            x[9] = i as f64 / 100.0;
            assert_eq!(table.classify(&x), tree.predict(&x), "at x9 = {}", x[9]);
        }
    }
}
