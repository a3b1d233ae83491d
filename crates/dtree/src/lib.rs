//! In-network intelligence: the decision-tree flow-status classifier.
//!
//! §3/§4.1: Drift-Bottle trains a classifier offline and deploys it on the
//! programmable data plane; it is a decision tree because (a) it fits the
//! compute/storage budget and (b) "the decision tree only relies on a group
//! of classification rules ... which can be easily converted into flow table
//! rules in the data plane" (using the technique of SwitchTree \[20\]).
//!
//! * [`tree`] — CART training (weighted Gini) and inference.
//! * [`mat`] — compilation of a trained tree into prioritized match-action
//!   range rules and the rule-table classifier that evaluates like the data
//!   plane would. Tree and table are *provably* equivalent (property-tested).
//! * [`metrics`] — confusion matrix, per-class recall (the Fig. 6 metric),
//!   accuracy.
//! * [`classifiers`] — the common [`classifiers::FlowClassifier`] trait plus
//!   the naive threshold baseline that §2.2 argues against.

pub mod classifiers;
pub mod mat;
pub mod metrics;
pub mod tree;

pub use classifiers::{FlowClassifier, ThresholdClassifier};
pub use mat::{Rule, TableClassifier};
pub use metrics::ConfusionMatrix;
pub use tree::{DecisionTree, TrainConfig};
