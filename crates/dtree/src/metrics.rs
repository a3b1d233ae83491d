//! Classifier evaluation metrics.
//!
//! Fig. 6 reports the per-class recall of the flow-status classifiers
//! ("with the significant imbalance between normal and abnormal samples, we
//! mainly focus on the recall of the classifiers for each class").

use db_flowmon::FlowStatus;

/// Binary confusion matrix with **abnormal** as the positive class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Abnormal predicted abnormal.
    pub tp: u64,
    /// Normal predicted abnormal.
    pub fp: u64,
    /// Abnormal predicted normal.
    pub fn_: u64,
    /// Normal predicted normal.
    pub tn: u64,
}

impl ConfusionMatrix {
    /// Empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (truth, prediction) pair.
    pub fn record(&mut self, truth: FlowStatus, predicted: FlowStatus) {
        match (truth, predicted) {
            (FlowStatus::Abnormal, FlowStatus::Abnormal) => self.tp += 1,
            (FlowStatus::Normal, FlowStatus::Abnormal) => self.fp += 1,
            (FlowStatus::Abnormal, FlowStatus::Normal) => self.fn_ += 1,
            (FlowStatus::Normal, FlowStatus::Normal) => self.tn += 1,
        }
    }

    /// Evaluate a classifier function over labeled samples.
    pub fn evaluate<'a, I, F>(samples: I, mut classify: F) -> Self
    where
        I: IntoIterator<Item = (&'a db_flowmon::FeatureVector, FlowStatus)>,
        F: FnMut(&db_flowmon::FeatureVector) -> FlowStatus,
    {
        let mut cm = Self::new();
        for (x, truth) in samples {
            cm.record(truth, classify(x));
        }
        cm
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Recall of the abnormal class: `tp / (tp + fn)`; 1.0 when no abnormal
    /// samples exist.
    pub fn recall_abnormal(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Recall of the normal class: `tn / (tn + fp)`; 1.0 when no normal
    /// samples exist.
    pub fn recall_normal(&self) -> f64 {
        ratio(self.tn, self.tn + self.fp)
    }

    /// Overall accuracy; 1.0 on an empty matrix.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut cm = ConfusionMatrix::new();
        // 3 TP, 1 FP, 1 FN, 5 TN.
        for _ in 0..3 {
            cm.record(FlowStatus::Abnormal, FlowStatus::Abnormal);
        }
        cm.record(FlowStatus::Normal, FlowStatus::Abnormal);
        cm.record(FlowStatus::Abnormal, FlowStatus::Normal);
        for _ in 0..5 {
            cm.record(FlowStatus::Normal, FlowStatus::Normal);
        }
        assert_eq!(cm.total(), 10);
        assert!((cm.recall_abnormal() - 0.75).abs() < 1e-12);
        assert!((cm.recall_normal() - 5.0 / 6.0).abs() < 1e-12);
        assert!((cm.accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_degenerates_to_one() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.recall_abnormal(), 1.0);
        assert_eq!(cm.recall_normal(), 1.0);
        assert_eq!(cm.accuracy(), 1.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix {
            tp: 1,
            fp: 2,
            fn_: 3,
            tn: 4,
        };
        let b = ConfusionMatrix {
            tp: 10,
            fp: 20,
            fn_: 30,
            tn: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ConfusionMatrix {
                tp: 11,
                fp: 22,
                fn_: 33,
                tn: 44
            }
        );
    }

    #[test]
    fn evaluate_with_closure() {
        let x0 = [0.0; db_flowmon::NUM_FEATURES];
        let mut x1 = [0.0; db_flowmon::NUM_FEATURES];
        x1[9] = 5.0;
        let samples = [(&x0, FlowStatus::Abnormal), (&x1, FlowStatus::Normal)];
        let cm = ConfusionMatrix::evaluate(samples, |x| {
            if x[9] == 0.0 {
                FlowStatus::Abnormal
            } else {
                FlowStatus::Normal
            }
        });
        assert_eq!(cm.tp, 1);
        assert_eq!(cm.tn, 1);
        assert_eq!(cm.accuracy(), 1.0);
    }
}
