//! The common classifier interface and the naive threshold baseline.
//!
//! §2.2: "The most straightforward way to detect anomalies ... is to adopt a
//! threshold-based method. However, it is hard for such approach to
//! distinguish the subtle difference between changes caused by potential
//! failures and by normal events like the end of transmission." The
//! [`ThresholdClassifier`] implements exactly that strawman so experiments
//! can quantify the gap to the decision tree.

use crate::mat::TableClassifier;
use crate::tree::DecisionTree;
use db_flowmon::{FeatureVector, FlowStatus};

/// Anything that can judge a flow's status from a feature vector. A
/// deployed system shares one classifier across the thread groups that
/// close a window, so it is `Sync`.
pub trait FlowClassifier: Sync {
    /// Classify one monitoring window of one flow.
    fn classify(&self, x: &FeatureVector) -> FlowStatus;
}

impl FlowClassifier for DecisionTree {
    fn classify(&self, x: &FeatureVector) -> FlowStatus {
        self.predict(x)
    }
}

impl FlowClassifier for TableClassifier {
    fn classify(&self, x: &FeatureVector) -> FlowStatus {
        TableClassifier::classify(self, x)
    }
}

impl<C: FlowClassifier + ?Sized> FlowClassifier for Box<C> {
    fn classify(&self, x: &FeatureVector) -> FlowStatus {
        (**self).classify(x)
    }
}

/// The naive baseline: abnormal iff the last interval is silent while the
/// RTT-average activity exceeds a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdClassifier {
    /// Minimum average packets/interval over the last RTT to consider the
    /// flow "was active".
    pub min_avg_packets: f64,
    /// Maximum packets in the last interval to consider it "silent".
    pub max_last_packets: f64,
}

impl Default for ThresholdClassifier {
    fn default() -> Self {
        // The average is taken over the last RTT's intervals, so right after
        // a failure it decays toward zero — the activity floor must sit well
        // below one packet/interval or short-RTT flows are never flagged.
        ThresholdClassifier {
            min_avg_packets: 0.5,
            max_last_packets: 0.0,
        }
    }
}

impl FlowClassifier for ThresholdClassifier {
    fn classify(&self, x: &FeatureVector) -> FlowStatus {
        // Feature indices: 3 = avg_n_packet, 9 = last_n_packet.
        if x[3] >= self.min_avg_packets && x[9] <= self.max_last_packets {
            FlowStatus::Abnormal
        } else {
            FlowStatus::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_flowmon::NUM_FEATURES;

    fn x(avg: f64, last: f64) -> FeatureVector {
        let mut v = [0.0; NUM_FEATURES];
        v[3] = avg;
        v[9] = last;
        v
    }

    #[test]
    fn threshold_logic() {
        let c = ThresholdClassifier::default();
        assert_eq!(c.classify(&x(5.0, 0.0)), FlowStatus::Abnormal);
        assert_eq!(c.classify(&x(5.0, 2.0)), FlowStatus::Normal);
        assert_eq!(c.classify(&x(0.2, 0.0)), FlowStatus::Normal);
    }

    #[test]
    fn threshold_cannot_spot_transmission_end() {
        // A flow that just finished: was active, now silent — the threshold
        // baseline falsely accuses it. This is the §2.2 weakness by design.
        let c = ThresholdClassifier::default();
        let finished_flow = x(8.0, 0.0);
        assert_eq!(c.classify(&finished_flow), FlowStatus::Abnormal);
    }

    #[test]
    fn boxed_classifier_dispatches() {
        let c: Box<dyn FlowClassifier> = Box::new(ThresholdClassifier::default());
        assert_eq!(c.classify(&x(5.0, 0.0)), FlowStatus::Abnormal);
    }
}
