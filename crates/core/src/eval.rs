//! Scoring a sweep: the §6.2 metrics of one scenario come from
//! [`db_inference::eval`]; [`MetricsAccum`] macro-averages them over
//! scenarios.

pub use db_inference::eval::LocalizationMetrics;

/// Macro-averaging accumulator over scenarios.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccum {
    n: u64,
    precision: f64,
    recall: f64,
    f1: f64,
    accuracy: f64,
    fpr: f64,
}

impl MetricsAccum {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one scenario's metrics.
    pub fn add(&mut self, m: &LocalizationMetrics) {
        self.n += 1;
        self.precision += m.precision;
        self.recall += m.recall;
        self.f1 += m.f1;
        self.accuracy += m.accuracy;
        self.fpr += m.fpr;
    }

    /// Number of scenarios accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Scenario-averaged metrics. Panics when empty.
    pub fn mean(&self) -> LocalizationMetrics {
        assert!(self.n > 0, "no scenarios accumulated");
        let inv = 1.0 / self.n as f64;
        LocalizationMetrics {
            precision: self.precision * inv,
            recall: self.recall * inv,
            f1: self.f1 * inv,
            accuracy: self.accuracy * inv,
            fpr: self.fpr * inv,
            reported: 0,
            actual: 0,
            correct: 0,
        }
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &MetricsAccum) {
        self.n += other.n;
        self.precision += other.precision;
        self.recall += other.recall;
        self.f1 += other.f1;
        self.accuracy += other.accuracy;
        self.fpr += other.fpr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_topology::LinkId;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn accumulator_averages() {
        let mut acc = MetricsAccum::new();
        acc.add(&LocalizationMetrics::compute([l(1)], [l(1)], 10));
        acc.add(&LocalizationMetrics::compute([], [l(1)], 10));
        let mean = acc.mean();
        assert_eq!(acc.count(), 2);
        assert!((mean.recall - 0.5).abs() < 1e-12);
        assert!((mean.precision - 1.0).abs() < 1e-12);

        let mut other = MetricsAccum::new();
        other.add(&LocalizationMetrics::compute([l(1)], [l(1)], 10));
        acc.merge(&other);
        assert_eq!(acc.count(), 3);
        assert!((acc.mean().recall - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no scenarios")]
    fn empty_mean_panics() {
        MetricsAccum::new().mean();
    }
}
