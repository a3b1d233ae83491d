//! Descriptive statistics.
//!
//! Used for the topology statistics of Table 3 (link-latency variance, degree
//! variance and skewness), the 90th-percentile RTT that sets the sliding
//! window length (§4.1), and summaries in the evaluation harness.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divide by `n`); 0.0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population skewness (Fisher-Pearson, `m3 / m2^(3/2)`); 0.0 when undefined.
pub fn skewness(xs: &[f64]) -> f64 {
    if xs.len() < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let n = xs.len() as f64;
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    if m2 <= 0.0 {
        return 0.0;
    }
    m3 / m2.powf(1.5)
}

/// Percentile in `[0, 100]` by linear interpolation between closest ranks.
/// Panics if `xs` is empty or `p` is out of range.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be within [0, 100]"
    );
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Minimum; `None` for an empty slice or NaN-containing input.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .try_fold(f64::INFINITY, |acc, x| {
            if x.is_nan() {
                None
            } else {
                Some(acc.min(x))
            }
        })
        .filter(|_| !xs.is_empty())
}

/// Maximum; `None` for an empty slice or NaN-containing input.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .try_fold(f64::NEG_INFINITY, |acc, x| {
            if x.is_nan() {
                None
            } else {
                Some(acc.max(x))
            }
        })
        .filter(|_| !xs.is_empty())
}

/// Empirical CDF points `(value, fraction ≤ value)` for plotting (Fig. 11).
///
/// The returned vector is sorted by value and has one point per sample.
pub fn ecdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("ecdf: NaN in input"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Evaluate an ECDF (as returned by [`ecdf`]) at `x`: fraction of samples ≤ x.
pub fn ecdf_at(cdf: &[(f64, f64)], x: f64) -> f64 {
    match cdf.binary_search_by(|(v, _)| v.partial_cmp(&x).expect("ecdf_at: NaN")) {
        Ok(mut i) => {
            // Step to the last equal value so ties are all counted.
            while i + 1 < cdf.len() && cdf[i + 1].0 == x {
                i += 1;
            }
            cdf[i].1
        }
        Err(0) => 0.0,
        Err(i) => cdf[i - 1].1,
    }
}

/// Running summary accumulator (count / mean / min / max) for streams too
/// large to buffer.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance; 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        (self.sum_sq / n - (self.sum / n).powi(2)).max(0.0)
    }

    /// Minimum observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(skewness(&[1.0, 2.0]), 0.0);
        assert!(min(&[]).is_none());
        assert!(max(&[]).is_none());
    }

    #[test]
    fn skewness_sign() {
        // Right-tailed data has positive skewness.
        let right = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 10.0];
        assert!(skewness(&right) > 1.0);
        // Symmetric data has (near) zero skewness.
        let sym = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&sym).abs() < 1e-12);
        // Left-tailed data has negative skewness.
        let left: Vec<f64> = right.iter().map(|x| -x).collect();
        assert!(skewness(&left) < -1.0);
    }

    #[test]
    fn skewness_constant_input() {
        assert_eq!(skewness(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        assert!((percentile(&xs, 90.0) - 37.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_order_free() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 50.0), 25.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn minmax() {
        let xs = [3.0, -1.0, 7.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(7.0));
    }

    #[test]
    fn ecdf_monotone_and_normalized() {
        let xs = [5.0, 1.0, 3.0, 3.0];
        let cdf = ecdf(&xs);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(ecdf_at(&cdf, 0.0), 0.0);
        assert_eq!(ecdf_at(&cdf, 3.0), 0.75);
        assert_eq!(ecdf_at(&cdf, 4.0), 0.75);
        assert_eq!(ecdf_at(&cdf, 100.0), 1.0);
    }

    #[test]
    fn summary_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - mean(&xs)).abs() < 1e-12);
        assert!((s.variance() - variance(&xs)).abs() < 1e-9);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.min().is_none());
    }
}
