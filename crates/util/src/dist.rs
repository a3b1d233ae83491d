//! Inverse-CDF samplers for the distributions used by the traffic model.
//!
//! The paper's workload generator (§6.1) requires:
//!
//! * **Exponential** inter-arrival times — the Poisson burst-arrival process of
//!   the PPBP model \[32\].
//! * **Pareto** burst durations — the heavy tail that makes aggregate PPBP
//!   traffic self-similar.
//! * **Bounded Pareto** flow volumes — "the total bytes transmitted by the
//!   generated flows obey long-tailed distribution".
//!
//! All samplers draw from a [`Pcg64`] so the whole workload is reproducible.

use crate::rng::Pcg64;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Create an exponential distribution. Panics unless `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "Exp: lambda must be positive"
        );
        Exp { lambda }
    }

    /// Rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Sample via inverse CDF: `-ln(U)/lambda`.
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        -rng.f64_open().ln() / self.lambda
    }
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`.
///
/// PPBP uses `1 < alpha < 2`, which yields finite mean but infinite variance —
/// the regime that produces long-range-dependent aggregate traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Create a Pareto distribution. Panics unless both parameters are positive.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(
            x_min > 0.0 && x_min.is_finite(),
            "Pareto: x_min must be positive"
        );
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "Pareto: alpha must be positive"
        );
        Pareto { x_min, alpha }
    }

    /// Theoretical mean; `None` when `alpha <= 1` (infinite mean).
    pub fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.x_min / (self.alpha - 1.0))
    }

    /// Sample via inverse CDF: `x_min * U^(-1/alpha)`.
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        self.x_min * rng.f64_open().powf(-1.0 / self.alpha)
    }
}

/// Pareto truncated to `[x_min, x_max]` — long-tailed flow sizes with a cap so
/// a single flow cannot dominate a finite simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    x_min: f64,
    x_max: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Create a bounded Pareto distribution. Panics unless
    /// `0 < x_min < x_max` and `alpha > 0`.
    pub fn new(x_min: f64, x_max: f64, alpha: f64) -> Self {
        assert!(
            x_min > 0.0 && x_min < x_max,
            "BoundedPareto: need 0 < x_min < x_max"
        );
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "BoundedPareto: alpha must be positive"
        );
        BoundedPareto {
            x_min,
            x_max,
            alpha,
        }
    }

    /// Inverse-CDF sample, always within `[x_min, x_max]`.
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        let u = rng.f64();
        let l = self.x_min.powf(self.alpha);
        let h = self.x_max.powf(self.alpha);
        // Inverse CDF of the truncated Pareto.
        (-(u * h - u * l - h) / (h * l)).powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(mut f: impl FnMut(&mut Pcg64) -> f64, n: usize, seed: u64) -> f64 {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| f(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exp::new(4.0);
        let m = mean_of(|r| d.sample(r), 200_000, 1);
        assert!((m - 0.25).abs() < 0.01, "mean was {m}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exp::new(0.001);
        let mut rng = Pcg64::new(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn exponential_rejects_zero_rate() {
        Exp::new(0.0);
    }

    #[test]
    fn pareto_respects_minimum() {
        let d = Pareto::new(3.0, 1.4);
        let mut rng = Pcg64::new(3);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 3.0);
        }
    }

    #[test]
    fn pareto_mean_matches_when_finite() {
        let d = Pareto::new(1.0, 2.5);
        let expect = d.mean().unwrap();
        let m = mean_of(|r| d.sample(r), 400_000, 4);
        assert!(
            (m - expect).abs() / expect < 0.05,
            "mean was {m}, expected {expect}"
        );
    }

    #[test]
    fn pareto_heavy_tail_has_no_mean() {
        assert!(Pareto::new(1.0, 0.9).mean().is_none());
        assert!(Pareto::new(1.0, 1.0).mean().is_none());
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(100.0, 1_000_000.0, 1.2);
        let mut rng = Pcg64::new(5);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!(
                (100.0..=1_000_000.0).contains(&x),
                "sample {x} out of bounds"
            );
        }
    }

    #[test]
    fn bounded_pareto_is_long_tailed() {
        // Median should sit far below the mean for a heavy-tailed law.
        let d = BoundedPareto::new(1.0, 1e6, 1.1);
        let mut rng = Pcg64::new(6);
        let mut xs: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean > 3.0 * median, "mean {mean} vs median {median}");
    }
}
