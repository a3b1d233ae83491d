//! The threshold-based warning mechanism — equation (1) of §4.3.
//!
//! A drifted inference raises a warning iff
//!
//! ```text
//! hop_now >= hop_min
//! w0 >= alpha * hop_now
//! w0 >= beta * w1
//! ```
//!
//! `hop_now` is how many switches have aggregated into the inference; `w0`
//! and `w1` the two highest weights. "Drift-Bottle will not raise a warning
//! unless the drifted inference has aggregated local inferences from at
//! least hop_min switches, and at least α abnormal flows are detected by
//! each switch on average." β is chosen from the Fig.-11 CDF gap.

use crate::inference::Inference;
use crate::inline::InlineInference;
use db_topology::LinkId;

/// Warning thresholds. Operators trade sensitivity against false positives
/// here (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarningConfig {
    /// Minimum number of aggregations before a warning may fire.
    pub hop_min: u32,
    /// Minimum average accusation strength per aggregating switch.
    pub alpha: f64,
    /// Minimum dominance of the top link over the runner-up.
    pub beta: f64,
}

impl Default for WarningConfig {
    fn default() -> Self {
        // Defaults sized for the evaluated topologies (tens of switches,
        // hundreds of flows): a culprit link accumulates tens of abnormal
        // votes within a window, while classifier noise on an innocent link
        // rarely sustains two abnormal flows per aggregating switch.
        WarningConfig {
            hop_min: 4,
            alpha: 2.0,
            beta: 2.0,
        }
    }
}

/// Which clause of equation (1) decided a warning check, in the order the
/// clauses are tried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eq1Outcome {
    /// `w0 ≤ 0` — the inference accuses nothing (or only exonerates).
    NonPositiveW0,
    /// `hop_now < hop_min` — not enough switches aggregated yet.
    HopMin,
    /// `w0 < α·hop_now` — accusation too weak for the hop count.
    Alpha,
    /// `w1 > 0 ∧ w0 < β·w1` — the runner-up is too close.
    Beta,
    /// All three clauses held: the warning fires.
    Fires,
}

/// Equation (1) on an inference's two highest weights: the first clause
/// that fails, or [`Eq1Outcome::Fires`]. An inference whose top weight is
/// not positive never warns; `w1` may be negative or absent (0), and
/// dominance over a non-positive runner-up is automatic for positive `w0`.
pub fn eq1(w0: f64, w1: f64, hop_now: u32, cfg: &WarningConfig) -> Eq1Outcome {
    if w0 <= 0.0 {
        Eq1Outcome::NonPositiveW0
    } else if hop_now < cfg.hop_min {
        Eq1Outcome::HopMin
    } else if w0 < cfg.alpha * hop_now as f64 {
        Eq1Outcome::Alpha
    } else if w1 > 0.0 && w0 < cfg.beta * w1 {
        Eq1Outcome::Beta
    } else {
        Eq1Outcome::Fires
    }
}

/// Evaluate equation (1); returns the accused link when all three conditions
/// hold.
pub fn check_warning(inf: &Inference, hop_now: u32, cfg: &WarningConfig) -> Option<LinkId> {
    match eq1(inf.w0(), inf.w1(), hop_now, cfg) {
        Eq1Outcome::Fires => inf.top_link(),
        _ => None,
    }
}

/// [`check_warning`] on the inline representation, whose entries are
/// already canonically ordered: `w0`/`w1`/`top_link` are direct array reads.
pub fn check_warning_inline(
    inf: &InlineInference,
    hop_now: u32,
    cfg: &WarningConfig,
) -> Option<LinkId> {
    match eq1(inf.w0(), inf.w1(), hop_now, cfg) {
        Eq1Outcome::Fires => inf.top_link(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    fn cfg() -> WarningConfig {
        WarningConfig {
            hop_min: 3,
            alpha: 1.0,
            beta: 2.0,
        }
    }

    /// Each clause of eq. (1) exactly at its boundary and just past it,
    /// under `hop_min` 3, α 1, β 2.
    #[test]
    fn each_clause_decides_at_its_boundary() {
        use Eq1Outcome::*;
        let below = |x: f64| x.next_down();
        let cases = [
            // w0 ≤ 0 blocks at 0; the least positive w0 passes to α.
            (0.0, 0.0, 10, NonPositiveW0),
            (f64::MIN_POSITIVE, 0.0, 10, Alpha),
            // hop_min − 1 blocks; hop_min passes.
            (10.0, 0.0, 2, HopMin),
            (10.0, 0.0, 3, Fires),
            // w0 = α·hop passes; just below it blocks.
            (4.0, 0.0, 4, Fires),
            (below(4.0), 0.0, 4, Alpha),
            // w0 = β·w1 with w1 > 0 passes; just below it blocks.
            (12.0, 6.0, 4, Fires),
            (below(12.0), 6.0, 4, Beta),
            // A runner-up that is not positive never blocks.
            (4.0, -8.0, 4, Fires),
        ];
        for (w0, w1, hop, want) in cases {
            assert_eq!(eq1(w0, w1, hop, &cfg()), want, "({w0}, {w1}, {hop})");
        }
    }

    #[test]
    fn fires_when_all_conditions_hold() {
        let inf = Inference::from_pairs([(l(7), 10.0), (l(1), 3.0)]);
        assert_eq!(check_warning(&inf, 4, &cfg()), Some(l(7)));
    }

    #[test]
    fn respects_hop_min() {
        let inf = Inference::from_pairs([(l(7), 10.0)]);
        assert_eq!(check_warning(&inf, 2, &cfg()), None);
        assert_eq!(check_warning(&inf, 3, &cfg()), Some(l(7)));
    }

    #[test]
    fn respects_alpha() {
        // w0 = 3 with hop_now = 4 < alpha*hop = 4 → no warning.
        let inf = Inference::from_pairs([(l(7), 3.0)]);
        assert_eq!(check_warning(&inf, 4, &cfg()), None);
        assert_eq!(check_warning(&inf, 3, &cfg()), Some(l(7)));
    }

    #[test]
    fn respects_beta_dominance() {
        let close = Inference::from_pairs([(l(7), 10.0), (l(1), 6.0)]);
        assert_eq!(check_warning(&close, 4, &cfg()), None, "10 < 2·6");
        let dominant = Inference::from_pairs([(l(7), 12.0), (l(1), 6.0)]);
        assert_eq!(check_warning(&dominant, 4, &cfg()), Some(l(7)));
    }

    #[test]
    fn negative_runner_up_does_not_block() {
        let inf = Inference::from_pairs([(l(7), 4.0), (l(1), -8.0)]);
        assert_eq!(check_warning(&inf, 4, &cfg()), Some(l(7)));
    }

    #[test]
    fn non_positive_top_never_warns() {
        let inf = Inference::from_pairs([(l(7), -1.0), (l(1), -5.0)]);
        assert_eq!(check_warning(&inf, 10, &cfg()), None);
        assert_eq!(check_warning(&Inference::empty(), 10, &cfg()), None);
    }

    #[test]
    fn sensitivity_tradeoff() {
        // Lower thresholds → more sensitive (the operator knob of §4.3).
        let inf = Inference::from_pairs([(l(7), 2.0), (l(1), 1.5)]);
        let strict = cfg();
        assert_eq!(check_warning(&inf, 3, &strict), None);
        let lax = WarningConfig {
            hop_min: 1,
            alpha: 0.5,
            beta: 1.1,
        };
        assert_eq!(check_warning(&inf, 3, &lax), Some(l(7)));
    }
}
