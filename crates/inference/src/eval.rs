//! Localization metrics (§6.2) and the report window they score.
//!
//! "Drift-Bottle regards a link as the basic failure unit. Thus, we
//! calculate precision as the ratio of correctly reported links among the
//! warnings, and recall as the ratio of correctly reported links among
//! actually failed links. F1 is the harmonic average ... accuracy as the
//! ratio of correctly classified links among all links, and FPR as the
//! ratio of incorrectly accused links among innocent links."
//!
//! The live run (`core::experiment`) and the offline flight-recording
//! report ([`crate::provenance::quality_report`]) both score through here.

use db_topology::LinkId;
use std::collections::BTreeSet;

/// Whether a warning raised at `at` counts as a *report*: it lands in the
/// collection window `(from, to]` (§6.2: "we collect links reported within
/// a sliding window after the occurrence of failures").
pub fn in_report_window<T: PartialOrd>(at: T, (from, to): (T, T)) -> bool {
    from < at && at <= to
}

/// Link-level localization quality of one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalizationMetrics {
    /// Correct reports / all reports (1.0 when nothing reported).
    pub precision: f64,
    /// Correct reports / actual failures (1.0 when nothing failed).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Correctly classified links / all links.
    pub accuracy: f64,
    /// Incorrectly accused links / innocent links.
    pub fpr: f64,
    /// Number of reported links.
    pub reported: usize,
    /// Number of actually failed links.
    pub actual: usize,
    /// Number of correctly reported links.
    pub correct: usize,
}

impl LocalizationMetrics {
    /// Compare a reported link set against the ground truth over a network
    /// of `total_links` links. Panics when `total_links` cannot hold either
    /// set: a live run knows its topology, so that is a caller bug.
    pub fn compute(
        reported: impl IntoIterator<Item = LinkId>,
        actual: impl IntoIterator<Item = LinkId>,
        total_links: usize,
    ) -> Self {
        let reported: BTreeSet<LinkId> = reported.into_iter().collect();
        let actual: BTreeSet<LinkId> = actual.into_iter().collect();
        assert!(
            total_links >= actual.len() && total_links >= reported.len(),
            "total link count too small for the given sets"
        );
        Self::score(&reported, &actual, total_links)
    }

    /// The §6.2 formulas over deduplicated link sets. Never panics: counts
    /// that do not fit `total_links` (a recording read from a file may
    /// claim anything) saturate at zero, so every field stays finite.
    pub fn score<T: Ord>(reported: &BTreeSet<T>, actual: &BTreeSet<T>, total_links: usize) -> Self {
        let correct = reported.intersection(actual).count();
        let fp = reported.len() - correct;
        let innocent = total_links.saturating_sub(actual.len());
        let tn = innocent.saturating_sub(fp);
        let ratio = |num: usize, den: usize, empty: f64| {
            if den == 0 {
                empty
            } else {
                num as f64 / den as f64
            }
        };
        let precision = ratio(correct, reported.len(), 1.0);
        let recall = ratio(correct, actual.len(), 1.0);
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        LocalizationMetrics {
            precision,
            recall,
            f1,
            accuracy: ratio(correct + tn, total_links, 1.0),
            fpr: ratio(fp, innocent, 0.0),
            reported: reported.len(),
            actual: actual.len(),
            correct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn paper_worked_example() {
        // §6.2: "in a scenario with 4 failures among 10 links, if a system
        // reports 5 accused links and 3 of them are correct, its precision,
        // recall, accuracy and FPR would be 60%, 75%, 70% and 33.3%".
        let reported = [l(0), l(1), l(2), l(8), l(9)];
        let actual = [l(0), l(1), l(2), l(3)];
        let m = LocalizationMetrics::compute(reported, actual, 10);
        assert!((m.precision - 0.60).abs() < 1e-12);
        assert!((m.recall - 0.75).abs() < 1e-12);
        assert!((m.accuracy - 0.70).abs() < 1e-12);
        assert!((m.fpr - 2.0 / 6.0).abs() < 1e-12);
        let f1 = 2.0 * 0.6 * 0.75 / 1.35;
        assert!((m.f1 - f1).abs() < 1e-12);
        assert_eq!((m.reported, m.actual, m.correct), (5, 4, 3));
    }

    #[test]
    fn perfect_localization() {
        let m = LocalizationMetrics::compute([l(3)], [l(3)], 61);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.fpr, 0.0);
    }

    #[test]
    fn silence_on_failure_is_zero_recall() {
        let m = LocalizationMetrics::compute([], [l(3)], 61);
        assert_eq!(m.precision, 1.0, "vacuous precision");
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
        assert!((m.accuracy - 60.0 / 61.0).abs() < 1e-12);
        assert_eq!(m.fpr, 0.0);
    }

    #[test]
    fn false_alarm_on_healthy_network() {
        let m = LocalizationMetrics::compute([l(5)], [], 61);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 1.0, "vacuous recall");
        assert!((m.fpr - 1.0 / 61.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_reports_count_once() {
        let m = LocalizationMetrics::compute([l(1), l(1), l(1)], [l(1)], 10);
        assert_eq!(m.reported, 1);
        assert_eq!(m.precision, 1.0);
    }

    #[test]
    #[should_panic(expected = "total link count too small")]
    fn inconsistent_totals_rejected() {
        LocalizationMetrics::compute([l(1), l(2)], [], 1);
    }

    /// A total too small for the sets saturates through `score` instead.
    #[test]
    fn score_saturates_on_inconsistent_totals() {
        let reported: BTreeSet<u16> = [7, 9].into();
        let actual: BTreeSet<u16> = [5].into();
        let m = LocalizationMetrics::score(&reported, &actual, 2);
        assert_eq!((m.precision, m.recall, m.accuracy), (0.0, 0.0, 0.0));
        assert_eq!(m.fpr, 2.0);
        let empty = LocalizationMetrics::score(&reported, &actual, 0);
        assert_eq!((empty.accuracy, empty.fpr), (1.0, 0.0));
    }

    #[test]
    fn report_window_is_open_below_and_closed_above() {
        assert!(!in_report_window(100u64, (100, 200)));
        assert!(in_report_window(101u64, (100, 200)));
        assert!(in_report_window(200u64, (100, 200)));
        assert!(!in_report_window(201u64, (100, 200)));
    }
}
