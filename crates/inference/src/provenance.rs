//! Provenance analysis: reconstruct *why* a link was (or wasn't) localized
//! from a flight [`Recording`].
//!
//! The flight recorder (`db_telemetry::flight`) captures the causal chain —
//! classifications, votes, ⊕ merges with truncation losses, warnings,
//! packet drops — as it happens. This module is the offline half: it walks
//! a recording and answers the debugging questions `drift-bottle explain`
//! exposes:
//!
//! * which flows voted on a link, and with what weight;
//! * where the link's weight was truncated away in transit;
//! * at which hop/window the first warning fired — or, when none did,
//!   which of equation (1)'s three terms blocked it;
//! * how the run scored overall (precision/recall against the recorded
//!   ground truth, time-to-first-warning, truncation-loss rate).
//!
//! The report scores through [`crate::eval`], the same §6.2 scorer and
//! report window the live run uses.

use crate::eval::{in_report_window, LocalizationMetrics};
use crate::warning::{eq1, Eq1Outcome, WarningConfig};
use db_telemetry::flight::{FlightRecord, Recording};
use db_telemetry::window_of;
use db_topology::LinkId;
use std::collections::BTreeSet;

/// FNV-1a 64 digest of an inference multiset in canonical entry order:
/// for each entry, the link id as a big-endian `u16` followed by the
/// weight's IEEE-754 bits big-endian. Equal digests ⇔ bit-identical
/// inference content. The sentinel `0` is reserved by convention for "no
/// inference" (an ingress hop with nothing drifted in); the digest of the
/// *empty* multiset is the FNV basis, which is nonzero, so the two cannot
/// collide.
pub fn inference_digest(entries: &[(LinkId, f64)]) -> u64 {
    let mut bytes = Vec::with_capacity(entries.len() * 10);
    for (link, w) in entries {
        bytes.extend_from_slice(&link.0.to_be_bytes());
        bytes.extend_from_slice(&w.to_bits().to_be_bytes());
    }
    db_util::wire::fnv1a64(&bytes)
}

/// Digest sentinel for "no drifted inference arrived" (ingress hop).
pub const NO_INFERENCE_DIGEST: u64 = 0;

/// The run header of a recording, decoded into plain fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Failure injection time (ns).
    pub t_fail_ns: u64,
    /// Warning collection window `(from, to]` in ns — a warning counts as a
    /// *report* iff [`in_report_window`], as in the live run.
    pub window_ns: (u64, u64),
    /// Sampling interval (ns).
    pub interval_ns: u64,
    /// Total links in the topology.
    pub total_links: u32,
    /// Inference length k.
    pub k: u32,
    /// Warning thresholds the run used.
    pub warning: WarningConfig,
    /// Ground-truth failed links.
    pub ground_truth: Vec<u16>,
}

impl RunInfo {
    /// Extract the run header, if the ring still holds it (a recorder that
    /// wrapped far enough may have evicted it).
    pub fn from_recording(rec: &Recording) -> Option<RunInfo> {
        rec.records.iter().find_map(|r| match r {
            FlightRecord::RunMeta {
                t_fail_ns,
                window_from_ns,
                window_to_ns,
                interval_ns,
                total_links,
                k,
                hop_min,
                alpha,
                beta,
                ground_truth,
            } => Some(RunInfo {
                t_fail_ns: *t_fail_ns,
                window_ns: (*window_from_ns, *window_to_ns),
                interval_ns: *interval_ns,
                total_links: *total_links,
                k: *k,
                warning: WarningConfig {
                    hop_min: *hop_min,
                    alpha: *alpha,
                    beta: *beta,
                },
                ground_truth: ground_truth.clone(),
            }),
            _ => None,
        })
    }

    /// Whether a warning raised at `at_ns` lands inside the collection
    /// window (the condition for it to count as a report).
    pub fn in_window(&self, at_ns: u64) -> bool {
        in_report_window(at_ns, self.window_ns)
    }

    /// Sampling-window index of a timestamp (completed intervals).
    pub fn window_index(&self, at_ns: u64) -> u32 {
        window_of(at_ns, self.interval_ns) as u32
    }
}

/// One recorded ±1 vote on a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vote {
    /// Vote time (ns).
    pub at_ns: u64,
    /// Voting switch.
    pub switch: u16,
    /// Sampling-window index at the vote.
    pub window: u32,
    /// The flow whose classification produced the vote.
    pub flow: u32,
    /// Weight contribution.
    pub delta: f64,
}

/// One ⊕ step that truncated the explained link's weight away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationDrop {
    /// Merge time (ns).
    pub at_ns: u64,
    /// The switch whose top-k cut dropped the link.
    pub switch: u16,
    /// The carrying flow.
    pub flow: u32,
    /// Aggregation count after the merge.
    pub hop_now: u8,
}

/// A warning on the explained link, as seen by the recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarningView {
    /// Raise time (ns).
    pub at_ns: u64,
    /// Raising switch.
    pub switch: u16,
    /// Aggregation count at the raise.
    pub hop_now: u8,
    /// Top weight.
    pub w0: f64,
    /// Runner-up weight.
    pub w1: f64,
    /// Whether the raise lands in the collection window (needs [`RunInfo`]).
    pub in_window: Option<bool>,
    /// Sampling-window index of the raise (needs [`RunInfo`]).
    pub window_index: Option<u32>,
}

/// Tally of equation-(1) outcomes over the merges where the explained link
/// was the top accusation — the "which term blocked it" answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockedTally {
    /// Checks failing `w0 > 0`.
    pub non_positive_w0: usize,
    /// Checks failing `hop_now ≥ hop_min`.
    pub hop_min: usize,
    /// Checks failing `w0 ≥ α·hop_now`.
    pub alpha: usize,
    /// Checks failing `w0 ≥ β·w1`.
    pub beta: usize,
    /// Checks where all three clauses held.
    pub fires: usize,
}

impl BlockedTally {
    fn add(&mut self, o: Eq1Outcome) {
        match o {
            Eq1Outcome::NonPositiveW0 => self.non_positive_w0 += 1,
            Eq1Outcome::HopMin => self.hop_min += 1,
            Eq1Outcome::Alpha => self.alpha += 1,
            Eq1Outcome::Beta => self.beta += 1,
            Eq1Outcome::Fires => self.fires += 1,
        }
    }
}

/// Everything the recording says about one link — the core of
/// `drift-bottle explain <link>`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkExplanation {
    /// The explained link.
    pub link: u16,
    /// Whether the link actually failed (`None` without a run header).
    pub ground_truth: Option<bool>,
    /// Every recorded vote on the link, oldest first.
    pub votes: Vec<Vote>,
    /// Sum of vote deltas.
    pub vote_total: f64,
    /// Votes accusing (`delta > 0`).
    pub votes_for: usize,
    /// Votes exonerating (`delta < 0`).
    pub votes_against: usize,
    /// Distinct flows that voted.
    pub voting_flows: usize,
    /// Distinct switches that voted.
    pub voting_switches: usize,
    /// ⊕ steps whose top-k cut discarded this link's weight.
    pub truncation_drops: Vec<TruncationDrop>,
    /// ⊕ steps where this link was the top accusation.
    pub merges_as_top: usize,
    /// Equation-(1) outcomes over those top-accusation merges (`None`
    /// without a run header to supply the thresholds).
    pub blocked: Option<BlockedTally>,
    /// All warnings raised on the link, oldest first.
    pub warnings: Vec<WarningView>,
    /// The first warning inside the collection window, when scoreable.
    pub first_warning_in_window: Option<WarningView>,
    /// Packets the simulator dropped on this link, by
    /// [`db_telemetry::flight::DropKind`] discriminant (down/corrupt/queue).
    pub packet_drops: [usize; 3],
}

impl LinkExplanation {
    /// Whether the link was *reported* (≥ 1 in-window warning) per the
    /// `WarningLog` rule. `None` without a run header.
    pub fn reported(&self) -> Option<bool> {
        if self.warnings.is_empty() {
            // No warnings at all: not reported, header or not.
            return Some(false);
        }
        // With warnings present we need the window to classify them.
        self.warnings
            .iter()
            .map(|w| w.in_window)
            .try_fold(false, |acc, iw| iw.map(|b| acc || b))
    }
}

/// Walk `rec` and assemble the causal chain for `link`.
pub fn explain_link(rec: &Recording, link: u16) -> LinkExplanation {
    let info = RunInfo::from_recording(rec);
    let mut out = LinkExplanation {
        link,
        ground_truth: info.as_ref().map(|i| i.ground_truth.contains(&link)),
        votes: Vec::new(),
        vote_total: 0.0,
        votes_for: 0,
        votes_against: 0,
        voting_flows: 0,
        voting_switches: 0,
        truncation_drops: Vec::new(),
        merges_as_top: 0,
        blocked: info.as_ref().map(|_| BlockedTally::default()),
        warnings: Vec::new(),
        first_warning_in_window: None,
        packet_drops: [0; 3],
    };
    let mut flows = BTreeSet::new();
    let mut switches = BTreeSet::new();
    for r in &rec.records {
        match r {
            FlightRecord::LocalVote {
                at_ns,
                switch,
                window,
                flow,
                link: l,
                delta,
            } if *l == link => {
                out.votes.push(Vote {
                    at_ns: *at_ns,
                    switch: *switch,
                    window: *window,
                    flow: *flow,
                    delta: *delta,
                });
                out.vote_total += delta;
                if *delta > 0.0 {
                    out.votes_for += 1;
                } else if *delta < 0.0 {
                    out.votes_against += 1;
                }
                flows.insert(*flow);
                switches.insert(*switch);
            }
            FlightRecord::DriftMerged {
                at_ns,
                switch,
                flow,
                hop_now,
                w0,
                w1,
                top_link,
                dropped_links,
                ..
            } => {
                if dropped_links.contains(&link) {
                    out.truncation_drops.push(TruncationDrop {
                        at_ns: *at_ns,
                        switch: *switch,
                        flow: *flow,
                        hop_now: *hop_now,
                    });
                }
                if *top_link == Some(link) {
                    out.merges_as_top += 1;
                    if let (Some(tally), Some(i)) = (out.blocked.as_mut(), info.as_ref()) {
                        tally.add(eq1(*w0, *w1, *hop_now as u32, &i.warning));
                    }
                }
            }
            FlightRecord::WarningRaised {
                at_ns,
                switch,
                link: l,
                hop_now,
                w0,
                w1,
                ..
            } if *l == link => {
                let view = WarningView {
                    at_ns: *at_ns,
                    switch: *switch,
                    hop_now: *hop_now,
                    w0: *w0,
                    w1: *w1,
                    in_window: info.as_ref().map(|i| i.in_window(*at_ns)),
                    window_index: info.as_ref().map(|i| i.window_index(*at_ns)),
                };
                if out.first_warning_in_window.is_none() && view.in_window == Some(true) {
                    out.first_warning_in_window = Some(view);
                }
                out.warnings.push(view);
            }
            FlightRecord::PacketDropped { link: l, kind, .. } if *l == link => {
                out.packet_drops[*kind as usize] += 1;
            }
            _ => {}
        }
    }
    out.voting_flows = flows.len();
    out.voting_switches = switches.len();
    out
}

/// Everything the recording says about one switch — the other target form
/// of `drift-bottle explain`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchExplanation {
    /// The explained switch.
    pub switch: u16,
    /// Flow classifications at the switch: (abnormal, normal) counts.
    pub classified: (usize, usize),
    /// Votes emitted by the switch, as (link, total delta, count), sorted
    /// by descending total.
    pub votes_by_link: Vec<(u16, f64, usize)>,
    /// ⊕ merges performed at the switch.
    pub merges: usize,
    /// Merges whose top-k cut discarded at least one link.
    pub merges_with_drops: usize,
    /// Warnings the switch raised, oldest first.
    pub warnings: Vec<(u16, WarningView)>,
}

/// Walk `rec` and assemble the activity summary for `switch`.
pub fn explain_switch(rec: &Recording, switch: u16) -> SwitchExplanation {
    let info = RunInfo::from_recording(rec);
    let mut abnormal = 0usize;
    let mut normal = 0usize;
    let mut votes: std::collections::BTreeMap<u16, (f64, usize)> =
        std::collections::BTreeMap::new();
    let mut merges = 0usize;
    let mut merges_with_drops = 0usize;
    let mut warnings = Vec::new();
    for r in &rec.records {
        match r {
            FlightRecord::FlowClassified {
                switch: s,
                abnormal: a,
                ..
            } if *s == switch => {
                if *a {
                    abnormal += 1;
                } else {
                    normal += 1;
                }
            }
            FlightRecord::LocalVote {
                switch: s,
                link,
                delta,
                ..
            } if *s == switch => {
                let e = votes.entry(link.to_owned()).or_insert((0.0, 0));
                e.0 += delta;
                e.1 += 1;
            }
            FlightRecord::DriftMerged {
                switch: s,
                dropped_links,
                ..
            } if *s == switch => {
                merges += 1;
                if !dropped_links.is_empty() {
                    merges_with_drops += 1;
                }
            }
            FlightRecord::WarningRaised {
                at_ns,
                switch: s,
                link,
                hop_now,
                w0,
                w1,
                ..
            } if *s == switch => {
                warnings.push((
                    *link,
                    WarningView {
                        at_ns: *at_ns,
                        switch: *s,
                        hop_now: *hop_now,
                        w0: *w0,
                        w1: *w1,
                        in_window: info.as_ref().map(|i| i.in_window(*at_ns)),
                        window_index: info.as_ref().map(|i| i.window_index(*at_ns)),
                    },
                ));
            }
            _ => {}
        }
    }
    let mut votes_by_link: Vec<(u16, f64, usize)> =
        votes.into_iter().map(|(l, (t, n))| (l, t, n)).collect();
    votes_by_link.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    SwitchExplanation {
        switch,
        classified: (abnormal, normal),
        votes_by_link,
        merges,
        merges_with_drops,
        warnings,
    }
}

/// Truncation-loss statistics across the recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TruncationStats {
    /// Total ⊕ merges recorded.
    pub merges: usize,
    /// Merges whose top-k cut discarded at least one link.
    pub merges_with_drops: usize,
    /// Total link entries discarded across all merges.
    pub dropped_entries: usize,
}

impl TruncationStats {
    /// Fraction of merges that lost at least one link (0 when no merges).
    pub fn loss_rate(&self) -> f64 {
        if self.merges == 0 {
            0.0
        } else {
            self.merges_with_drops as f64 / self.merges as f64
        }
    }
}

/// The aggregate localization-quality report of one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// The run header the scoring is based on.
    pub info: RunInfo,
    /// Links reported (≥ 1 in-window warning), ascending.
    pub reported_links: Vec<u16>,
    /// The §6.2 scores of `reported_links` against the recorded ground
    /// truth.
    pub metrics: LocalizationMetrics,
    /// Warnings raised in total (any time).
    pub warnings_total: usize,
    /// Warnings raised inside the collection window.
    pub warnings_in_window: usize,
    /// Per ground-truth link: time from failure injection to its first
    /// in-window warning (ns), `None` when it never warned.
    pub time_to_first_warning_ns: Vec<(u16, Option<u64>)>,
    /// Truncation losses across all recorded merges.
    pub truncation: TruncationStats,
    /// Flow classifications recorded: (abnormal, normal).
    pub classified: (usize, usize),
    /// Records the ring evicted before this snapshot (nonzero means the
    /// oldest history is missing from every number above).
    pub ring_dropped: u64,
}

/// Score the whole recording. `None` when the run header was evicted (the
/// window and ground truth are unknowable without it).
pub fn quality_report(rec: &Recording) -> Option<QualityReport> {
    let info = RunInfo::from_recording(rec)?;
    let mut reported: BTreeSet<u16> = BTreeSet::new();
    let mut warnings_total = 0usize;
    let mut warnings_in_window = 0usize;
    let mut first_warning: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    let mut truncation = TruncationStats::default();
    let mut abnormal = 0usize;
    let mut normal = 0usize;
    for r in &rec.records {
        match r {
            FlightRecord::WarningRaised { at_ns, link, .. } => {
                warnings_total += 1;
                if info.in_window(*at_ns) {
                    warnings_in_window += 1;
                    reported.insert(*link);
                    first_warning.entry(*link).or_insert(*at_ns);
                }
            }
            FlightRecord::DriftMerged { dropped_links, .. } => {
                truncation.merges += 1;
                if !dropped_links.is_empty() {
                    truncation.merges_with_drops += 1;
                    truncation.dropped_entries += dropped_links.len();
                }
            }
            FlightRecord::FlowClassified { abnormal: a, .. } => {
                if *a {
                    abnormal += 1;
                } else {
                    normal += 1;
                }
            }
            _ => {}
        }
    }
    let actual: BTreeSet<u16> = info.ground_truth.iter().copied().collect();
    let metrics = LocalizationMetrics::score(&reported, &actual, info.total_links as usize);
    let time_to_first_warning_ns = info
        .ground_truth
        .iter()
        .map(|&l| {
            (
                l,
                first_warning
                    .get(&l)
                    .map(|&at| at.saturating_sub(info.t_fail_ns)),
            )
        })
        .collect();
    Some(QualityReport {
        info,
        reported_links: reported.into_iter().collect(),
        metrics,
        warnings_total,
        warnings_in_window,
        time_to_first_warning_ns,
        truncation,
        classified: (abnormal, normal),
        ring_dropped: rec.dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::Inference;
    use db_telemetry::flight::DropKind;

    fn meta(ground_truth: Vec<u16>) -> FlightRecord {
        FlightRecord::RunMeta {
            t_fail_ns: 100,
            window_from_ns: 100,
            window_to_ns: 200,
            interval_ns: 10,
            total_links: 10,
            k: 4,
            hop_min: 3,
            alpha: 1.0,
            beta: 2.0,
            ground_truth,
        }
    }

    fn warning(at_ns: u64, link: u16, w0: f64, w1: f64) -> FlightRecord {
        FlightRecord::WarningRaised {
            at_ns,
            switch: 1,
            link,
            hop_now: 4,
            w0,
            w1,
            alpha_lhs: 4.0,
            beta_lhs: 2.0 * w1.max(0.0),
            ground_truth_hit: false,
        }
    }

    #[test]
    fn inference_digest_is_content_addressed() {
        let a = Inference::from_pairs([(LinkId(1), 2.0), (LinkId(2), -1.0)]);
        let b = Inference::from_pairs([(LinkId(2), -1.0), (LinkId(1), 2.0)]);
        // from_pairs canonicalizes, so identical content → identical digest.
        assert_eq!(inference_digest(a.entries()), inference_digest(b.entries()));
        let c = Inference::from_pairs([(LinkId(1), 2.0), (LinkId(2), -1.5)]);
        assert_ne!(inference_digest(a.entries()), inference_digest(c.entries()));
        // The empty digest is the FNV basis — never the ingress sentinel.
        assert_eq!(inference_digest(&[]), 0xcbf29ce484222325);
        assert_ne!(inference_digest(&[]), NO_INFERENCE_DIGEST);
    }

    #[test]
    fn explain_link_assembles_the_chain() {
        let rec = Recording {
            capacity: 1024,
            dropped: 0,
            records: vec![
                meta(vec![3]),
                FlightRecord::LocalVote {
                    at_ns: 110,
                    switch: 1,
                    window: 11,
                    flow: 5,
                    link: 3,
                    delta: 1.0,
                },
                FlightRecord::LocalVote {
                    at_ns: 110,
                    switch: 2,
                    window: 11,
                    flow: 6,
                    link: 3,
                    delta: -1.0,
                },
                FlightRecord::LocalVote {
                    at_ns: 120,
                    switch: 1,
                    window: 12,
                    flow: 5,
                    link: 3,
                    delta: 1.0,
                },
                // A merge that truncated link 3 away at switch 4.
                FlightRecord::DriftMerged {
                    at_ns: 130,
                    switch: 4,
                    flow: 5,
                    pkt_seq: 9,
                    hop_now: 2,
                    in_digest: 0,
                    local_digest: 1,
                    out_digest: 2,
                    w0: 5.0,
                    w1: 1.0,
                    top_link: Some(8),
                    dropped_links: vec![3],
                },
                // A merge where link 3 topped but hop_min blocked it.
                FlightRecord::DriftMerged {
                    at_ns: 140,
                    switch: 5,
                    flow: 5,
                    pkt_seq: 10,
                    hop_now: 2,
                    in_digest: 2,
                    local_digest: 3,
                    out_digest: 4,
                    w0: 6.0,
                    w1: 1.0,
                    top_link: Some(3),
                    dropped_links: vec![],
                },
                // Out-of-window warning, then the in-window one.
                warning(90, 3, 6.0, 1.0),
                warning(150, 3, 8.0, 1.0),
                FlightRecord::PacketDropped {
                    at_ns: 101,
                    link: 3,
                    flow: 5,
                    pkt_seq: 1,
                    kind: DropKind::Down,
                },
            ],
        };
        let e = explain_link(&rec, 3);
        assert_eq!(e.ground_truth, Some(true));
        assert_eq!(e.votes.len(), 3);
        assert_eq!(e.vote_total, 1.0);
        assert_eq!((e.votes_for, e.votes_against), (2, 1));
        assert_eq!((e.voting_flows, e.voting_switches), (2, 2));
        assert_eq!(e.truncation_drops.len(), 1);
        assert_eq!(e.truncation_drops[0].switch, 4);
        assert_eq!(e.merges_as_top, 1);
        let blocked = e.blocked.unwrap();
        assert_eq!(blocked.hop_min, 1);
        assert_eq!(blocked.fires, 0);
        assert_eq!(e.warnings.len(), 2);
        assert_eq!(e.warnings[0].in_window, Some(false));
        let first = e.first_warning_in_window.unwrap();
        assert_eq!(first.at_ns, 150);
        assert_eq!(first.window_index, Some(15));
        assert_eq!(e.packet_drops, [1, 0, 0]);
        assert_eq!(e.reported(), Some(true));

        // A link nobody mentioned.
        let quiet = explain_link(&rec, 9);
        assert!(quiet.votes.is_empty());
        assert_eq!(quiet.reported(), Some(false));
        assert_eq!(quiet.ground_truth, Some(false));
    }

    #[test]
    fn explain_switch_summarizes_activity() {
        let rec = Recording {
            capacity: 64,
            dropped: 0,
            records: vec![
                meta(vec![3]),
                FlightRecord::FlowClassified {
                    at_ns: 110,
                    switch: 1,
                    window: 11,
                    flow: 5,
                    abnormal: true,
                    feature_digest: 7,
                },
                FlightRecord::FlowClassified {
                    at_ns: 110,
                    switch: 1,
                    window: 11,
                    flow: 6,
                    abnormal: false,
                    feature_digest: 8,
                },
                FlightRecord::LocalVote {
                    at_ns: 110,
                    switch: 1,
                    window: 11,
                    flow: 5,
                    link: 3,
                    delta: 1.0,
                },
                FlightRecord::DriftMerged {
                    at_ns: 130,
                    switch: 1,
                    flow: 5,
                    pkt_seq: 9,
                    hop_now: 2,
                    in_digest: 0,
                    local_digest: 1,
                    out_digest: 2,
                    w0: 5.0,
                    w1: 1.0,
                    top_link: Some(3),
                    dropped_links: vec![7],
                },
                warning(150, 3, 8.0, 1.0),
            ],
        };
        let s = explain_switch(&rec, 1);
        assert_eq!(s.classified, (1, 1));
        assert_eq!(s.votes_by_link, vec![(3, 1.0, 1)]);
        assert_eq!((s.merges, s.merges_with_drops), (1, 1));
        assert_eq!(s.warnings.len(), 1);
        assert_eq!(s.warnings[0].0, 3);
        // Another switch sees nothing.
        let other = explain_switch(&rec, 2);
        assert_eq!(other.classified, (0, 0));
        assert!(other.votes_by_link.is_empty());
    }

    #[test]
    fn quality_report_scores_like_the_paper_example() {
        // §6.2 worked example: 4 failures among 10 links, 5 reports,
        // 3 correct → precision 60%, recall 75%, accuracy 70%, FPR 33.3%.
        let mut records = vec![meta(vec![0, 1, 2, 3])];
        for link in [0u16, 1, 2, 8, 9] {
            records.push(warning(150, link, 8.0, 1.0));
        }
        // Out-of-window warning must not count as a report.
        records.push(warning(250, 4, 8.0, 1.0));
        let rec = Recording {
            capacity: 1024,
            dropped: 2,
            records,
        };
        let q = quality_report(&rec).unwrap();
        assert_eq!(q.reported_links, vec![0, 1, 2, 8, 9]);
        assert!((q.metrics.precision - 0.60).abs() < 1e-12);
        assert!((q.metrics.recall - 0.75).abs() < 1e-12);
        assert!((q.metrics.accuracy - 0.70).abs() < 1e-12);
        assert!((q.metrics.fpr - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(q.metrics.correct, 3);
        assert_eq!(q.warnings_total, 6);
        assert_eq!(q.warnings_in_window, 5);
        assert_eq!(q.ring_dropped, 2);
        // Time-to-first-warning: links 0..3 warned at 150 (t_fail 100),
        // link 3 never warned.
        let ttfw: Vec<(u16, Option<u64>)> = q.time_to_first_warning_ns.clone();
        assert_eq!(
            ttfw,
            vec![(0, Some(50)), (1, Some(50)), (2, Some(50)), (3, None)]
        );
    }

    #[test]
    fn quality_report_needs_the_header() {
        let rec = Recording {
            capacity: 4,
            dropped: 100,
            records: vec![warning(150, 3, 8.0, 1.0)],
        };
        assert!(quality_report(&rec).is_none());
    }
}
