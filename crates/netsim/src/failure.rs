//! Failure scenarios: what breaks, when, and how.
//!
//! The paper's failure units are links; a node failure is "equivalent to
//! failures of all connected links" (§6.6). A scenario is a schedule of
//! failure (and optional repair) events plus the derived ground truth the
//! evaluation compares warnings against.

use crate::link::LinkState;
use crate::time::SimTime;
use db_topology::{LinkId, NodeId, Topology};
use db_util::Pcg64;

/// Corruption loss rates at or above this value count as failure units for
/// ground truth (and for `LinkState::is_failure`).
pub const MIN_CORRUPT_RATE: f64 = 0.05;

/// What kind of failure an event injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// A link goes fully down.
    LinkDown(LinkId),
    /// A link starts dropping packets i.i.d. at the given rate.
    LinkCorrupt(LinkId, f64),
    /// A node fails: it stops forwarding and all incident links go down.
    NodeDown(NodeId),
}

/// One scheduled failure, with optional repair.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureEvent {
    /// When the failure takes effect.
    pub at: SimTime,
    /// What fails.
    pub kind: FailureKind,
    /// When the failure is repaired, if ever (within the simulation).
    pub repair_at: Option<SimTime>,
}

/// A complete failure scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureScenario {
    /// The scheduled events.
    pub events: Vec<FailureEvent>,
}

impl FailureScenario {
    /// No failures (baseline scenario).
    pub fn none() -> Self {
        FailureScenario::default()
    }

    /// A single link failure at `at`, never repaired.
    pub fn single_link(link: LinkId, at: SimTime) -> Self {
        FailureScenario {
            events: vec![FailureEvent {
                at,
                kind: FailureKind::LinkDown(link),
                repair_at: None,
            }],
        }
    }

    /// A single link corruption at `at` with the given loss rate.
    pub fn corruption(link: LinkId, rate: f64, at: SimTime) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "corruption rate must be in [0,1]"
        );
        FailureScenario {
            events: vec![FailureEvent {
                at,
                kind: FailureKind::LinkCorrupt(link, rate),
                repair_at: None,
            }],
        }
    }

    /// A single node failure at `at`.
    pub fn node(node: NodeId, at: SimTime) -> Self {
        FailureScenario {
            events: vec![FailureEvent {
                at,
                kind: FailureKind::NodeDown(node),
                repair_at: None,
            }],
        }
    }

    /// `k` distinct random link failures, all at `at` (the random multiple
    /// failures experiment of §6.6).
    pub fn random_links(topo: &Topology, k: usize, at: SimTime, rng: &mut Pcg64) -> Self {
        assert!(
            k <= topo.link_count(),
            "cannot fail {k} links of {}",
            topo.link_count()
        );
        let picks = rng.sample_indices(topo.link_count(), k);
        FailureScenario {
            events: picks
                .into_iter()
                .map(|i| FailureEvent {
                    at,
                    kind: FailureKind::LinkDown(LinkId(i as u16)),
                    repair_at: None,
                })
                .collect(),
        }
    }

    /// Merge two scenarios (concurrent failures).
    pub fn merged(mut self, other: FailureScenario) -> Self {
        self.events.extend(other.events);
        self
    }

    /// Ground truth: the set of links that are failure units at time `t`,
    /// expanded over node failures, sorted and deduplicated.
    pub fn failed_links_at(&self, topo: &Topology, t: SimTime) -> Vec<LinkId> {
        let mut out = Vec::new();
        for e in &self.events {
            let active = e.at <= t && e.repair_at.is_none_or(|r| t < r);
            if !active {
                continue;
            }
            match e.kind {
                FailureKind::LinkDown(l) => out.push(l),
                FailureKind::LinkCorrupt(l, rate) => {
                    if rate >= MIN_CORRUPT_RATE {
                        out.push(l);
                    }
                }
                FailureKind::NodeDown(n) => out.extend(topo.incident_links(n)),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The link state a failure kind induces.
    pub fn state_of(kind: FailureKind) -> LinkState {
        match kind {
            FailureKind::LinkDown(_) => LinkState::Down,
            FailureKind::LinkCorrupt(_, p) => LinkState::Corrupted(p),
            FailureKind::NodeDown(_) => LinkState::Down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_topology::zoo;

    #[test]
    fn single_link_ground_truth_respects_time() {
        let topo = zoo::line(4);
        let s = FailureScenario::single_link(LinkId(1), SimTime::from_ms(50));
        assert!(s.failed_links_at(&topo, SimTime::from_ms(49)).is_empty());
        assert_eq!(
            s.failed_links_at(&topo, SimTime::from_ms(50)),
            vec![LinkId(1)]
        );
    }

    #[test]
    fn repair_clears_ground_truth() {
        let topo = zoo::line(4);
        let mut s = FailureScenario::single_link(LinkId(0), SimTime::from_ms(10));
        s.events[0].repair_at = Some(SimTime::from_ms(20));
        assert_eq!(
            s.failed_links_at(&topo, SimTime::from_ms(15)),
            vec![LinkId(0)]
        );
        assert!(s.failed_links_at(&topo, SimTime::from_ms(20)).is_empty());
    }

    #[test]
    fn node_failure_expands_to_incident_links() {
        let topo = zoo::star(5);
        let s = FailureScenario::node(NodeId(0), SimTime::ZERO);
        let failed = s.failed_links_at(&topo, SimTime::ZERO);
        assert_eq!(failed.len(), 5, "hub failure fails all incident links");
    }

    #[test]
    fn weak_corruption_is_not_a_failure_unit() {
        let topo = zoo::line(3);
        let weak = FailureScenario::corruption(LinkId(0), 0.01, SimTime::ZERO);
        assert!(weak.failed_links_at(&topo, SimTime::from_ms(1)).is_empty());
        let strong = FailureScenario::corruption(LinkId(0), 0.25, SimTime::ZERO);
        assert_eq!(
            strong.failed_links_at(&topo, SimTime::from_ms(1)),
            vec![LinkId(0)]
        );
    }

    #[test]
    fn random_links_are_distinct() {
        let topo = zoo::geant2012();
        let mut rng = Pcg64::new(1);
        let s = FailureScenario::random_links(&topo, 10, SimTime::ZERO, &mut rng);
        let failed = s.failed_links_at(&topo, SimTime::ZERO);
        assert_eq!(failed.len(), 10);
    }

    #[test]
    fn merged_combines_and_dedups_ground_truth() {
        let topo = zoo::line(5);
        let s = FailureScenario::single_link(LinkId(1), SimTime::ZERO)
            .merged(FailureScenario::single_link(LinkId(1), SimTime::ZERO))
            .merged(FailureScenario::single_link(LinkId(3), SimTime::ZERO));
        assert_eq!(
            s.failed_links_at(&topo, SimTime::ZERO),
            vec![LinkId(1), LinkId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "cannot fail")]
    fn random_links_bounds_checked() {
        let topo = zoo::line(3);
        let mut rng = Pcg64::new(1);
        FailureScenario::random_links(&topo, 99, SimTime::ZERO, &mut rng);
    }

    #[test]
    fn state_of_kinds() {
        assert_eq!(
            FailureScenario::state_of(FailureKind::LinkDown(LinkId(0))),
            LinkState::Down
        );
        assert_eq!(
            FailureScenario::state_of(FailureKind::LinkCorrupt(LinkId(0), 0.3)),
            LinkState::Corrupted(0.3)
        );
    }
}
