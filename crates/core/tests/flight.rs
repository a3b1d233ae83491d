//! Flight-recorder integration: the provenance tap is pure observation.
//!
//! Three properties pinned here:
//!
//! 1. **Equivalence** — attaching a recorder must not perturb the scenario:
//!    the wire-encoded outcome is bit-identical with and without it.
//! 2. **Bounded memory** — a tiny ring evicts (counting drops) instead of
//!    growing, and the pinned run header survives the wrap.
//! 3. **Scoring cross-check** — `provenance::quality_report` re-derives
//!    precision/recall/F1 from raw flight records; on an unwrapped
//!    recording they must match `core::eval`'s `LocalizationMetrics` for
//!    the flagship variant exactly. This is the test that keeps the two
//!    implementations of the eq. (1)/scoring formulas in lock-step.

use db_core::wire::encode_outcome;
use db_core::{
    prepare, run_scenario, PrepareConfig, Prepared, ScenarioKind, ScenarioOutcome, ScenarioSetup,
};
use db_inference::provenance;
use db_telemetry::{FlightRecord, FlightRecorder};
use db_topology::{zoo, LinkId, NodeId};
use std::sync::Arc;

fn grid_prep() -> Prepared {
    prepare(
        zoo::grid(3, 3),
        &PrepareConfig {
            n_link_scenarios: 4,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        },
    )
}

fn center_link(prep: &Prepared) -> LinkId {
    prep.topo
        .link_between(NodeId(4), NodeId(5))
        .expect("grid center link")
}

fn run_one(prep: &Prepared, flight: Option<Arc<FlightRecorder>>) -> (ScenarioOutcome, LinkId) {
    let mut setup = ScenarioSetup::flagship(prep, 1.0, 42);
    setup.instr.flight = flight;
    let link = center_link(prep);
    (run_scenario(&setup, &ScenarioKind::SingleLink(link)), link)
}

#[test]
fn recorder_does_not_change_outcomes() {
    let prep = grid_prep();
    let (baseline, _) = run_one(&prep, None);
    let rec = Arc::new(FlightRecorder::with_default_capacity());
    let (observed, _) = run_one(&prep, Some(rec.clone()));
    assert_eq!(
        encode_outcome(&baseline),
        encode_outcome(&observed),
        "attaching a flight recorder changed the scenario outcome"
    );
    assert!(
        !rec.is_empty(),
        "recorder attached but nothing was recorded"
    );
}

#[test]
fn tiny_ring_is_bounded_and_keeps_the_header() {
    let prep = grid_prep();
    let rec = Arc::new(FlightRecorder::new(64));
    let _ = run_one(&prep, Some(rec.clone()));
    assert!(rec.dropped() > 0, "expected a 64-record ring to wrap");
    // Ring portion bounded by capacity; +1 for the pinned run header.
    assert!(rec.len() <= 64 + 1, "len {} exceeds bound", rec.len());
    let snap = rec.snapshot();
    assert!(
        matches!(snap.records.first(), Some(FlightRecord::RunMeta { .. })),
        "run header must survive a full ring wrap"
    );
    // Even a wrapped recording stays scoreable (the tail may be gone, but
    // the header pins window/thresholds/ground truth).
    assert!(provenance::quality_report(&snap).is_some());
}

#[test]
fn quality_report_matches_core_eval() {
    let prep = grid_prep();
    let rec = Arc::new(FlightRecorder::new(1 << 22));
    let (outcome, link) = run_one(&prep, Some(rec.clone()));
    assert_eq!(rec.dropped(), 0, "ring must not wrap for this cross-check");
    let snap = rec.snapshot();
    let q = provenance::quality_report(&snap).expect("run header present");
    let flagship = &outcome.variants[0];
    let m = &flagship.metrics;
    assert_eq!(q.precision, m.precision, "precision");
    assert_eq!(q.recall, m.recall, "recall");
    assert_eq!(q.f1, m.f1, "f1");
    assert_eq!(q.accuracy, m.accuracy, "accuracy");
    assert_eq!(q.fpr, m.fpr, "fpr");
    assert_eq!(q.correct, m.correct, "correct count");
    let mut reported: Vec<u16> = flagship.reported.iter().map(|l| l.0).collect();
    reported.sort_unstable();
    assert_eq!(q.reported_links, reported, "reported link set");

    // The cause chain for the failed link is reconstructable: votes were
    // cast, the top-k cut was observed, and the first in-window warning
    // fired at a definite time.
    let ex = provenance::explain_link(&snap, link.0);
    assert_eq!(
        ex.ground_truth,
        Some(true),
        "recording must mark l{} failed",
        link.0
    );
    assert!(
        !ex.votes.is_empty(),
        "no votes recorded for the failed link"
    );
    assert!(ex.merges_as_top > 0, "link never topped a merged inference");
    assert_eq!(
        ex.reported(),
        Some(true),
        "failed link must be reported in-window"
    );
    assert!(
        ex.first_warning_in_window.is_some(),
        "no first-warning timestamp"
    );
    assert_eq!(
        q.time_to_first_warning_ns.len(),
        1,
        "one ground-truth link, one time-to-first-warning row"
    );
    assert!(q.time_to_first_warning_ns[0].1.is_some());
}
