//! Flight-recorder integration. That attaching a recorder changes no
//! outcome is pinned with every other mode in the root `tests/modes.rs`.
//!
//! Two properties pinned here:
//!
//! 1. **Bounded memory** — a tiny ring evicts (counting drops) instead of
//!    growing, and the pinned run header survives the wrap.
//! 2. **Evidence cross-check** — `provenance::quality_report` rebuilds the
//!    reported link set from raw flight records; on an unwrapped recording
//!    it must equal the flagship variant's warning log, and so score the
//!    same `LocalizationMetrics`. Both sides share one scorer and one
//!    report window, so what this pins is that the recording and the
//!    warning log hold the same evidence.

use db_core::{
    prepare, run_scenario, PrepareConfig, Prepared, ScenarioKind, ScenarioOutcome, ScenarioSetup,
};
use db_inference::provenance;
use db_telemetry::{FlightRecord, FlightRecorder};
use db_topology::{zoo, LinkId, NodeId};
use std::sync::{Arc, OnceLock};

/// The 3×3 grid, prepared once for this binary.
fn grid_prep() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        prepare(
            zoo::grid(3, 3),
            &PrepareConfig {
                n_link_scenarios: 4,
                n_node_scenarios: 1,
                n_healthy: 1,
                train_density: 1.0,
            },
        )
    })
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
fn tiny_ring_is_bounded_and_keeps_the_header() {
    let prep = grid_prep();
    let rec = Arc::new(FlightRecorder::new(64));
    let _ = run_one(prep, Some(rec.clone()));
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
    let (outcome, link) = run_one(prep, Some(rec.clone()));
    assert_eq!(rec.dropped(), 0, "ring must not wrap for this cross-check");
    let snap = rec.snapshot();
    let q = provenance::quality_report(&snap).expect("run header present");
    let flagship = &outcome.variants[0];
    assert_eq!(q.metrics, flagship.metrics, "scores");
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
