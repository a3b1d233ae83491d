//! db-scope integration: the timeline tap is pure observation.
//!
//! Two properties pinned here:
//!
//! 1. **Equivalence** — attaching a [`ScopeRecorder`] must not perturb the
//!    scenario: the wire-encoded outcome is bit-identical with and without
//!    it. Together with the golden snapshot (which runs untraced) this is
//!    what lets `--trace` claim zero effect on results.
//! 2. **Warning cross-check** — the per-window warning series places the
//!    failed link's first warning in the same sampling window as the
//!    flight recorder's first `WarningRaised` record (both derive the
//!    index as `at_ns / interval_ns`), and the suspicion series at that
//!    window clears the eq. (1) α threshold. This keeps `timeline` and
//!    `explain` telling one consistent story about the same run.

use db_core::wire::encode_outcome;
use db_core::{
    prepare, run_scenario, PrepareConfig, Prepared, ScenarioKind, ScenarioOutcome, ScenarioSetup,
};
use db_telemetry::scope::SeriesKind;
use db_telemetry::{FlightRecord, FlightRecorder, ScopeRecorder, TraceData};
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

fn run_one(
    prep: &Prepared,
    flight: Option<Arc<FlightRecorder>>,
    scope: Option<Arc<ScopeRecorder>>,
) -> (ScenarioOutcome, LinkId) {
    let mut setup = ScenarioSetup::flagship(prep, 1.0, 42);
    setup.instr.flight = flight;
    setup.instr.scope = scope;
    let link = center_link(prep);
    (run_scenario(&setup, &ScenarioKind::SingleLink(link)), link)
}

#[test]
fn recorder_does_not_change_outcomes() {
    let prep = grid_prep();
    let (baseline, _) = run_one(&prep, None, None);
    let sc = Arc::new(ScopeRecorder::default());
    let (observed, link) = run_one(&prep, None, Some(sc.clone()));
    assert_eq!(
        encode_outcome(&baseline),
        encode_outcome(&observed),
        "attaching a scope recorder changed the scenario outcome"
    );
    assert!(sc.span_count() > 0, "recorder attached but no spans opened");
    // The export is well-formed and carries the fed data.
    let trace = TraceData::from_json_str(&sc.to_trace_json()).expect("trace parses");
    let meta = trace.meta.expect("meta header");
    assert_eq!(meta.total_links as usize, prep.topo.link_count());
    assert!(
        trace
            .series_for(SeriesKind::LinkSuspicion, link.0)
            .is_some(),
        "no suspicion series for the failed link"
    );
    for phase in ["scenario", "phase.simulate", "phase.monitor", "phase.infer"] {
        assert!(
            trace.spans.iter().any(|s| s.name == phase),
            "missing span {phase}"
        );
    }
}

#[test]
fn timeline_places_first_warning_in_the_flight_recorders_window() {
    let prep = grid_prep();
    let rec = Arc::new(FlightRecorder::new(1 << 22));
    let sc = Arc::new(ScopeRecorder::default());
    let (_, link) = run_one(&prep, Some(rec.clone()), Some(sc.clone()));
    assert_eq!(rec.dropped(), 0, "ring must not wrap for this cross-check");

    let trace = TraceData::from_json_str(&sc.to_trace_json()).expect("trace parses");
    let meta = trace.meta.expect("meta header");

    // The flight recorder's view: the first WarningRaised for the failed
    // link, mapped onto its sampling window.
    let snap = rec.snapshot();
    let flight_window = snap
        .records
        .iter()
        .find_map(|r| match r {
            FlightRecord::WarningRaised { at_ns, link: l, .. } if *l == link.0 => {
                Some(at_ns / meta.interval_ns)
            }
            _ => None,
        })
        .expect("flight recorded no warning for the failed link");

    // The timeline's view: the first window whose warning count is
    // non-zero for the same link.
    let warnings = trace
        .series_for(SeriesKind::LinkWarnings, link.0)
        .expect("no warning series for the failed link");
    assert_eq!(warnings.evicted, 0, "warning series must not have wrapped");
    let (series_window, count) = *warnings
        .points
        .iter()
        .find(|&&(_, v)| v > 0.0)
        .expect("warning series never fired");
    assert!(count >= 1.0);
    assert_eq!(
        series_window, flight_window,
        "timeline and flight recorder disagree on the first-warning window"
    );

    // The suspicion series at that window clears the α threshold actually
    // compared by eq. (1): the warning's w0 was itself fed into the
    // per-window max, and a raise requires w0 >= alpha * hop_now with
    // hop_now >= hop_min.
    let suspicion = trace
        .series_for(SeriesKind::LinkSuspicion, link.0)
        .expect("no suspicion series for the failed link");
    let at_window = suspicion
        .points
        .iter()
        .find(|&&(w, _)| w == series_window)
        .map(|&(_, v)| v)
        .expect("no suspicion sample in the warning window");
    assert!(
        at_window >= meta.alpha * meta.hop_min as f64,
        "suspicion {at_window} below the eq.(1) floor {}",
        meta.alpha * meta.hop_min as f64
    );
}
