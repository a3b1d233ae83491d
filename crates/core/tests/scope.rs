//! db-scope integration. That attaching a [`ScopeRecorder`] changes no
//! outcome, and the shape of the trace it exports, are pinned with every
//! other mode in the root `tests/modes.rs`.
//!
//! **Warning cross-check** — the per-window warning series places the
//! failed link's first warning in the same sampling window as the flight
//! recorder's first `WarningRaised` record (both derive the index as
//! `at_ns / interval_ns`), and the suspicion series at that window clears
//! the eq. (1) α threshold. This keeps `timeline` and `explain` telling one
//! consistent story about the same run.

use db_core::{prepare, run_scenario, PrepareConfig, ScenarioKind, ScenarioSetup};
use db_telemetry::scope::SeriesKind;
use db_telemetry::{FlightRecord, FlightRecorder, ScopeRecorder, TraceData};
use db_topology::{zoo, NodeId};
use std::sync::Arc;

#[test]
fn timeline_places_first_warning_in_the_flight_recorders_window() {
    let prep = prepare(
        zoo::grid(3, 3),
        &PrepareConfig {
            n_link_scenarios: 4,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    let rec = Arc::new(FlightRecorder::new(1 << 22));
    let sc = Arc::new(ScopeRecorder::default());
    let mut setup = ScenarioSetup::flagship(&prep, 1.0, 42);
    setup.instr.flight = Some(rec.clone());
    setup.instr.scope = Some(sc.clone());
    let link = prep
        .topo
        .link_between(NodeId(4), NodeId(5))
        .expect("grid center link");
    run_scenario(&setup, &ScenarioKind::SingleLink(link));
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
