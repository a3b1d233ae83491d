//! Recorders are independent of each other: what one attachment records
//! does not depend on which others are attached.
//!
//! `flight.rs` and `scope.rs` compare each recorder against *none*. The
//! pipeline reports a switch's judged flows once and the tap fans that one
//! pass out to the flight ring, the scope series and the registry counters
//! together, so this runs all 8 on/off combinations of {metrics, flight,
//! scope} on the 3×3 grid case: outcomes equal the bare run, flight bytes
//! equal flight-alone, the scope digest equals scope-alone, registry
//! counters equal metrics-alone. The alone forms are pinned by digest, so a
//! dropped or reordered record fails here even if every combination drops
//! or reorders it alike.
//!
//! One `#[test]` only: metrics attach through the process-global registry.

use db_core::wire::encode_outcome;
use db_core::{prepare, run_scenario, PrepareConfig, Prepared, ScenarioKind, ScenarioSetup};
use db_telemetry::{FlightRecorder, ScopeRecorder, TraceData};
use db_topology::{zoo, NodeId};
use db_util::wire::fnv1a64;
use std::sync::Arc;

/// FNV-1a of the flight-alone recording's bytes.
const PINNED_FLIGHT_DIGEST: u64 = 0x4798_6758_5238_1aaf;
/// FNV-1a of the scope-alone trace's deterministic digest text.
const PINNED_SCOPE_DIGEST: u64 = 0x4179_d04d_7306_39e7;

/// What one run left behind, per attachment (`None` when it was off).
struct Observed {
    outcome: Vec<u8>,
    flight: Option<Vec<u8>>,
    scope: Option<String>,
    counters: Option<Vec<(String, u64)>>,
}

fn counters() -> Vec<(String, u64)> {
    db_telemetry::global().snapshot().counters
}

fn run(prep: &Prepared, metrics: bool, flight: bool, scope: bool) -> Observed {
    let mut setup = ScenarioSetup::flagship(prep, 1.0, 42);
    setup.instr.flight = flight.then(|| Arc::new(FlightRecorder::new(1 << 22)));
    setup.instr.scope = scope.then(|| Arc::new(ScopeRecorder::default()));
    let link = prep
        .topo
        .link_between(NodeId(4), NodeId(5))
        .expect("grid center link");
    if metrics {
        db_telemetry::enable();
    }
    let before = counters();
    let outcome = run_scenario(&setup, &ScenarioKind::SingleLink(link));
    db_telemetry::disable();
    // The registry is process-global and only grows: a run's counters are
    // the difference across it.
    let delta = counters()
        .into_iter()
        .map(|(name, v)| {
            let was = before.iter().find(|(n, _)| *n == name).map_or(0, |b| b.1);
            (name, v - was)
        })
        .collect();
    Observed {
        outcome: encode_outcome(&outcome),
        flight: setup.instr.flight.map(|rec| {
            assert_eq!(rec.dropped(), 0, "ring must not wrap for a byte compare");
            rec.snapshot().to_bytes()
        }),
        scope: setup.instr.scope.map(|sc| {
            TraceData::from_json_str(&sc.to_trace_json())
                .expect("trace parses")
                .deterministic_digest()
        }),
        counters: metrics.then_some(delta),
    }
}

#[test]
fn every_recorder_combination_records_what_it_records_alone() {
    let prep = prepare(
        zoo::grid(3, 3),
        &PrepareConfig {
            n_link_scenarios: 4,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    let bare = run(&prep, false, false, false);
    let metrics_alone = run(&prep, true, false, false);
    let flight_alone = run(&prep, false, true, false);
    let scope_alone = run(&prep, false, false, true);

    let flight_bytes = flight_alone.flight.as_deref().expect("flight attached");
    let scope_text = scope_alone.scope.as_deref().expect("scope attached");
    assert_eq!(
        (fnv1a64(flight_bytes), fnv1a64(scope_text.as_bytes())),
        (PINNED_FLIGHT_DIGEST, PINNED_SCOPE_DIGEST),
        "the flight-alone recording or the scope-alone trace changed"
    );
    let tallied = |o: &Observed, name: &str| {
        let counters = o.counters.as_ref().expect("metrics attached");
        counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1)
    };
    for name in ["dtree.classifications", "inference.aggregations"] {
        assert!(tallied(&metrics_alone, name) > 0, "{name} never counted");
    }

    for combo in 0..8u8 {
        let (metrics, flight, scope) = (combo & 1 != 0, combo & 2 != 0, combo & 4 != 0);
        let got = run(&prep, metrics, flight, scope);
        let want = Observed {
            outcome: bare.outcome.clone(),
            flight: flight_alone.flight.clone().filter(|_| flight),
            scope: scope_alone.scope.clone().filter(|_| scope),
            counters: metrics_alone.counters.clone().filter(|_| metrics),
        };
        let what = format!("metrics={metrics} flight={flight} scope={scope}");
        assert!(got.outcome == want.outcome, "{what}: outcome differs");
        assert!(got.flight == want.flight, "{what}: flight bytes differ");
        assert_eq!(got.scope, want.scope, "{what}: scope digest differs");
        assert_eq!(got.counters, want.counters, "{what}: counters differ");
    }
}
