//! Per-unit flight recordings: a sweep with `.flight(cap)` writes one
//! scoreable `.flight` file per unit next to its checkpoint, and attaching
//! the recorder never changes sweep outcomes.

use db_core::classifier::{prepare, PrepareConfig};
use db_core::experiment::ScenarioKind;
use db_runner::SweepBuilder;
use db_telemetry::Recording;
use db_topology::{zoo, LinkId};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "db-runner-flight-{}-{tag}.ckpt.jsonl",
        std::process::id()
    ))
}

#[test]
fn sweep_writes_one_scoreable_flight_file_per_unit() {
    let prep = prepare(
        zoo::grid(3, 3),
        &PrepareConfig {
            n_link_scenarios: 2,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 1.0,
        },
    );
    let scenarios = [
        ScenarioKind::SingleLink(LinkId(0)),
        ScenarioKind::SingleLink(LinkId(3)),
    ];
    let path = scratch("per-unit");
    let build = || {
        SweepBuilder::new("grid-flight", &prep)
            .density(1.0)
            .seed(7)
            .scenarios(scenarios.iter().cloned())
            .checkpoint(&path)
    };

    let plain = build().workers(1).run().expect("plain sweep");
    let _ = std::fs::remove_file(&path);
    let sweep = build().workers(2).flight(1 << 20);
    // Derived next to the checkpoint, one per unit index.
    let f0 = sweep.flight_path(0);
    let f1 = sweep.flight_path(1);
    assert!(f0.to_string_lossy().ends_with(".unit0.flight"));
    let report = sweep.run().expect("recorded sweep");
    assert!(report.is_complete());
    assert_eq!(
        plain.units, report.units,
        "flight recording must not change sweep outcomes"
    );

    for (unit, f) in [(0usize, &f0), (1, &f1)] {
        let rec = Recording::load(f).unwrap_or_else(|e| panic!("unit {unit} flight: {e}"));
        // Scoring needs the run header, so this also checks it survived.
        assert!(
            db_inference::provenance::quality_report(&rec).is_some(),
            "unit {unit} recording is not scoreable"
        );
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_file(&path);
}
