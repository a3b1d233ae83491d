//! Trace determinism across worker counts.
//!
//! A sweep with `--trace` writes one Chrome-trace JSON per unit. Wall-clock
//! span durations and profiler counts legitimately differ between runs,
//! but everything else — the meta header, every per-window series, and the
//! span tree's names/parents — must be identical whether the sweep ran on
//! one worker or eight. [`TraceData::deterministic_digest`] is exactly
//! that wall-clock-free surface; this test pins its equality per unit.
//!
//! Tracing must also leave the sweep outcomes themselves untouched: the
//! unit list of a traced 8-worker run is compared against an untraced
//! 1-worker baseline.

use drift_bottle::core::classifier::{prepare, PrepareConfig};
use drift_bottle::core::experiment::ScenarioKind;
use drift_bottle::prelude::*;
use drift_bottle::telemetry::TraceData;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "db-trace-determinism-{}-{tag}.ckpt.jsonl",
        std::process::id()
    ))
}

#[test]
fn traces_are_identical_across_worker_counts() {
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
        ScenarioKind::SingleLink(LinkId(7)),
        ScenarioKind::None,
    ];
    let build = |path: &PathBuf| {
        SweepBuilder::new("grid-trace", &prep)
            .density(1.0)
            .seed(7)
            .scenarios(scenarios.iter().cloned())
            .checkpoint(path)
    };

    let base_path = scratch("baseline");
    let baseline = build(&base_path).workers(1).run().expect("baseline sweep");
    let _ = std::fs::remove_file(&base_path);

    let mut digests: Vec<Vec<String>> = Vec::new();
    for (tag, workers) in [("w1", 1usize), ("w8", 8usize)] {
        let path = scratch(tag);
        let sweep = build(&path).workers(workers).trace(true);
        let report = sweep.run().expect("traced sweep");
        assert!(report.is_complete());
        if workers == 8 {
            assert_eq!(
                baseline.units, report.units,
                "tracing changed sweep outcomes"
            );
        }
        let mut per_unit = Vec::new();
        for unit in 0..scenarios.len() {
            let tp = sweep.trace_path(unit);
            let trace = TraceData::load(&tp).unwrap_or_else(|e| panic!("unit {unit} trace: {e}"));
            assert!(
                trace.meta.is_some(),
                "unit {unit} trace lost its meta header"
            );
            per_unit.push(trace.deterministic_digest());
            let _ = std::fs::remove_file(&tp);
        }
        let _ = std::fs::remove_file(&path);
        digests.push(per_unit);
    }
    assert_eq!(
        digests[0], digests[1],
        "per-unit trace digests differ between 1 and 8 workers"
    );
}
