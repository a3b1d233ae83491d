//! db-scope overhead benchmark, persisted to `results/BENCH_scope.json`.
//!
//! Two questions, answered on the same machine in one run:
//!
//! 1. **What does the hot-path tap cost?** [`hot`] is the probe db-scope
//!    leaves in the ten db-lint-registered hot functions. Disabled it is
//!    one relaxed atomic load; enabled it is a relaxed `fetch_add`. Both
//!    are measured per call.
//! 2. **What does `--trace` cost end to end?** The same flagship scenario
//!    is run alternately with no recorder and with a [`ScopeRecorder`]
//!    attached (profiler on, like the CLI), and the median wall clocks are
//!    compared. The budget is <=5% enabled; untraced runs skip every feed
//!    (the `Option` handle is `None`), so their only residue is the tap's
//!    relaxed load.
//!
//! `DB_SMOKE=1` runs a seconds-scale variant (tiny grid, 2 samples) for CI;
//! smoke runs print the JSON document instead of overwriting the committed
//! results file.

use criterion::Criterion;
use db_core::experiment::{run_scenario, sample_covered_links, ScenarioKind, ScenarioSetup};
use db_core::{prepare, PrepareConfig};
use db_telemetry::scope::{hot, profiler_disable, profiler_enable, HotFn};
use db_telemetry::ScopeRecorder;
use db_topology::zoo;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var("DB_SMOKE").map(|v| v == "1").unwrap_or(false)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let smoke = smoke();
    let mut c = Criterion::default().sample_size(if smoke { 2 } else { 40 });

    // 1. The tap itself, per call.
    profiler_disable();
    let tap_off_ns = c
        .bench_value("hot_tap_disabled", |b| {
            b.iter(|| hot(black_box(HotFn::OnPacket)))
        })
        .unwrap_or(f64::NAN);
    profiler_enable();
    let tap_on_ns = c
        .bench_value("hot_tap_enabled", |b| {
            b.iter(|| hot(black_box(HotFn::OnPacket)))
        })
        .unwrap_or(f64::NAN);
    profiler_disable();

    // 2. End-to-end scenario wall clock, untraced vs traced, interleaved
    //    so machine drift hits both arms equally.
    let (prep, topo_name, repeats) = if smoke {
        (
            prepare(
                zoo::grid(3, 3),
                &PrepareConfig {
                    n_link_scenarios: 4,
                    n_node_scenarios: 1,
                    n_healthy: 1,
                    train_density: 1.0,
                    ..Default::default()
                },
            ),
            "grid3x3",
            3,
        )
    } else {
        (db_bench::prepared("Geant2012"), "Geant2012", 7)
    };
    let link = sample_covered_links(&prep, 1, 0x5C0)[0];
    let kind = ScenarioKind::SingleLink(link);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    for _ in 0..repeats {
        let setup = ScenarioSetup::flagship(&prep, 1.0, 0x5C0);
        let t0 = Instant::now();
        black_box(run_scenario(&setup, &kind));
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let mut setup = ScenarioSetup::flagship(&prep, 1.0, 0x5C0);
        setup.instr.scope = Some(Arc::new(ScopeRecorder::default()));
        profiler_enable();
        let t0 = Instant::now();
        black_box(run_scenario(&setup, &kind));
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        profiler_disable();
    }
    let (off_ms, on_ms) = (median(untraced_ms), median(traced_ms));
    let overhead_pct = 100.0 * (on_ms - off_ms) / off_ms;
    println!(
        "scenario on {topo_name}: untraced {off_ms:.1} ms, traced {on_ms:.1} ms ({overhead_pct:+.2}%)"
    );

    let doc = format!(
        concat!(
            "{{\"bench\":\"scope\",\n",
            " \"config\":{{\"smoke\":{},\"topology\":\"{}\",\"repeats\":{}}},\n",
            " \"tap\":{{\"disabled_ns\":{:.3},\"enabled_ns\":{:.3}}},\n",
            " \"scenario\":{{\"untraced_ms\":{:.1},\"traced_ms\":{:.1},\"overhead_pct\":{:.2},\"budget_pct\":5.0}}}}\n"
        ),
        smoke, topo_name, repeats, tap_off_ns, tap_on_ns, off_ms, on_ms, overhead_pct,
    );
    if smoke {
        // Smoke numbers are meaningless; show the document, keep the
        // committed full-scale results intact.
        print!("{doc}");
    } else {
        let path = db_bench::results_dir().join("BENCH_scope.json");
        match std::fs::create_dir_all(db_bench::results_dir())
            .and_then(|()| std::fs::write(&path, &doc))
        {
            Ok(()) => println!("[bench snapshot written to {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}
