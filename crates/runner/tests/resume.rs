//! The db-runner contract tests: resume is bit-identical, outcomes are
//! worker-count-independent, and a poisoned unit cannot abort a sweep.
//! That a resumed sweep of every figure's failure shape answers as straight
//! runs do is pinned with every other mode in the root `tests/modes.rs`.

use db_core::classifier::{prepare, PrepareConfig, Prepared};
use db_core::experiment::ScenarioKind;
use db_core::ScenarioOutcome;
use db_netsim::{SimStats, SimTime};
use db_runner::{SweepBuilder, SweepError, SweepJob};
use db_topology::{zoo, LinkId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A tiny prepared grid shared by the tests (training is the slow part;
/// the synthetic tests never simulate on it).
fn grid_prep() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| {
        prepare(
            zoo::grid(3, 3),
            &PrepareConfig {
                n_link_scenarios: 2,
                n_node_scenarios: 1,
                n_healthy: 1,
                train_density: 1.0,
            },
        )
    })
}

/// A unique scratch path under the target-local temp dir.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "db-runner-test-{}-{tag}-{n}.ckpt.jsonl",
        std::process::id()
    ))
}

/// A deterministic synthetic outcome that bakes the job identity into
/// every checkpointed field — if replay or seed derivation ever depended
/// on scheduling, the equality assertions below would catch it.
fn synthetic(job: &SweepJob) -> ScenarioOutcome {
    let stats = SimStats {
        packets_sent: job.seed,
        delivered: job.seed ^ 0xABCD,
        events_processed: job.unit as u64,
        ..Default::default()
    };
    ScenarioOutcome {
        ground_truth: vec![LinkId(job.unit as u16)],
        t_fail: SimTime(job.seed),
        window: (SimTime(job.unit as u64), SimTime(job.seed)),
        variants: vec![],
        stats,
    }
}

fn synthetic_sweep(units: usize, seed: u64) -> SweepBuilder<'static> {
    SweepBuilder::new("synthetic", grid_prep())
        .seed(seed)
        .scenarios((0..units as u16).map(|i| ScenarioKind::SingleLink(LinkId(i))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Jobs — and therefore outcomes — are a pure function of the sweep
    /// configuration: 1, 2, and 8 workers produce identical outcome sets
    /// in identical unit order.
    #[test]
    fn worker_count_never_changes_outcomes(
        base in 0u64..1_000_000,
        units in 1usize..24,
    ) {
        let baseline = synthetic_sweep(units, base)
            .workers(1)
            .run_with(synthetic)
            .expect("sweep");
        prop_assert!(baseline.is_complete());
        for workers in [2usize, 8] {
            let report = synthetic_sweep(units, base)
                .workers(workers)
                .run_with(synthetic)
                .expect("sweep");
            prop_assert_eq!(&baseline.units, &report.units, "{} workers", workers);
        }
    }
}

#[test]
fn killed_synthetic_sweep_resumes_bit_identically() {
    // Uninterrupted golden run.
    let golden_path = scratch("golden");
    let golden = synthetic_sweep(9, 7)
        .checkpoint(&golden_path)
        .workers(2)
        .run_with(synthetic)
        .expect("golden sweep");
    assert!(golden.is_complete());

    // Same sweep, killed after 3 units, resumed twice (second resume hits
    // the already-complete path), at a different worker count.
    let path = scratch("resumed");
    let partial = synthetic_sweep(9, 7)
        .checkpoint(&path)
        .workers(3)
        .stop_after(Some(3))
        .run_with(synthetic)
        .expect("partial sweep");
    assert!(!partial.is_complete());
    assert_eq!(partial.executed, 3);

    let resumed = synthetic_sweep(9, 7)
        .checkpoint(&path)
        .workers(8)
        .resume(true)
        .run_with(synthetic)
        .expect("resumed sweep");
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.executed, 6);
    assert_eq!(
        golden.units, resumed.units,
        "outcomes must be bit-identical"
    );

    // Compacted checkpoints are byte-identical too — the CI diff relies
    // on this.
    let golden_bytes = std::fs::read(&golden_path).expect("golden checkpoint");
    let resumed_bytes = std::fs::read(&path).expect("resumed checkpoint");
    assert_eq!(golden_bytes, resumed_bytes, "checkpoint files must match");

    // Resuming a complete checkpoint replays everything and runs nothing.
    let replay = synthetic_sweep(9, 7)
        .checkpoint(&path)
        .resume(true)
        .run_with(|_| panic!("nothing should execute"))
        .expect("replay");
    assert_eq!(replay.resumed, 9);
    assert_eq!(replay.executed, 0);
    assert_eq!(golden.units, replay.units);

    let _ = std::fs::remove_file(golden_path);
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_panicking_unit_is_recorded_not_fatal() {
    let path = scratch("panic");
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = synthetic_sweep(6, 3)
        .checkpoint(&path)
        .workers(2)
        .run_with(|j| {
            if j.unit == 4 {
                panic!("injected failure in unit {}", j.unit);
            }
            synthetic(j)
        })
        .expect("sweep survives a unit panic");
    std::panic::set_hook(prev);
    assert!(report.is_complete());
    assert_eq!(report.outcomes().len(), 5);
    assert_eq!(
        report.failed(),
        vec![(4usize, "injected failure in unit 4")]
    );

    // Resume keeps the failure record: a deterministic panic would only
    // fail again.
    let kept = synthetic_sweep(6, 3)
        .checkpoint(&path)
        .resume(true)
        .run_with(|_| panic!("nothing should execute"))
        .expect("resume");
    assert_eq!(kept.resumed, 6);
    assert_eq!(kept.failed().len(), 1);

    let _ = std::fs::remove_file(path);
}

#[test]
fn resuming_under_a_different_config_is_refused() {
    let path = scratch("mismatch");
    synthetic_sweep(4, 1)
        .checkpoint(&path)
        .stop_after(Some(2))
        .run_with(synthetic)
        .expect("partial sweep");
    let err = synthetic_sweep(4, 2) // different seed
        .checkpoint(&path)
        .resume(true)
        .run_with(synthetic)
        .expect_err("mismatched config must be refused");
    assert!(matches!(err, SweepError::ConfigMismatch { .. }), "{err}");
    let _ = std::fs::remove_file(path);
}

/// The end-to-end pin: a real (small) Geant2012 sweep through the real
/// scenario runner, killed after one unit and resumed, must reproduce the
/// uninterrupted run bit-for-bit — outcomes and compacted checkpoint both.
#[test]
fn killed_geant2012_sweep_resumes_bit_identically() {
    let prep = prepare(
        zoo::geant2012(),
        &PrepareConfig {
            n_link_scenarios: 2,
            n_node_scenarios: 1,
            n_healthy: 1,
            train_density: 0.2,
        },
    );
    let links = db_core::experiment::sample_covered_links(&prep, 3, 5);
    let build = |path: &PathBuf| {
        SweepBuilder::new("geant2012-smoke", &prep)
            .density(0.2)
            .seed(11)
            .scenarios(links.iter().copied().map(ScenarioKind::SingleLink))
            .checkpoint(path)
    };

    let golden_path = scratch("geant-golden");
    let golden = build(&golden_path).workers(2).run().expect("golden sweep");
    assert!(golden.is_complete());
    assert!(golden.failed().is_empty());

    let path = scratch("geant-resumed");
    let partial = build(&path)
        .workers(1)
        .stop_after(Some(1))
        .run()
        .expect("partial sweep");
    assert_eq!(partial.executed, 1);
    let resumed = build(&path).workers(4).resume(true).run().expect("resume");
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed, 1);

    assert_eq!(
        golden.units, resumed.units,
        "outcomes must be bit-identical"
    );
    assert_eq!(
        std::fs::read(&golden_path).expect("golden checkpoint"),
        std::fs::read(&path).expect("resumed checkpoint"),
        "compacted checkpoints must be byte-identical"
    );
    let _ = std::fs::remove_file(golden_path);
    let _ = std::fs::remove_file(path);
}
