//! Shared harness for the figure/table binaries.
//!
//! Every binary regenerates one table or figure of the paper's evaluation
//! (§6) as an aligned text table on stdout plus a CSV under `results/`
//! ([`emit`]). Every sweep-driven figure and ablation runs its units
//! through [`run_sweep`], which decides in one place what a figure run
//! does with the environment and with a failed unit.
//!
//! Scale control: by default the sweeps are sub-sampled so the whole set of
//! binaries completes in minutes on a laptop. Set `DB_FULL=1` to traverse
//! every scenario the paper does (every covered link, every node, all ten
//! densities, thirty epochs), which takes hours on the large topologies;
//! those runs checkpoint, so a killed one resumes. Set `DB_TRACE=1` for a
//! db-scope trace per unit; the CSVs stay byte-identical.

use db_core::{prepare, PrepareConfig, Prepared, ScenarioOutcome};
use db_runner::SweepBuilder;
use db_util::table::TextTable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set when a sweep unit failed; [`emit`] exits non-zero once the CSV is
/// written.
static UNIT_FAILED: AtomicBool = AtomicBool::new(false);

/// Whether full-scale sweeps were requested via `DB_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("DB_FULL").is_ok_and(|v| v == "1")
}

/// Pick a sweep size: `quick` by default, `full` under `DB_FULL=1`.
pub fn scale(quick: usize, full: usize) -> usize {
    if full_scale() {
        full
    } else {
        quick
    }
}

/// The evaluation topology names, in Table-3 order.
pub const TOPOLOGIES: [&str; 4] = ["Geant2012", "Chinanet", "Tinet", "AS1221"];

/// Prepare a topology by name (routes + windows + trained classifier) with
/// the default training pipeline.
pub fn try_prepared(name: &str) -> Result<Prepared, db_topology::LoadError> {
    Ok(prepare(
        db_topology::load::load(name)?,
        &PrepareConfig::default(),
    ))
}

/// [`try_prepared`], panicking on an unknown name — fine in the figure
/// binaries, whose topology lists are compile-time constants.
pub fn prepared(name: &str) -> Prepared {
    try_prepared(name).unwrap_or_else(|e| panic!("{e}"))
}

/// [`prepared`] for each name in turn. Sequential on purpose: `prepare`
/// already fans its training scenarios out over every worker, and one
/// topology's training set at a time is the memory footprint.
pub fn prepared_all(names: &[&str]) -> Vec<Prepared> {
    names.iter().map(|name| prepared(name)).collect()
}

/// Topologies for quick runs (the two the paper's locality figure uses) or
/// all four under `DB_FULL=1`.
pub fn active_topologies() -> Vec<&'static str> {
    if full_scale() {
        TOPOLOGIES.to_vec()
    } else {
        vec!["Geant2012", "Chinanet"]
    }
}

/// Run the figure sweep `name` over `prep`, set up by `configure`, and
/// return the outcomes of its completed units in unit order. Under
/// `DB_FULL=1` it checkpoints to `results/<name>.ckpt.jsonl`, resumes from
/// there and reports progress; under `DB_TRACE=1` every unit writes a
/// trace. A failed unit is named on stderr with its scenario, and [`emit`]
/// then exits non-zero.
pub fn run_sweep<'a>(
    name: &str,
    prep: &'a Prepared,
    configure: impl FnOnce(SweepBuilder<'a>) -> SweepBuilder<'a>,
) -> Vec<ScenarioOutcome> {
    let traced = std::env::var("DB_TRACE").is_ok_and(|v| v == "1");
    let mut sweep = configure(SweepBuilder::new(name, prep)).trace(traced);
    if full_scale() {
        sweep = sweep
            .checkpoint(results_dir().join(format!("{name}.ckpt.jsonl")))
            .resume(true)
            .progress(true);
    }
    let report = sweep.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    let jobs = sweep.jobs();
    for (unit, err) in report.failed() {
        eprintln!("[{name} unit {unit} ({:?}) failed: {err}]", jobs[unit].kind);
        UNIT_FAILED.store(true, Ordering::Relaxed);
    }
    report.cloned_outcomes()
}

/// Print the table and write `results/<name>.csv`. Exits non-zero when the
/// CSV cannot be written, so a stale committed CSV never passes for a
/// regenerated one, and after writing it when a sweep unit failed.
pub fn emit(name: &str, table: &TextTable) {
    println!("{}", table.render());
    let dir = results_dir();
    match write_csv(&dir, name, table) {
        Ok(path) => println!("[csv written to {}]\n", path.display()),
        Err(e) => {
            eprintln!("error: {name}.csv not written to {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if UNIT_FAILED.load(Ordering::Relaxed) {
        eprintln!("error: {name}.csv leaves out the failed units named above");
        std::process::exit(1);
    }
}

/// Write `<dir>/<name>.csv`, creating `dir` first.
fn write_csv(dir: &Path, name: &str, table: &TextTable) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

/// Where CSVs land: `<workspace>/results`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_core::experiment::ScenarioKind;
    use db_topology::zoo;

    #[test]
    fn scale_respects_env_default() {
        // The test environment does not set DB_FULL.
        if !full_scale() {
            assert_eq!(scale(3, 100), 3);
        }
    }

    #[test]
    fn results_dir_is_workspace_level() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(!d.to_string_lossy().contains("crates"));
    }

    #[test]
    fn write_csv_reports_a_failed_create_or_write() {
        let mut t = TextTable::new("t", &["a"]);
        t.row(&["1".to_string()]);
        let dir = std::env::temp_dir().join(format!("db-bench-csv-{}", std::process::id()));
        let path = write_csv(&dir, "ok", &t).expect("writable directory");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), t.to_csv());
        // A regular file where the directory should be: create_dir_all fails.
        assert!(write_csv(&path, "under-a-file", &t).is_err());
        // The CSV's own path taken by a directory: the write fails.
        std::fs::create_dir_all(dir.join("taken.csv")).unwrap();
        assert!(write_csv(&dir, "taken", &t).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A unit that panics is left out of the outcomes and flagged, so
    /// `emit` exits non-zero after writing the CSV of the others.
    #[test]
    fn a_failed_unit_is_flagged_and_the_others_returned() {
        let prep = prepare(
            zoo::grid(3, 3),
            &PrepareConfig {
                n_link_scenarios: 2,
                n_node_scenarios: 1,
                n_healthy: 1,
                ..Default::default()
            },
        );
        let outcomes = run_sweep("bench-failed-unit", &prep, |s| {
            s.scenarios([
                ScenarioKind::None,
                // More failed links than the grid has: `build` panics.
                ScenarioKind::RandomLinks {
                    count: usize::MAX,
                    seed: 0,
                },
            ])
        });
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].ground_truth.is_empty());
        assert!(UNIT_FAILED.load(Ordering::Relaxed));
    }

    #[test]
    fn topology_names_resolve() {
        for name in TOPOLOGIES {
            assert!(zoo::by_name(name).is_some(), "{name}");
        }
    }
}
