//! Shared harness for the figure/table binaries.
//!
//! Every binary regenerates one table or figure of the paper's evaluation
//! (§6) as an aligned text table on stdout plus a CSV under `results/`.
//!
//! Scale control: by default the sweeps are sub-sampled so the whole set of
//! binaries completes in minutes on a laptop. Set `DB_FULL=1` to traverse
//! every scenario the paper does (every covered link, every node, all ten
//! densities, thirty epochs), which takes hours on the large topologies.

use db_core::{prepare, PrepareConfig, Prepared};
use db_util::table::TextTable;
use std::path::PathBuf;

/// Whether full-scale sweeps were requested via `DB_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("DB_FULL").map(|v| v == "1").unwrap_or(false)
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

/// Print the table and also write `results/<name>.csv`.
pub fn emit(name: &str, table: &TextTable) {
    println!("{}", table.render());
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => println!("[csv written to {}]\n", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
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
    fn topology_names_resolve() {
        for name in TOPOLOGIES {
            assert!(zoo::by_name(name).is_some(), "{name}");
        }
    }
}
