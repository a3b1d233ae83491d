//! The self-hosting test: the workspace this linter ships in must satisfy
//! its own invariants. A new violation in any tiered crate fails this test
//! before CI's `lint-invariants` job ever runs.

use db_lint::config::LintConfig;
use std::path::{Path, PathBuf};

/// The workspace root: two levels up from this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_findings() {
    let root = workspace_root();
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    let report = db_lint::run_check(&root, &cfg).expect("scan succeeds");
    assert!(
        report.findings.is_empty(),
        "lint violations (fix them or annotate with a reasoned \
         `// db-lint: allow(...)`):\n{}",
        db_lint::findings::render_table(&report.findings)
    );
}

#[test]
fn deterministic_tier_covers_the_pipeline_crates() {
    // The determinism guarantee is only as good as the tier list; pin the
    // crates whose outputs feed figures so a lint.toml edit can't silently
    // drop one.
    let root = workspace_root();
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("lint.toml parses");
    for krate in [
        "util",
        "topology",
        "flowmon",
        "dtree",
        "inference",
        "netsim",
        "core",
    ] {
        assert!(
            cfg.is_deterministic(&format!("crates/{krate}/src/lib.rs")),
            "crate `{krate}` fell out of the deterministic tier"
        );
    }
}
