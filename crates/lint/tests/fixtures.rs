//! Rule-by-rule fixture tests: every rule has a positive fixture that must
//! trip exactly that rule and a negative twin that must scan clean; the
//! concurrency and docsync rules additionally have an `_allow` variant
//! carrying a reasoned annotation that must also scan clean. Each fixture
//! is staged into a throwaway root at the path that puts it in the right
//! tier, then checked both through the library and — for positives —
//! through the real binary with `--deny` (which must exit non-zero).

use db_lint::config::LintConfig;
use db_lint::run_check;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The tier layout every fixture root gets: `util` and `core` are
/// deterministic, `crates/core/src/hot.rs` has one hot fn,
/// `crates/core/src/wire.rs` is wire tier, and `crates/conc` is the
/// concurrency tier (with `add` as the only allowlisted counter method).
const FIXTURE_LINT_TOML: &str = r#"
[deterministic]
crates = ["util", "core"]

[hotpath]
"crates/core/src/hot.rs" = ["hot_fn"]

[wire]
files = ["crates/core/src/wire.rs"]

[concurrency]
crates = ["conc"]
counter_methods = ["add"]
"#;

/// A clean member for each entry of [`FIXTURE_LINT_TOML`], staged where the
/// fixture under test does not already stand.
const TIER_STUBS: &[(&str, &str)] = &[
    ("crates/util/src/lib.rs", ""),
    ("crates/core/src/hot.rs", "fn hot_fn() {}\n"),
    ("crates/core/src/wire.rs", ""),
    ("crates/conc/src/lib.rs", ""),
];

/// Appended to the staged `lint.toml` for doc-* fixtures, whose roots
/// also carry a README and a CLI source (see `doc_companions`).
const DOCSYNC_TOML: &str = r#"
[docsync]
readme = "README.md"
cli = "src/bin/cli.rs"
"#;

/// Where a fixture lands inside the staged root, by rule family.
fn placement(rule: &str) -> &'static str {
    if rule.starts_with("hot-") {
        "crates/core/src/hot.rs"
    } else if rule.starts_with("wire-") {
        "crates/core/src/wire.rs"
    } else if rule.starts_with("conc-") {
        "crates/conc/src/fixture.rs"
    } else if rule.starts_with("doc-") {
        // Untiered crate: only the docsync pass applies.
        "crates/app/src/fixture.rs"
    } else {
        // det-* and allow-reason: any deterministic-tier file.
        "crates/util/src/fixture.rs"
    }
}

/// The README and CLI source staged alongside a doc-* fixture. What each
/// one documents is the variable under test: the positive cases drop the
/// knob or flag from exactly one document, the negatives document
/// everything, and the allow cases annotate the drift instead.
fn doc_companions(rule: &str, suffix: &str) -> (String, String) {
    let head = "# fixture\n\nA tiny CLI. `--alpha` selects the fixture plan.\n";
    let beta_doc = "`--beta` dumps the plan and exits.\n";
    let knob_section = "\n## Environment knobs\n\n| variable | effect |\n|---|---|\n\
         | `DB_FIXTURE_KNOB=N` | fixture capacity |\n";
    let stale_section = "\n## Environment knobs\n\n| variable | effect |\n|---|---|\n\
         | `DB_UNUSED_KNOB=N` | retired; row kept by mistake |\n";
    let allowed_stale_section = "\n## Environment knobs\n\n| variable | effect |\n|---|---|\n\
         | `DB_UNUSED_KNOB=N` | shipping next release \
         <!-- db-lint: allow(doc-knob-stale) — documented ahead of the 0.9 cut --> |\n";

    let cli = |flags: &str, env_line: &str| {
        format!(
            "//! Fixture CLI staged next to doc-* fixtures.\n\n\
             const FLAGS: &[&str] = &[{flags}];\n\n\
             fn usage() -> &'static str {{\n    \"usage: fixture [flags]\\n{env_line}\"\n}}\n\n\
             fn main() {{\n    let _ = FLAGS;\n    println!(\"{{}}\", usage());\n}}\n"
        )
    };
    let cli_with_knob = cli("\"--alpha\"", "  DB_FIXTURE_KNOB=N  fixture capacity\\n");
    let cli_plain = cli("\"--alpha\"", "");
    let cli_beta = cli("\"--alpha\", \"--beta\"", "");
    let cli_beta_allowed = "//! Fixture CLI staged next to doc-* fixtures.\n\n\
         const FLAGS: &[&str] = &[\"--alpha\", \"--beta\"]; \
         // db-lint: allow(doc-flag-readme) — hidden debug flag, deliberately undocumented\n\n\
         fn main() {\n    let _ = FLAGS;\n}\n"
        .to_string();

    match (rule, suffix) {
        ("doc-knob-readme", "pos" | "allow") => (head.to_string(), cli_with_knob),
        ("doc-knob-help", "pos" | "allow") => (format!("{head}{knob_section}"), cli_plain),
        ("doc-knob-readme" | "doc-knob-help" | "doc-knob-stale", "neg") => {
            (format!("{head}{knob_section}"), cli_with_knob)
        }
        ("doc-knob-stale", "pos") => (format!("{head}{stale_section}"), cli_plain),
        ("doc-knob-stale", "allow") => (format!("{head}{allowed_stale_section}"), cli_plain),
        ("doc-flag-readme", "pos") => (head.to_string(), cli_beta),
        ("doc-flag-readme", "neg") => (format!("{head}{beta_doc}"), cli_beta),
        ("doc-flag-readme", "allow") => (head.to_string(), cli_beta_allowed),
        _ => unreachable!("no doc companions defined for {rule} {suffix}"),
    }
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A staged fixture root, removed once its test is done with it.
struct Staged(PathBuf);

impl std::ops::Deref for Staged {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Stage `fixture` into a fresh root laid out for its rule and return the
/// root. Roots are per process, test and fixture: two tests stage the same
/// fixtures in parallel, and two test runs may share the temp directory,
/// so a root keyed by less is one another test clears while this one
/// lints it.
fn stage(test: &str, rule: &str, fixture: &str) -> Staged {
    let root = std::env::temp_dir().join("db-lint-fixtures").join(format!(
        "{}-{test}-{}",
        std::process::id(),
        fixture.trim_end_matches(".rs")
    ));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fixture root");
    }
    let dest = root.join(placement(rule));
    fs::create_dir_all(dest.parent().expect("placement has a parent")).expect("mkdir");
    fs::copy(fixtures_dir().join(fixture), &dest).expect("copy fixture");
    // Every tier entry of the staged config must name something that
    // exists; the fixture stands in for one, clean stubs for the rest.
    for (path, stub) in TIER_STUBS {
        let path = root.join(path);
        if !path.exists() {
            fs::create_dir_all(path.parent().expect("stub has a parent")).expect("mkdir");
            fs::write(path, stub).expect("write stub");
        }
    }
    if rule.starts_with("doc-") {
        let suffix = fixture
            .trim_end_matches(".rs")
            .rsplit('_')
            .next()
            .expect("fixture has a suffix");
        let (readme, cli) = doc_companions(rule, suffix);
        fs::write(root.join("README.md"), readme).expect("write README");
        let cli_dest = root.join("src/bin/cli.rs");
        fs::create_dir_all(cli_dest.parent().expect("cli parent")).expect("mkdir cli");
        fs::write(cli_dest, cli).expect("write cli");
        let toml = format!("{FIXTURE_LINT_TOML}{DOCSYNC_TOML}");
        fs::write(root.join("lint.toml"), toml).expect("write lint.toml");
    } else {
        fs::write(root.join("lint.toml"), FIXTURE_LINT_TOML).expect("write lint.toml");
    }
    Staged(root)
}

fn check(root: &Path) -> Vec<db_lint::findings::Finding> {
    let cfg = LintConfig::load(&root.join("lint.toml")).expect("fixture config parses");
    run_check(root, &cfg).expect("scan succeeds").findings
}

/// Every rule id with its fixture pair.
const CASES: &[&str] = &[
    "det-hash-iter",
    "det-time",
    "det-float-eq",
    "det-rng",
    "hot-panic",
    "hot-index",
    "hot-alloc",
    "wire-cast",
    "wire-endian",
    "wire-symmetry",
    "allow-reason",
    "conc-nested-lock",
    "conc-guard-io",
    "conc-lock-unwrap",
    "conc-relaxed-publish",
    "doc-knob-readme",
    "doc-knob-help",
    "doc-knob-stale",
    "doc-flag-readme",
];

/// Rules whose fixtures also include an `_allow` variant: the positive
/// shape plus a reasoned annotation, which must scan clean.
const ALLOW_CASES: &[&str] = &[
    "conc-nested-lock",
    "conc-guard-io",
    "conc-lock-unwrap",
    "conc-relaxed-publish",
    "doc-knob-readme",
    "doc-knob-help",
    "doc-knob-stale",
    "doc-flag-readme",
];

fn fixture_name(rule: &str, suffix: &str) -> String {
    format!("{}_{suffix}.rs", rule.replace('-', "_"))
}

#[test]
fn every_positive_fixture_trips_exactly_its_rule() {
    for rule in CASES {
        let root = stage(
            "every_positive_fixture_trips_exactly_its_rule",
            rule,
            &fixture_name(rule, "pos"),
        );
        let findings = check(&root);
        assert!(
            !findings.is_empty(),
            "{rule}: positive fixture produced no findings"
        );
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{rule}: positive fixture tripped {} at {}:{}",
                f.rule, f.file, f.line
            );
        }
    }
}

#[test]
fn every_negative_fixture_scans_clean() {
    for rule in CASES {
        let root = stage(
            "every_negative_fixture_scans_clean",
            rule,
            &fixture_name(rule, "neg"),
        );
        let findings = check(&root);
        assert!(
            findings.is_empty(),
            "{rule}: negative fixture tripped {:?}",
            findings
                .iter()
                .map(|f| format!("{} at {}:{}", f.rule, f.file, f.line))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_allow_fixture_scans_clean() {
    for rule in ALLOW_CASES {
        let root = stage(
            "every_allow_fixture_scans_clean",
            rule,
            &fixture_name(rule, "allow"),
        );
        let findings = check(&root);
        assert!(
            findings.is_empty(),
            "{rule}: allow fixture tripped {:?}",
            findings
                .iter()
                .map(|f| format!("{} at {}:{}", f.rule, f.file, f.line))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn deny_exits_nonzero_on_each_violation_fixture() {
    for rule in CASES {
        let root = stage(
            "deny_exits_nonzero_on_each_violation_fixture",
            rule,
            &fixture_name(rule, "pos"),
        );
        let out = Command::new(env!("CARGO_BIN_EXE_db-lint"))
            .arg("check")
            .arg("--deny")
            .arg(format!("--root={}", root.display()))
            .output()
            .expect("run db-lint");
        assert!(
            !out.status.success(),
            "{rule}: `check --deny` exited 0 on the violation fixture\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn deny_exits_zero_on_clean_fixture_roots() {
    for rule in CASES {
        let root = stage(
            "deny_exits_zero_on_clean_fixture_roots",
            rule,
            &fixture_name(rule, "neg"),
        );
        let out = Command::new(env!("CARGO_BIN_EXE_db-lint"))
            .arg("check")
            .arg("--deny")
            .arg(format!("--root={}", root.display()))
            .output()
            .expect("run db-lint");
        assert!(
            out.status.success(),
            "{rule}: `check --deny` failed on the clean fixture\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// An allow naming a rule whose tier does not cover the file suppresses
/// nothing, so it is reported; the allow of a covering tier is not.
#[test]
fn an_allow_outside_its_rules_tier_is_reported() {
    let root = stage(
        "an_allow_outside_its_rules_tier_is_reported",
        "allow-reason",
        "allow_reason_tier.rs",
    );
    let got: Vec<(usize, &str, String)> = check(&root)
        .into_iter()
        .map(|f| (f.line, f.rule, f.what))
        .collect();
    let want = [
        (8, "hot-index", "hotpath"),
        (10, "wire-cast", "wire"),
        (12, "conc-lock-unwrap", "concurrency"),
    ]
    .map(|(line, rule, tier)| {
        let what = format!("allow({rule}) in a file outside the [{tier}] tier suppresses nothing");
        (line, "allow-reason", what)
    });
    assert_eq!(got, want);
}

/// A tier entry that names nothing is refused, by the library and by the
/// binary, instead of switching its rules off; the staged config with every
/// entry present passes. (`workspace.rs` runs the committed `lint.toml`.)
#[test]
fn a_stale_tier_entry_is_refused() {
    let root = stage(
        "a_stale_tier_entry_is_refused",
        "det-hash-iter",
        &fixture_name("det-hash-iter", "neg"),
    );
    assert!(check(&root).is_empty());
    for (stale, names) in [
        (
            FIXTURE_LINT_TOML.replace("hot.rs\" = [\"hot_fn\"]", "gone.rs\" = [\"hot_fn\"]"),
            "crates/core/src/gone.rs",
        ),
        (
            FIXTURE_LINT_TOML.replace("[\"hot_fn\"]", "[\"hot_fn\", \"gone_fn\"]"),
            "gone_fn",
        ),
        (
            FIXTURE_LINT_TOML.replace("src/wire.rs", "src/gone.rs"),
            "crates/core/src/gone.rs",
        ),
        (
            FIXTURE_LINT_TOML.replace("[\"util\", \"core\"]", "[\"util\", \"gone\"]"),
            "`gone`",
        ),
        (
            FIXTURE_LINT_TOML.replace("[\"conc\"]", "[\"gone\"]"),
            "`gone`",
        ),
    ] {
        assert_ne!(stale, FIXTURE_LINT_TOML, "the stale edit applies");
        fs::write(root.join("lint.toml"), &stale).expect("write lint.toml");
        let cfg = LintConfig::load(&root.join("lint.toml")).expect("stale config parses");
        let err = run_check(&root, &cfg).expect_err("a stale entry is refused");
        assert!(err.contains(names), "{names}: {err}");
        let out = Command::new(env!("CARGO_BIN_EXE_db-lint"))
            .arg("check")
            .arg("--deny")
            .arg(format!("--root={}", root.display()))
            .output()
            .expect("run db-lint");
        assert_eq!(out.status.code(), Some(2), "{names}: `check --deny` exit");
    }
}
