//! db-lint: the Drift-Bottle workspace invariant checker.
//!
//! A std-only static analysis pass enforcing the invariants the compiler
//! cannot see (DESIGN.md §12): deterministic-tier crates stay free of
//! iteration-order and wall-clock nondeterminism, per-packet hot paths stay
//! panic- and allocation-free, and wire modules keep big-endian discipline
//! with encode/decode symmetry. Nothing is grandfathered: a finding is fixed
//! or carries an allow annotation that states its reason.

pub mod conc;
pub mod config;
pub mod docsync;
pub mod findings;
pub mod rules;
pub mod schema;
pub mod source;

use config::LintConfig;
use findings::Finding;
use source::ScannedFile;
use std::path::{Path, PathBuf};

/// Result of a full `check` run.
#[derive(Debug)]
pub struct Report {
    /// Every finding in the workspace, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Scan every tracked `.rs` file under `root` and run the tier rules,
/// then the cross-file knob/doc sync pass.
pub fn run_check(root: &Path, cfg: &LintConfig) -> Result<Report, String> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut scanned: Vec<(ScannedFile, String)> = Vec::new();
    for rel in &files {
        let abs = root.join(rel);
        let content =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        let sf = ScannedFile::scan(rel, &content);
        findings.extend(rules::check_file(&sf, cfg));
        scanned.push((sf, content));
    }
    check_tiers(root, cfg, &scanned)?;
    findings.extend(docsync::check(root, cfg, &scanned)?);
    findings.sort();
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Every tier entry must name something that exists: a `[hotpath]` file and
/// each of its functions, a `[wire]` file, a `[deterministic]` or
/// `[concurrency]` crate. A stale entry would switch its rules off without
/// a word, so it is an error, like a missing `[docsync]` path.
fn check_tiers(
    root: &Path,
    cfg: &LintConfig,
    scanned: &[(ScannedFile, String)],
) -> Result<(), String> {
    let file = |tier: &str, path: &str| {
        scanned
            .iter()
            .map(|(sf, _)| sf)
            .find(|sf| sf.rel_path == path)
            .ok_or_else(|| format!("[{tier}] names {path}, which is not a scanned file"))
    };
    for (path, fns) in &cfg.hotpath {
        let sf = file("hotpath", path)?;
        if let Some(name) = fns.iter().find(|n| !sf.fns.iter().any(|f| &f.name == *n)) {
            return Err(format!(
                "[hotpath] names fn `{name}`, which {path} does not have"
            ));
        }
    }
    for path in &cfg.wire_files {
        file("wire", path)?;
    }
    for (tier, crates) in [
        ("deterministic", &cfg.deterministic_crates),
        ("concurrency", &cfg.concurrency_crates),
    ] {
        for c in crates {
            let dir = if c == "." {
                root.to_path_buf()
            } else {
                root.join("crates").join(c)
            };
            if !dir.is_dir() {
                return Err(format!("[{tier}] names crate `{c}`, which does not exist"));
            }
        }
    }
    Ok(())
}

/// Directories never scanned: build output, VCS, and the linter's own
/// violation fixtures (each fixture exists to trip a rule).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | ".github" | "fixtures")
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("relativizing {}: {e}", path.display()))?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn det_cfg() -> LintConfig {
        LintConfig {
            deterministic_crates: vec!["core".into()],
            hotpath: BTreeMap::new(),
            ..LintConfig::default()
        }
    }

    fn scan(code: &str) -> ScannedFile {
        ScannedFile::scan("crates/core/src/x.rs", code)
    }

    fn rule_ids(code: &str, cfg: &LintConfig) -> Vec<&'static str> {
        rules::check_file(&scan(code), cfg)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn scrubbing_hides_comments_and_strings() {
        let cfg = det_cfg();
        assert!(rule_ids("// a HashMap would be bad\n", &cfg).is_empty());
        assert!(rule_ids("let s = \"HashMap\";\n", &cfg).is_empty());
        assert!(rule_ids("/* Instant::now */ let x = 1;\n", &cfg).is_empty());
        assert_eq!(
            rule_ids("use std::collections::HashMap;\n", &cfg),
            ["det-hash-iter"]
        );
    }

    #[test]
    fn raw_strings_and_chars_are_scrubbed() {
        let cfg = det_cfg();
        assert!(rule_ids("let s = r#\"HashMap == 1.5\"#;\n", &cfg).is_empty());
        assert!(rule_ids("let c = 'x'; let l: Vec<&'static str> = vec![];\n", &cfg).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_det_rules() {
        let cfg = det_cfg();
        let code = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(rule_ids(code, &cfg).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_without_reason_reports() {
        let cfg = det_cfg();
        let ok = "use std::collections::HashMap; // db-lint: allow(det-hash-iter) — lookup only\n";
        assert!(rule_ids(ok, &cfg).is_empty());
        let bare = "use std::collections::HashMap; // db-lint: allow(det-hash-iter)\n";
        assert_eq!(rule_ids(bare, &cfg), ["allow-reason"]);
        let next_line =
            "// db-lint: allow(det-hash-iter) — lookup only\nuse std::collections::HashMap;\n";
        assert!(rule_ids(next_line, &cfg).is_empty());
    }

    #[test]
    fn fn_scoped_allow_covers_the_whole_body() {
        let mut cfg = det_cfg();
        cfg.hotpath
            .insert("crates/core/src/x.rs".into(), vec!["hot".into()]);
        let code = "// db-lint: allow(hot-index) — dense state, bounds fixed at setup\nfn hot(&mut self) {\n    let a = self.slots[i];\n    let b = self.slots[j];\n}\nfn cold(&mut self) {\n    let c = self.slots[k];\n}\n";
        // Both indexed lines inside `hot` are covered by the one annotation;
        // `cold` is not in the hot list so produces nothing either.
        assert!(rule_ids(code, &cfg).is_empty());
        let trailing = "fn hot(&mut self) { // db-lint: allow(hot-index) — bounds fixed at setup\n    let a = self.slots[i];\n}\n";
        assert!(rule_ids(trailing, &cfg).is_empty());
    }

    #[test]
    fn float_eq_flags_nonzero_literals_only() {
        let cfg = det_cfg();
        assert_eq!(rule_ids("if x == 1.5 { }\n", &cfg), ["det-float-eq"]);
        assert_eq!(rule_ids("if 0.95_f64 != y { }\n", &cfg), ["det-float-eq"]);
        assert!(rule_ids("if x == 0.0 { }\n", &cfg).is_empty());
        assert!(rule_ids("if a.b == c.d { }\n", &cfg).is_empty());
        assert!(rule_ids("if n == 3 { }\n", &cfg).is_empty());
        assert!(rule_ids("if x <= 1.5 { }\n", &cfg).is_empty());
    }

    #[test]
    fn hotpath_rules_scope_to_listed_fns() {
        let mut cfg = det_cfg();
        cfg.hotpath
            .insert("crates/core/src/x.rs".into(), vec!["on_packet".into()]);
        let code = "fn on_packet(&mut self) {\n    let v = self.map.get(&k).unwrap();\n}\nfn setup(&mut self) {\n    let v = self.map.get(&k).unwrap();\n}\n";
        let found = rules::check_file(&scan(code), &cfg);
        let hot: Vec<_> = found.iter().filter(|f| f.rule == "hot-panic").collect();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].line, 2);
    }

    #[test]
    fn hot_index_and_alloc_fire_in_hot_fns() {
        let mut cfg = det_cfg();
        cfg.hotpath
            .insert("crates/core/src/x.rs".into(), vec!["hot".into()]);
        let code = "fn hot(&mut self) {\n    let x = self.slots[i];\n    let v = Vec::new();\n}\n";
        let ids = rule_ids(code, &cfg);
        assert!(ids.contains(&"hot-index"));
        assert!(ids.contains(&"hot-alloc"));
    }

    #[test]
    fn wire_rules_flag_casts_and_endianness() {
        let mut cfg = det_cfg();
        cfg.wire_files = vec!["crates/core/src/x.rs".into()];
        let ids = rule_ids("let x = v as u16;\n", &cfg);
        assert!(ids.contains(&"wire-cast"));
        let ids = rule_ids("let b = v.to_le_bytes();\n", &cfg);
        assert!(ids.contains(&"wire-endian"));
        assert!(rule_ids("let b = v.to_be_bytes();\n", &cfg).is_empty());
    }

    #[test]
    fn wire_symmetry_requires_decode_and_round_trip() {
        let mut cfg = det_cfg();
        cfg.wire_files = vec!["crates/core/src/x.rs".into()];
        let lonely = "pub fn encode_thing() { }\n";
        let ids = rule_ids(lonely, &cfg);
        assert_eq!(ids.iter().filter(|r| **r == "wire-symmetry").count(), 2);
        let paired = "pub fn encode_thing() { }\npub fn decode_thing() { }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn round_trip() { }\n}\n";
        assert!(rule_ids(paired, &cfg).is_empty());
    }

    #[test]
    fn config_parses_the_tier_sections() {
        let text = "[deterministic]\ncrates = [\"core\", \"util\"]\n\n[hotpath]\n\"crates/core/src/system.rs\" = [\n  \"on_packet\",\n]\n\n[wire]\nfiles = [\"crates/util/src/wire.rs\"] # comment\n";
        let cfg = LintConfig::parse(text).unwrap();
        assert!(cfg.is_deterministic("crates/core/src/system.rs"));
        assert!(!cfg.is_deterministic("crates/runner/src/lib.rs"));
        assert_eq!(
            cfg.hotpath_fns("crates/core/src/system.rs").unwrap(),
            ["on_packet".to_string()]
        );
        assert!(cfg.is_wire("crates/util/src/wire.rs"));
    }
}
