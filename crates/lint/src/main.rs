//! `db-lint` CLI: `cargo run -p db-lint -- check [flags]`.

use db_lint::config::LintConfig;
use db_lint::findings::{render_json, render_table};
use db_lint::schema::Schema;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
db-lint — Drift-Bottle workspace invariant checker

USAGE:
  db-lint check [--deny] [--format=table|json] [--config=PATH] [--root=PATH]
                [--schema] [--write-schema] [--schema-path=PATH]
  db-lint rules

FLAGS:
  --deny             exit non-zero on any finding
  --format=FMT       report format: table (default) or json
  --config=PATH      tier config (default: <root>/lint.toml)
  --root=PATH        workspace root (default: nearest dir with lint.toml)
  --schema           diff the extracted wire schema against the committed
                     one; any incompatible layout change exits non-zero
  --write-schema     regenerate the committed wire schema from the code
  --schema-path=PATH committed schema (default: <root>/wire.schema.json)
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("db-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    match cmd.as_str() {
        "rules" => {
            for (id, desc) in db_lint::rules::ALL_RULES {
                println!("{id:15} {desc}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "check" => check(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let mut deny = false;
    let mut schema_check = false;
    let mut write_schema = false;
    let mut format = "table".to_string();
    let mut config_path: Option<PathBuf> = None;
    let mut schema_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    for a in args {
        if a == "--deny" {
            deny = true;
        } else if a == "--schema" {
            schema_check = true;
        } else if a == "--write-schema" {
            write_schema = true;
        } else if let Some(v) = a.strip_prefix("--format=") {
            format = v.to_string();
        } else if let Some(v) = a.strip_prefix("--config=") {
            config_path = Some(PathBuf::from(v));
        } else if let Some(v) = a.strip_prefix("--schema-path=") {
            schema_path = Some(PathBuf::from(v));
        } else if let Some(v) = a.strip_prefix("--root=") {
            root = Some(PathBuf::from(v));
        } else {
            return Err(format!("unknown flag `{a}`\n{USAGE}"));
        }
    }
    if format != "table" && format != "json" {
        return Err(format!("--format must be table or json, got `{format}`"));
    }

    let root = match root {
        Some(r) => r,
        None => find_root()?,
    };
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let schema_path = schema_path.unwrap_or_else(|| root.join("wire.schema.json"));

    let cfg = LintConfig::load(&config_path)?;

    if write_schema {
        let extracted = Schema::extract(&root, &cfg)?;
        std::fs::write(&schema_path, extracted.render())
            .map_err(|e| format!("writing {}: {e}", schema_path.display()))?;
        eprintln!(
            "db-lint: wrote {} ({} entries)",
            schema_path.display(),
            extracted.entries.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let mut schema_violations: Vec<String> = Vec::new();
    if schema_check {
        if !schema_path.exists() {
            return Err(format!(
                "--schema: {} does not exist; bootstrap it with --write-schema",
                schema_path.display()
            ));
        }
        let committed = Schema::load(&schema_path)?;
        let extracted = Schema::extract(&root, &cfg)?;
        schema_violations = committed.diff(&extracted);
        for v in &schema_violations {
            eprintln!("db-lint: schema drift: {v}");
        }
        if !schema_violations.is_empty() {
            eprintln!(
                "db-lint: wire schema drifted incompatibly ({} violation(s)); \
                 append inside a counted extension block or bump the version \
                 constant, then regenerate with --write-schema",
                schema_violations.len()
            );
        }
    }
    let report = db_lint::run_check(&root, &cfg)?;
    match format.as_str() {
        "json" => print!(
            "{{\n\"files_scanned\": {},\n\"findings_total\": {},\n\"findings\": {}}}\n",
            report.files_scanned,
            report.findings.len(),
            render_json(&report.findings)
        ),
        _ => {
            print!("{}", render_table(&report.findings));
            eprintln!(
                "db-lint: {} files, {} findings",
                report.files_scanned,
                report.findings.len()
            );
        }
    }
    if (deny && !report.findings.is_empty()) || !schema_violations.is_empty() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Walk up from the current directory to the nearest `lint.toml`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
    loop {
        if dir.join("lint.toml").exists() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err("no lint.toml found here or in any parent directory".into());
        }
    }
}
