//! Findings: what a rule reports, and how reports render.

use std::fmt::Write as _;

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier, e.g. `det-hash-iter`.
    pub rule: &'static str,
    /// What was matched (the offending token or construct).
    pub what: String,
    /// How to fix it.
    pub hint: &'static str,
}

/// Render findings as an aligned human-readable table.
pub fn render_table(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}: [{}] {} — {}",
            f.file, f.line, f.rule, f.what, f.hint
        );
    }
    out
}

/// Render findings as a JSON array (hand-rolled; the workspace builds
/// offline and the linter stays dependency-free).
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"what\": \"{}\", \"hint\": \"{}\"}}",
            escape(&f.file),
            f.line,
            escape(f.rule),
            escape(&f.what),
            escape(f.hint)
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Minimal JSON string escape.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
