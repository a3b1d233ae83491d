//! The rule catalog, organized by crate tier (DESIGN.md §12).
//!
//! All matchers run over *scrubbed* lines (comments and literals blanked),
//! so prose never false-positives. Test code is exempt from every rule
//! except `wire-symmetry`, which inspects test code on purpose.

use crate::config::LintConfig;
use crate::findings::Finding;
use crate::source::ScannedFile;

/// (id, one-line description) for every rule, in catalog order.
pub const ALL_RULES: &[(&str, &str)] = &[
    (
        "det-hash-iter",
        "HashMap/HashSet in deterministic-tier code: iteration order is per-process random",
    ),
    (
        "det-time",
        "Instant::now/SystemTime::now in deterministic-tier code: wall-clock reads break replay",
    ),
    (
        "det-float-eq",
        "float ==/!= against a non-zero literal: use an epsilon or bit comparison",
    ),
    (
        "det-rng",
        "ambient randomness (thread_rng/OsRng/RandomState/...): use the seeded db-util RNG",
    ),
    (
        "hot-panic",
        "unwrap/expect/panic!/assert! in a per-packet function: hot paths must not panic",
    ),
    (
        "hot-index",
        "slice indexing in a per-packet function: a bad index panics; use get/get_mut",
    ),
    (
        "hot-alloc",
        "heap allocation in a per-packet function: the hot path is allocation-free",
    ),
    (
        "wire-cast",
        "`as` integer cast in a wire module: silent truncation corrupts frames; use try_from/From",
    ),
    (
        "wire-endian",
        "little/native-endian byte call in a wire module: the wire format is big-endian",
    ),
    (
        "wire-symmetry",
        "encode* without a decode* sibling or a round-trip test in the same module",
    ),
    (
        "conc-nested-lock",
        "two mutex guards live in one scope: deadlock-prone ordering; merge or sequence the locks",
    ),
    (
        "conc-guard-io",
        "mutex guard held across socket/file I/O: one slow peer stalls every other holder",
    ),
    (
        "conc-lock-unwrap",
        ".lock().unwrap()/.expect() outside tests: poison cascades; use db_util::sync::lock_recover",
    ),
    (
        "conc-relaxed-publish",
        "Ordering::Relaxed outside the counter allowlist: gates other data without ordering",
    ),
    (
        "doc-knob-readme",
        "DB_* env var read in code but missing from the README env-knobs table",
    ),
    (
        "doc-knob-help",
        "DB_* env var read in code but missing from the CLI --help text",
    ),
    (
        "doc-knob-stale",
        "README documents a DB_* knob nothing reads",
    ),
    (
        "doc-flag-readme",
        "flag in the CLI command table but missing from the README",
    ),
    (
        "allow-reason",
        "db-lint allow annotation without a reason, naming an unknown rule, or outside its rule's tier",
    ),
];

pub fn is_known_rule(id: &str) -> bool {
    ALL_RULES.iter().any(|(r, _)| *r == id)
}

/// Run every applicable tier's rules over one scanned file.
pub fn check_file(sf: &ScannedFile, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    allow_rules(sf, cfg, &mut out);
    if cfg.is_deterministic(&sf.rel_path) {
        det_rules(sf, &mut out);
    }
    if let Some(fns) = cfg.hotpath_fns(&sf.rel_path) {
        hot_rules(sf, fns, &mut out);
    }
    if cfg.is_wire(&sf.rel_path) {
        wire_rules(sf, &mut out);
    }
    if cfg.is_concurrency(&sf.rel_path) {
        crate::conc::conc_rules(sf, cfg, &mut out);
    }
    out.sort();
    out
}

fn push(
    out: &mut Vec<Finding>,
    sf: &ScannedFile,
    line: usize,
    rule: &'static str,
    what: String,
    hint: &'static str,
) {
    if !sf.is_allowed(rule, line) {
        out.push(Finding {
            file: sf.rel_path.clone(),
            line,
            rule,
            what,
            hint,
        });
    }
}

// ---- allow annotations -----------------------------------------------------

/// The tier `rule` belongs to, when that tier does not cover the file at
/// `path` (so an allow of `rule` there suppresses nothing).
fn uncovering_tier(rule: &str, path: &str, cfg: &LintConfig) -> Option<&'static str> {
    let (tier, covered) = match rule.split('-').next() {
        Some("det") => ("deterministic", cfg.is_deterministic(path)),
        Some("hot") => ("hotpath", cfg.hotpath_fns(path).is_some()),
        Some("wire") => ("wire", cfg.is_wire(path)),
        Some("conc") => ("concurrency", cfg.is_concurrency(path)),
        _ => return None,
    };
    (!covered).then_some(tier)
}

fn allow_rules(sf: &ScannedFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    for a in &sf.allows {
        if a.reason.is_empty() {
            push(
                out,
                sf,
                a.at,
                "allow-reason",
                format!("allow({}) has no reason", join(&a.rules)),
                "append `— <why this exemption is sound>` after the rule list",
            );
        }
        for r in &a.rules {
            if !is_known_rule(r) {
                push(
                    out,
                    sf,
                    a.at,
                    "allow-reason",
                    format!("allow names unknown rule `{r}`"),
                    "check the rule id against the catalog in DESIGN.md §12",
                );
            } else if let Some(tier) = uncovering_tier(r, &sf.rel_path, cfg) {
                push(
                    out,
                    sf,
                    a.at,
                    "allow-reason",
                    format!("allow({r}) in a file outside the [{tier}] tier suppresses nothing"),
                    "delete the annotation, or add the file to the tier in lint.toml",
                );
            }
        }
    }
}

fn join(rules: &std::collections::BTreeSet<String>) -> String {
    rules.iter().cloned().collect::<Vec<_>>().join(", ")
}

// ---- deterministic tier ----------------------------------------------------

fn det_rules(sf: &ScannedFile, out: &mut Vec<Finding>) {
    for (idx, line) in sf.scrubbed.iter().enumerate() {
        let lineno = idx + 1;
        if sf.is_test_line(lineno) {
            continue;
        }
        for tok in ["HashMap", "HashSet"] {
            if has_token(line, tok) {
                push(
                    out,
                    sf,
                    lineno,
                    "det-hash-iter",
                    tok.to_string(),
                    "use BTreeMap/BTreeSet (or sort before output); annotate lookup-only uses",
                );
            }
        }
        for pat in ["Instant::now", "SystemTime::now"] {
            if has_path(line, pat) {
                push(
                    out,
                    sf,
                    lineno,
                    "det-time",
                    pat.to_string(),
                    "thread wall-clock reads through db-telemetry spans; sim code uses SimTime",
                );
            }
        }
        for tok in [
            "thread_rng",
            "OsRng",
            "from_entropy",
            "getrandom",
            "RandomState",
        ] {
            if has_token(line, tok) {
                push(
                    out,
                    sf,
                    lineno,
                    "det-rng",
                    tok.to_string(),
                    "derive randomness from the seeded db-util RNG so runs replay bit-identically",
                );
            }
        }
        if let Some(lit) = float_eq_literal(line) {
            push(
                out,
                sf,
                lineno,
                "det-float-eq",
                format!("==/!= against {lit}"),
                "compare with an epsilon or via to_bits(); exact-zero compares are exempt",
            );
        }
    }
}

/// If the line compares (`==`/`!=`) against a non-zero float literal, the
/// literal. Exact-zero comparisons are deliberate in this codebase
/// (integer-valued weights) and exempt.
fn float_eq_literal(line: &str) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let two = &line[i..i + 2];
        if two == "==" || two == "!=" {
            // Not `<=`, `>=`, `===`-ish, or `=>`.
            let prev = if i > 0 { bytes[i - 1] as char } else { ' ' };
            let next = bytes.get(i + 2).map(|&b| b as char).unwrap_or(' ');
            if prev != '<' && prev != '>' && prev != '=' && prev != '!' && next != '=' {
                for tok in [token_before(line, i), token_after(line, i + 2)]
                    .into_iter()
                    .flatten()
                {
                    if let Some(v) = parse_float_literal(&tok) {
                        if v != 0.0 {
                            return Some(tok);
                        }
                    }
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    None
}

fn token_before(line: &str, end: usize) -> Option<String> {
    let s = line[..end].trim_end();
    let tok: String = s
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!tok.is_empty()).then_some(tok)
}

fn token_after(line: &str, start: usize) -> Option<String> {
    let s = line[start..].trim_start().trim_start_matches('-');
    let tok: String = s
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
        .collect();
    (!tok.is_empty()).then_some(tok)
}

/// Parse a Rust float literal token (`1.5`, `0.95_f64`, `3f32`); `None` for
/// anything else (identifiers, integers, field accesses like `a.b`).
fn parse_float_literal(tok: &str) -> Option<f64> {
    let t = tok.replace('_', "");
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .map(str::to_string)
        .unwrap_or(t);
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    // Must actually be a float: a `.` or an explicit fXX suffix stripped above.
    if !t.contains('.') && t == tok.replace('_', "") {
        return None;
    }
    t.parse::<f64>().ok()
}

// ---- hot-path tier ---------------------------------------------------------

fn hot_rules(sf: &ScannedFile, fn_names: &[String], out: &mut Vec<Finding>) {
    // Lines belonging to any listed function body.
    let mut hot = vec![false; sf.scrubbed.len()];
    for span in &sf.fns {
        if fn_names.iter().any(|n| n == &span.name) {
            for flag in hot
                .iter_mut()
                .take(span.last_line)
                .skip(span.first_line.saturating_sub(1))
            {
                *flag = true;
            }
        }
    }
    const PANICS: &[&str] = &[
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    const ALLOCS: &[&str] = &[
        "vec!",
        "format!",
        "Box::new",
        "Vec::new",
        "Vec::with_capacity",
        "String::new",
        "String::from",
        "String::with_capacity",
        ".to_string(",
        ".to_vec(",
        ".to_owned(",
        ".collect(",
    ];
    for (idx, line) in sf.scrubbed.iter().enumerate() {
        let lineno = idx + 1;
        if !hot[idx] || sf.is_test_line(lineno) {
            continue;
        }
        for tok in PANICS {
            // `name(` or `name!(`: word-bounded and invoked.
            if has_call(line, tok) {
                push(
                    out,
                    sf,
                    lineno,
                    "hot-panic",
                    format!("{tok} in hot path"),
                    "return a typed error or use get/checked ops; debug_assert! is fine",
                );
            }
        }
        for pat in ALLOCS {
            let found = if let Some(stripped) = pat.strip_suffix('!') {
                has_call(line, stripped)
            } else if let Some(stripped) = pat.strip_prefix('.') {
                line.contains(pat) && !line.contains(&format!("_{stripped}"))
            } else {
                has_path(line, pat)
            };
            if found {
                push(
                    out,
                    sf,
                    lineno,
                    "hot-alloc",
                    format!("{} in hot path", pat.trim_matches('.')),
                    "preallocate in setup and reuse buffers; the per-packet path is allocation-free",
                );
            }
        }
        if has_slice_index(line) {
            push(
                out,
                sf,
                lineno,
                "hot-index",
                "slice indexing in hot path".to_string(),
                "use get/get_mut and handle None; a bad index panics the whole run",
            );
        }
    }
}

/// `tok` appears word-bounded and followed by `(` or `!` (a call site, not a
/// mention in an identifier like `debug_assert!` for `assert`).
fn has_call(line: &str, tok: &str) -> bool {
    token_positions(line, tok).iter().any(|&p| {
        matches!(
            line[p + tok.len()..].trim_start().chars().next(),
            Some('(') | Some('!')
        )
    })
}

/// `ident[` or `)[`/`][` — an index expression. Attribute syntax (`#[`),
/// slice types (`&[u8]`), and array literals are not matched.
fn has_slice_index(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' {
            continue;
        }
        // Direct predecessor only: `xs[i]` indexes, while a space before
        // the bracket (`&mut [u32]`, `impl [Foo]`) is type or macro syntax.
        let prev = line[..i].chars().next_back();
        let indexes = matches!(
            prev,
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == ')' || c == ']'
        );
        // `..]` on the same bracket is a range slice `&x[..n]` — still an
        // indexing op that can panic, so it counts.
        if indexes {
            return true;
        }
    }
    false
}

// ---- wire tier -------------------------------------------------------------

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

fn wire_rules(sf: &ScannedFile, out: &mut Vec<Finding>) {
    for (idx, line) in sf.scrubbed.iter().enumerate() {
        let lineno = idx + 1;
        if sf.is_test_line(lineno) {
            continue;
        }
        if let Some(ty) = as_int_cast(line) {
            push(
                out,
                sf,
                lineno,
                "wire-cast",
                format!("`as {ty}`"),
                "use try_from (reporting a decode error) or From for provably-widening moves",
            );
        }
        for tok in [
            "to_le_bytes",
            "from_le_bytes",
            "to_ne_bytes",
            "from_ne_bytes",
        ] {
            if has_token(line, tok) {
                push(
                    out,
                    sf,
                    lineno,
                    "wire-endian",
                    tok.to_string(),
                    "the wire format is big-endian: use to_be_bytes/from_be_bytes",
                );
            }
        }
    }
    wire_symmetry(sf, out);
}

/// `as <int-type>` with `as` word-bounded; the type name.
fn as_int_cast(line: &str) -> Option<&'static str> {
    for p in token_positions(line, "as") {
        let rest = line[p + 2..].trim_start();
        for ty in INT_TYPES {
            if let Some(rest) = rest.strip_prefix(ty) {
                let after = rest.chars().next();
                let bounded = !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_');
                if bounded {
                    return Some(ty);
                }
            }
        }
    }
    None
}

/// Every `encode*` fn needs a `decode*` sibling in the same module and a
/// round-trip test exercising the pair.
fn wire_symmetry(sf: &ScannedFile, out: &mut Vec<Finding>) {
    let encoders: Vec<_> = sf
        .fns
        .iter()
        .filter(|f| f.name.starts_with("encode") && !sf.is_test_line(f.first_line))
        .collect();
    if encoders.is_empty() {
        return;
    }
    let has_decoder = sf.fns.iter().any(|f| f.name.starts_with("decode"));
    let first = encoders[0].first_line;
    if !has_decoder {
        push(
            out,
            sf,
            first,
            "wire-symmetry",
            format!(
                "fn {} has no decode* sibling in this module",
                encoders[0].name
            ),
            "every encoder needs a decoder next to it so the pair evolves together",
        );
    }
    let mut saw_round_trip = false;
    let mut saw_encode = false;
    let mut saw_decode = false;
    for (idx, line) in sf.scrubbed.iter().enumerate() {
        if !sf.is_test_line(idx + 1) {
            continue;
        }
        if line.contains("round_trip") {
            saw_round_trip = true;
        }
        if line.contains("encode") {
            saw_encode = true;
        }
        if line.contains("decode") {
            saw_decode = true;
        }
    }
    if !(saw_round_trip || (saw_encode && saw_decode)) {
        push(
            out,
            sf,
            first,
            "wire-symmetry",
            "no round-trip test found in this module".to_string(),
            "add a #[test] that encodes then decodes and asserts bit-equality",
        );
    }
}

// ---- token matching --------------------------------------------------------

/// Byte offsets where `tok` appears word-bounded (not inside a longer
/// identifier).
fn token_positions(line: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = line[from..].find(tok) {
        let at = from + p;
        let before = line[..at].chars().next_back();
        let after = line[at + tok.len()..].chars().next();
        let lb = !matches!(before, Some(c) if c.is_ascii_alphanumeric() || c == '_');
        let rb = !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_');
        if lb && rb {
            out.push(at);
        }
        from = at + tok.len();
    }
    out
}

fn has_token(line: &str, tok: &str) -> bool {
    !token_positions(line, tok).is_empty()
}

/// A `::`-path like `Instant::now` or `Box::new`, with the head segment
/// word-bounded on the left.
fn has_path(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(p) = line[from..].find(pat) {
        let at = from + p;
        let before = line[..at].chars().next_back();
        let lb = !matches!(before, Some(c) if c.is_ascii_alphanumeric() || c == '_');
        if lb {
            return true;
        }
        from = at + pat.len();
    }
    false
}
