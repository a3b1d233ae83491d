//! The sweep checkpoint format: `results/<sweep>.ckpt.jsonl`.
//!
//! One JSON object per line. The first line is the header — sweep name,
//! config fingerprint, unit count:
//!
//! ```text
//! {"v":1,"sweep":"fig8-geant2012","fingerprint":"9f8a...","units":61}
//! {"unit":0,"status":"done","outcome":"<hex of db_core::wire encoding>"}
//! {"unit":3,"status":"failed","error":"index out of bounds: ..."}
//! ```
//!
//! Outcomes travel as hex of the bit-exact [`db_core::wire`] encoding, so
//! a replayed unit is indistinguishable from a re-run one. The fingerprint
//! hashes every input that determines unit results (topology, density,
//! seeds, variants, scenario list, system config); resuming under a
//! different config is refused rather than silently mixing incompatible
//! results.
//!
//! Crash tolerance: units append as they complete, each line flushed
//! before the next unit can land on the same handle. A run killed
//! mid-write leaves at most one truncated **final** line, which the loader
//! drops; a malformed line anywhere else means real corruption and is an
//! error. When a sweep completes, the file is compacted — rewritten in
//! unit order — so finished checkpoints are byte-deterministic regardless
//! of worker count or how many interruptions happened along the way.

use crate::job::{UnitOutcome, UnitStatus};
use db_telemetry::json_escape;
use db_util::json::{parse_json, Json};
use db_util::sync::lock_recover;
use db_util::wire::{from_hex, to_hex};
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Checkpoint format version.
const VERSION: u64 = 1;

/// The checkpoint header record.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointHeader {
    /// Sweep name (display/diagnostics only).
    pub sweep: String,
    /// FNV-1a 64 hash of the sweep configuration.
    pub fingerprint: u64,
    /// Total number of units in the sweep.
    pub units: usize,
}

/// Why a checkpoint could not be used.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointError {
    /// 1-based line number (0 for file-level problems).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.reason)
        } else {
            write!(f, "{}", self.reason)
        }
    }
}

fn err(line: usize, reason: impl Into<String>) -> CheckpointError {
    CheckpointError {
        line,
        reason: reason.into(),
    }
}

// ---- line rendering -------------------------------------------------------

fn header_line(h: &CheckpointHeader) -> String {
    format!(
        "{{\"v\":{VERSION},\"sweep\":\"{}\",\"fingerprint\":\"{:016x}\",\"units\":{}}}",
        json_escape(&h.sweep),
        h.fingerprint,
        h.units
    )
}

fn unit_line(u: &UnitOutcome) -> String {
    match &u.status {
        UnitStatus::Done(o) => format!(
            "{{\"unit\":{},\"status\":\"done\",\"outcome\":\"{}\"}}",
            u.unit,
            to_hex(&db_core::wire::encode_outcome(o))
        ),
        UnitStatus::Failed(e) => format!(
            "{{\"unit\":{},\"status\":\"failed\",\"error\":\"{}\"}}",
            u.unit,
            json_escape(e)
        ),
    }
}

// ---- line parsing ---------------------------------------------------------

/// Field `key` of a parsed line.
fn field<'a>(line: &'a Json, key: &str) -> Result<&'a Json, String> {
    line.get(key)
        .ok_or_else(|| format!("missing \"{key}\" field"))
}

/// String field `key` of a parsed line.
fn str_field<'a>(line: &'a Json, key: &str) -> Result<&'a str, String> {
    field(line, key)?
        .as_str()
        .ok_or_else(|| format!("non-string \"{key}\" field"))
}

/// Unsigned integer field `key` of a parsed line.
fn u64_field(line: &Json, key: &str) -> Result<u64, String> {
    field(line, key)?
        .as_u64()
        .ok_or_else(|| format!("non-numeric \"{key}\" field"))
}

fn parse_header(line: &str) -> Result<CheckpointHeader, String> {
    let j = parse_json(line)?;
    let v = u64_field(&j, "v")?;
    if v != VERSION {
        return Err(format!("unsupported checkpoint version {v}"));
    }
    let fingerprint = str_field(&j, "fingerprint")?;
    Ok(CheckpointHeader {
        sweep: str_field(&j, "sweep")?.to_string(),
        fingerprint: u64::from_str_radix(fingerprint, 16)
            .map_err(|_| format!("malformed fingerprint {fingerprint:?}"))?,
        units: u64_field(&j, "units")? as usize,
    })
}

/// Parse one unit record, reporting *why* the line is unusable: which field
/// is missing or malformed, and for undecodable outcomes the byte offset
/// carried by [`db_util::wire::WireError`]. The caller attaches the line
/// number.
fn parse_unit(line: &str) -> Result<UnitOutcome, String> {
    let j = parse_json(line)?;
    let unit = u64_field(&j, "unit")? as usize;
    let status = match str_field(&j, "status")? {
        "done" => {
            let hex = str_field(&j, "outcome")?;
            let bytes =
                from_hex(hex).ok_or_else(|| format!("malformed outcome hex ({hex:.16}…)"))?;
            let outcome = db_core::wire::decode_outcome(&bytes)
                .map_err(|e| format!("outcome does not decode: {e}"))?;
            UnitStatus::Done(outcome)
        }
        "failed" => UnitStatus::Failed(str_field(&j, "error")?.to_string()),
        other => return Err(format!("unknown status {other:?}")),
    };
    Ok(UnitOutcome { unit, status })
}

/// Parse a checkpoint file's contents. Later records for the same unit win
/// (a retried unit appends a fresh line). A malformed **final** line is
/// dropped — the expected residue of a killed run — while a malformed line
/// anywhere else is corruption and errors out.
pub fn parse(contents: &str) -> Result<(CheckpointHeader, Vec<UnitOutcome>), CheckpointError> {
    let mut lines = contents.lines().enumerate();
    let (_, first) = lines.next().ok_or_else(|| err(0, "checkpoint is empty"))?;
    let header = parse_header(first).map_err(|why| err(1, format!("bad header: {why}")))?;
    let mut by_unit: std::collections::BTreeMap<usize, UnitOutcome> = Default::default();
    let mut pending: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let last = pending.pop();
    for (idx, line) in pending {
        let u = parse_unit(line).map_err(|why| {
            err(
                idx + 1,
                format!("corrupt unit record before end of file: {why}"),
            )
        })?;
        if u.unit >= header.units {
            return Err(err(idx + 1, format!("unit {} out of range", u.unit)));
        }
        by_unit.insert(u.unit, u);
    }
    if let Some((idx, line)) = last {
        match parse_unit(line) {
            Ok(u) if u.unit < header.units => {
                by_unit.insert(u.unit, u);
            }
            Ok(u) => return Err(err(idx + 1, format!("unit {} out of range", u.unit))),
            // Truncated trailing write from a killed run: drop it; the
            // unit simply re-runs on resume.
            Err(_) => {}
        }
    }
    Ok((header, by_unit.into_values().collect()))
}

/// An open checkpoint being appended to by the worker pool.
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
    file: Mutex<File>,
}

impl CheckpointFile {
    /// Start a fresh checkpoint: truncate `path` and write the header.
    pub fn create(path: &Path, header: &CheckpointHeader) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = File::create(path)?;
        writeln!(file, "{}", header_line(header))?;
        file.flush()?;
        Ok(CheckpointFile {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Reopen an existing checkpoint for appending (resume).
    pub fn open_append(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointFile {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// Append one completed unit, flushed before returning — a unit is
    /// either fully on disk or (if the process dies mid-write) a truncated
    /// final line the loader ignores.
    // The mutex exists to serialize writes to this file handle; holding it
    // across the write IS its job, and the only waiters are other append()
    // calls on the same checkpoint.
    // db-lint: allow(conc-guard-io) — serializing this handle is the mutex's purpose
    pub fn append(&self, unit: &UnitOutcome) -> std::io::Result<()> {
        let mut f = lock_recover(&self.file);
        writeln!(f, "{}", unit_line(unit))?;
        f.flush()
    }

    /// Rewrite the checkpoint in unit order (called once the sweep is
    /// complete): the finished file is byte-deterministic for any worker
    /// count and any interrupt/resume history. Written via a temporary
    /// sibling + rename so a crash during compaction cannot destroy the
    /// appended records.
    pub fn compact(self, header: &CheckpointHeader, units: &[UnitOutcome]) -> std::io::Result<()> {
        drop(self.file); // close the append handle first
        let tmp = self.path.with_extension("jsonl.tmp");
        let mut out = String::new();
        out.push_str(&header_line(header));
        out.push('\n');
        for u in units {
            out.push_str(&unit_line(u));
            out.push('\n');
        }
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_core::ScenarioOutcome;
    use db_netsim::{SimStats, SimTime};
    use db_topology::LinkId;

    fn outcome() -> ScenarioOutcome {
        ScenarioOutcome {
            ground_truth: vec![LinkId(7)],
            t_fail: SimTime::from_ms(50),
            window: (SimTime::from_ms(50), SimTime::from_ms(70)),
            variants: vec![],
            stats: SimStats::default(),
        }
    }

    fn header() -> CheckpointHeader {
        CheckpointHeader {
            sweep: "test \"sweep\"".into(),
            fingerprint: 0xDEAD_BEEF_1234_5678,
            units: 4,
        }
    }

    #[test]
    fn lines_round_trip() {
        let h = header();
        assert_eq!(parse_header(&header_line(&h)).unwrap(), h);
        let done = UnitOutcome {
            unit: 2,
            status: UnitStatus::Done(outcome()),
        };
        assert_eq!(parse_unit(&unit_line(&done)).unwrap(), done);
        let failed = UnitOutcome {
            unit: 1,
            status: UnitStatus::Failed("panicked: \"index\"\nat line 3".into()),
        };
        assert_eq!(parse_unit(&unit_line(&failed)).unwrap(), failed);
    }

    #[test]
    fn parse_tolerates_truncated_final_line_only() {
        let h = header();
        let done = UnitOutcome {
            unit: 0,
            status: UnitStatus::Done(outcome()),
        };
        let full = unit_line(&done);
        let truncated = &full[..full.len() - 10];
        // Truncated final line: dropped.
        let text = format!("{}\n{}\n{}\n", header_line(&h), full, truncated);
        let (ph, units) = parse(&text).unwrap();
        assert_eq!(ph, h);
        assert_eq!(units.len(), 1);
        // Same garbage in the middle: corruption.
        let text = format!("{}\n{}\n{}\n", header_line(&h), truncated, full);
        assert!(parse(&text).is_err());
    }

    #[test]
    fn later_records_win_and_order_is_by_unit() {
        let h = header();
        let a = UnitOutcome {
            unit: 3,
            status: UnitStatus::Failed("first attempt".into()),
        };
        let b = UnitOutcome {
            unit: 0,
            status: UnitStatus::Done(outcome()),
        };
        let retry = UnitOutcome {
            unit: 3,
            status: UnitStatus::Done(outcome()),
        };
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            header_line(&h),
            unit_line(&a),
            unit_line(&b),
            unit_line(&retry)
        );
        let (_, units) = parse(&text).unwrap();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].unit, 0);
        assert_eq!(units[1].unit, 3);
        assert!(matches!(units[1].status, UnitStatus::Done(_)));
    }

    #[test]
    fn out_of_range_units_are_rejected() {
        let h = header();
        let bad = UnitOutcome {
            unit: 99,
            status: UnitStatus::Failed("x".into()),
        };
        let text = format!("{}\n{}\n", header_line(&h), unit_line(&bad));
        assert!(parse(&text).is_err());
    }

    #[test]
    fn corrupt_records_report_the_reason() {
        // Bad hex in a mid-file record: line number plus the field detail.
        let h = header();
        let bad = "{\"unit\":1,\"status\":\"done\",\"outcome\":\"zz\"}";
        let ok = unit_line(&UnitOutcome {
            unit: 0,
            status: UnitStatus::Done(outcome()),
        });
        let text = format!("{}\n{}\n{}\n", header_line(&h), bad, ok);
        let e = parse(&text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("malformed outcome hex"), "{}", e.reason);

        // Valid hex of a truncated payload: the wire-level offset surfaces.
        let full = unit_line(&UnitOutcome {
            unit: 1,
            status: UnitStatus::Done(outcome()),
        });
        let hex_start = full.find("\"outcome\":\"").unwrap() + 11;
        let truncated = format!("{}00\"}}", &full[..hex_start + 8]);
        let why = parse_unit(&truncated).unwrap_err();
        assert!(why.contains("outcome does not decode"), "{why}");
        assert!(why.contains("byte"), "offset missing from: {why}");

        // Unknown status names itself.
        let why = parse_unit("{\"unit\":0,\"status\":\"maybe\"}").unwrap_err();
        assert!(why.contains("maybe"), "{why}");
    }

    #[test]
    fn unescape_handles_unicode_escapes() {
        let h = header();
        let failed = UnitOutcome {
            unit: 1,
            status: UnitStatus::Failed("é \"quoted\"\nnext line".into()),
        };
        // Written by this module, and as another writer may escape it.
        let escaped = "{\"unit\":2,\"status\":\"failed\",\"error\":\"\\u00e9\\u0007\"}";
        let text = format!("{}\n{}\n{escaped}\n", header_line(&h), unit_line(&failed));
        let (_, units) = parse(&text).unwrap();
        assert_eq!(units[0], failed);
        assert_eq!(units[1].error(), Some("é\u{7}"));
        // An unknown escape mid-file is corruption.
        let bad = "{\"unit\":2,\"status\":\"failed\",\"error\":\"\\q\"}";
        let text = format!("{}\n{bad}\n{}\n", header_line(&h), unit_line(&failed));
        assert_eq!(parse(&text).unwrap_err().line, 2);
    }
}
