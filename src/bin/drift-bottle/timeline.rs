//! `timeline`: per-window health series of a db-scope trace — the whole
//! run, one link or one switch.

use crate::{flag, fmt_ms, parse_target, Flag, Target};
use drift_bottle::telemetry::scope::{sparkline, SeriesKind, TraceData, TraceSeries};
use std::path::Path;

/// Output format of `timeline`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimelineFormat {
    Table,
    Json,
    Spark,
}

/// The timeline `--format=table|json|sparkline` choice.
pub fn timeline_format(flags: &[Flag]) -> Result<TimelineFormat, String> {
    let format = flag(flags, "--format", |f| {
        f.choice(&[
            ("table", TimelineFormat::Table),
            ("json", TimelineFormat::Json),
            ("sparkline", TimelineFormat::Spark),
        ])
    })?;
    Ok(format.unwrap_or(TimelineFormat::Table))
}

/// The per-window rows of a set of series columns: the sorted union of
/// their window indices, one `Option<f64>` cell per column.
fn window_rows(cols: &[Option<&TraceSeries>]) -> Vec<(u64, Vec<Option<f64>>)> {
    let mut rows: std::collections::BTreeMap<u64, Vec<Option<f64>>> =
        std::collections::BTreeMap::new();
    for (i, col) in cols.iter().enumerate() {
        let Some(s) = col else { continue };
        for &(w, v) in &s.points {
            rows.entry(w).or_insert_with(|| vec![None; cols.len()])[i] = Some(v);
        }
    }
    rows.into_iter().collect()
}

/// One link's or switch's per-window view of a trace.
fn timeline_target(
    data: &TraceData,
    label: &str,
    kinds: &[SeriesKind],
    id: u16,
    fmt: TimelineFormat,
) -> Result<(), String> {
    let cols: Vec<Option<&TraceSeries>> = kinds.iter().map(|&k| data.series_for(k, id)).collect();
    if cols.iter().all(|c| c.is_none()) {
        return Err(format!(
            "trace has no series for {label} (nothing was fed for that id; \
             check the summary view for the ids present)"
        ));
    }
    let rows = window_rows(&cols);
    if fmt == TimelineFormat::Json {
        let series: Vec<String> = kinds
            .iter()
            .zip(&cols)
            .filter_map(|(&k, c)| {
                c.map(|s| {
                    let pts: Vec<String> =
                        s.points.iter().map(|(w, v)| format!("[{w},{v}]")).collect();
                    format!(
                        "{{\"kind\":\"{}\",\"evicted\":{},\"points\":[{}]}}",
                        k.as_str(),
                        s.evicted,
                        pts.join(",")
                    )
                })
            })
            .collect();
        println!(
            "{{\"target\":\"{label}\",\"series\":[{}]}}",
            series.join(",")
        );
        return Ok(());
    }
    println!("=== {label} ===");
    if let Some(m) = &data.meta {
        println!(
            "run          : interval {}, failure injected at {}",
            fmt_ms(m.interval_ns),
            fmt_ms(m.t_fail_ns)
        );
        println!(
            "eq(1)        : alpha {}, beta {}, hop_min {}",
            m.alpha, m.beta, m.hop_min
        );
    }
    if fmt == TimelineFormat::Spark {
        for (i, (k, c)) in kinds.iter().zip(&cols).enumerate() {
            if c.is_none() {
                continue;
            }
            let vals: Vec<f64> = rows
                .iter()
                .map(|(_, cells)| cells[i].unwrap_or(0.0))
                .collect();
            let peak = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<16} {}  windows {}..{}, peak {peak}",
                k.as_str(),
                sparkline(&vals),
                rows.first().map_or(0, |r| r.0),
                rows.last().map_or(0, |r| r.0),
            );
        }
    } else {
        let mut header = format!("{:>8}", "window");
        for k in kinds {
            header.push_str(&format!("  {:>15}", k.as_str()));
        }
        println!("{header}");
        for (w, cells) in &rows {
            let mut line = format!("{w:>8}");
            for c in cells {
                line.push_str(&format!(
                    "  {:>15}",
                    c.map_or("-".to_string(), |v| format!("{v}"))
                ));
            }
            println!("{line}");
        }
    }
    // The warning cross-reference: the first window whose warning count is
    // non-zero is the sampling window in which `explain`'s WarningRaised
    // record for this link lands (both derive the index with `window_of`).
    if kinds.contains(&SeriesKind::LinkWarnings) {
        if let Some(ws) = data.series_for(SeriesKind::LinkWarnings, id) {
            if let Some(&(w, _)) = ws.points.iter().find(|&&(_, v)| v > 0.0) {
                let at = data
                    .meta
                    .as_ref()
                    .map(|m| format!(" (~{} into the run)", fmt_ms(w * m.interval_ns)))
                    .unwrap_or_default();
                println!("first warning: window {w}{at}");
            } else {
                println!("first warning: never (no eq(1) firing for this link)");
            }
        }
    }
    let evicted: u64 = cols.iter().filter_map(|c| c.map(|s| s.evicted)).sum();
    if evicted > 0 {
        println!(
            "note: {evicted} early points were evicted from the ring; the series above \
             is the surviving tail"
        );
    }
    Ok(())
}

/// The whole-trace summary view.
fn timeline_summary(data: &TraceData, path: &str, fmt: TimelineFormat) -> Result<(), String> {
    // Peak suspicion and warning totals per link, for the suspect list.
    let mut suspects: Vec<(u16, f64)> = data
        .series
        .iter()
        .filter(|s| s.kind == SeriesKind::LinkSuspicion.as_str())
        .map(|s| {
            let peak = s
                .points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            (s.id, peak)
        })
        .collect();
    suspects.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let warned: Vec<u16> = data
        .series
        .iter()
        .filter(|s| {
            s.kind == SeriesKind::LinkWarnings.as_str() && s.points.iter().any(|&(_, v)| v > 0.0)
        })
        .map(|s| s.id)
        .collect();
    let (wlo, whi) = data
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(w, _)| w))
        .fold((u64::MAX, 0u64), |(lo, hi), w| (lo.min(w), hi.max(w)));
    if fmt == TimelineFormat::Json {
        let meta = data
            .meta
            .as_ref()
            .map(|m| {
                format!(
                    "{{\"interval_ns\":{},\"t_fail_ns\":{},\"total_links\":{},\"total_switches\":{},\"alpha\":{},\"beta\":{},\"hop_min\":{}}}",
                    m.interval_ns, m.t_fail_ns, m.total_links, m.total_switches, m.alpha, m.beta, m.hop_min
                )
            })
            .unwrap_or_else(|| "null".to_string());
        let top: Vec<String> = suspects
            .iter()
            .take(5)
            .map(|(l, p)| format!("{{\"link\":{l},\"peak\":{p}}}"))
            .collect();
        println!(
            "{{\"file\":\"{}\",\"meta\":{meta},\"series\":{},\"spans\":{},\"windows\":{},\"links_with_warnings\":{:?},\"top_suspicion\":[{}]}}",
            drift_bottle::telemetry::json_escape(path),
            data.series.len(),
            data.spans.len(),
            if wlo == u64::MAX {
                "null".to_string()
            } else {
                format!("[{wlo},{whi}]")
            },
            warned,
            top.join(","),
        );
        return Ok(());
    }
    println!("=== db-scope trace: {path} ===");
    match &data.meta {
        Some(m) => {
            println!(
                "run          : interval {}, failure at {}, {} links, {} switches",
                fmt_ms(m.interval_ns),
                fmt_ms(m.t_fail_ns),
                m.total_links,
                m.total_switches
            );
            println!(
                "eq(1)        : alpha {}, beta {}, hop_min {}",
                m.alpha, m.beta, m.hop_min
            );
        }
        None => println!("run          : no meta header (trace written outside a scenario?)"),
    }
    if wlo == u64::MAX {
        println!("series       : none (no windows closed before export)");
    } else {
        println!(
            "series       : {} across windows {wlo}..{whi}",
            data.series.len()
        );
    }
    let mut window_spans = 0usize;
    let mut tally: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for s in &data.spans {
        if s.name.starts_with("window ") {
            window_spans += 1;
        } else {
            *tally.entry(s.name.as_str()).or_default() += 1;
        }
    }
    let named: Vec<String> = tally.iter().map(|(n, c)| format!("{n} x{c}")).collect();
    println!(
        "spans        : {} total ({}; {window_spans} windows)",
        data.spans.len(),
        named.join(", ")
    );
    println!("links warned : {}", {
        let labels: Vec<String> = warned.iter().map(|l| format!("l{l}")).collect();
        if labels.is_empty() {
            "(none)".to_string()
        } else {
            labels.join(" ")
        }
    });
    println!("top suspicion:");
    for (l, peak) in suspects.iter().take(5) {
        let spark = data
            .series_for(SeriesKind::LinkSuspicion, *l)
            .map(|s| {
                let vals: Vec<f64> = s.points.iter().map(|&(_, v)| v).collect();
                sparkline(&vals)
            })
            .unwrap_or_default();
        let first_warn = data
            .series_for(SeriesKind::LinkWarnings, *l)
            .and_then(|s| s.points.iter().find(|&&(_, v)| v > 0.0))
            .map(|&(w, _)| format!(", first warning in window {w}"))
            .unwrap_or_default();
        println!("  l{l:<4} peak {peak:<8} {spark}{first_warn}");
    }
    if suspects.is_empty() {
        println!("  (no merges reached any switch)");
    }
    println!("inspect a link with: drift-bottle timeline {path} l<ID> (or s<ID> for a switch)");
    Ok(())
}

pub fn cmd_timeline(path: &str, target: Option<&str>, fmt: TimelineFormat) -> Result<(), String> {
    let data = TraceData::load(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    match target.map(|t| parse_target("timeline", t)).transpose()? {
        None => timeline_summary(&data, path, fmt),
        Some(Target::Link(id)) => timeline_target(
            &data,
            &format!("link l{id}"),
            &[
                SeriesKind::LinkSuspicion,
                SeriesKind::LinkVotes,
                SeriesKind::LinkWarnings,
                SeriesKind::LinkDrops,
            ],
            id,
            fmt,
        ),
        Some(Target::Switch(id)) => timeline_target(
            &data,
            &format!("switch s{id}"),
            &[
                SeriesKind::SwitchFanIn,
                SeriesKind::SwitchAbnormal,
                SeriesKind::SwitchActive,
            ],
            id,
            fmt,
        ),
    }
}
