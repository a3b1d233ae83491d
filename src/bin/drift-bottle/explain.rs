//! `explain`: reconstruct a run — or one link's or switch's part in it —
//! from a provenance flight recording.

use crate::{flag, fmt_ms, parse_target, Flag, Target};
use drift_bottle::inference::provenance;
use drift_bottle::telemetry::Recording;

/// Output format of `explain`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExplainFormat {
    Table,
    Json,
}

/// Parsed `explain` subcommand flags.
#[derive(Debug)]
pub struct ExplainFlags {
    /// Restrict votes/warnings to this sampling-window index.
    window: Option<u32>,
    /// Output format.
    format: ExplainFormat,
}

/// Collect the explain-only flags (`--window`, `--format`).
pub fn explain_flags(flags: &[Flag]) -> Result<ExplainFlags, String> {
    let format = flag(flags, "--format", |f| {
        f.choice(&[
            ("table", ExplainFormat::Table),
            ("json", ExplainFormat::Json),
        ])
    })?;
    Ok(ExplainFlags {
        window: flag(flags, "--window", |f| f.number("N", "window", |_| true))?,
        format: format.unwrap_or(ExplainFormat::Table),
    })
}

fn fmt_links(links: &[u16]) -> String {
    if links.is_empty() {
        "(none)".to_string()
    } else {
        links
            .iter()
            .map(|l| format!("l{l}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Render a [`provenance::BlockedTally`] as `clause xN` terms.
fn fmt_blocked(t: &provenance::BlockedTally) -> String {
    let mut parts = Vec::new();
    for (n, label) in [
        (t.non_positive_w0, "w0<=0"),
        (t.hop_min, "hop_min"),
        (t.alpha, "alpha"),
        (t.beta, "beta"),
    ] {
        if n > 0 {
            parts.push(format!("{label} x{n}"));
        }
    }
    if parts.is_empty() {
        "never blocked".to_string()
    } else {
        parts.join(", ")
    }
}

fn explain_aggregate(rec: &Recording, path: &str, fmt: ExplainFormat) -> Result<(), String> {
    let q = provenance::quality_report(rec).ok_or(
        "recording has no run header (evicted from the ring?); \
         re-record with a larger DB_FLIGHT_CAPACITY to score the run",
    )?;
    if fmt == ExplainFormat::Json {
        let ttfw: Vec<String> = q
            .time_to_first_warning_ns
            .iter()
            .map(|(l, t)| {
                format!(
                    "{{\"link\":{l},\"ns\":{}}}",
                    t.map_or("null".to_string(), |n| n.to_string())
                )
            })
            .collect();
        println!(
            "{{\"file\":\"{}\",\"records\":{},\"evicted\":{},\"ground_truth\":{:?},\"reported\":{:?},\"precision\":{},\"recall\":{},\"f1\":{},\"accuracy\":{},\"fpr\":{},\"warnings_total\":{},\"warnings_in_window\":{},\"classified_abnormal\":{},\"classified_normal\":{},\"merges\":{},\"merges_with_drops\":{},\"dropped_entries\":{},\"truncation_loss_rate\":{},\"time_to_first_warning\":[{}]}}",
            drift_bottle::telemetry::json_escape(path),
            rec.records.len(),
            q.ring_dropped,
            q.info.ground_truth,
            q.reported_links,
            q.metrics.precision,
            q.metrics.recall,
            q.metrics.f1,
            q.metrics.accuracy,
            q.metrics.fpr,
            q.warnings_total,
            q.warnings_in_window,
            q.classified.0,
            q.classified.1,
            q.truncation.merges,
            q.truncation.merges_with_drops,
            q.truncation.dropped_entries,
            q.truncation.loss_rate(),
            ttfw.join(",")
        );
        return Ok(());
    }
    println!("=== flight recording: {path} ===");
    println!(
        "records      : {} kept, {} evicted (capacity {})",
        rec.records.len(),
        q.ring_dropped,
        rec.capacity
    );
    println!(
        "run          : t_fail {}, window ({}, {}], k={}, hop_min={}, alpha={}, beta={}",
        fmt_ms(q.info.t_fail_ns),
        fmt_ms(q.info.window_ns.0),
        fmt_ms(q.info.window_ns.1),
        q.info.k,
        q.info.warning.hop_min,
        q.info.warning.alpha,
        q.info.warning.beta
    );
    println!("ground truth : {}", fmt_links(&q.info.ground_truth));
    println!("reported     : {}", fmt_links(&q.reported_links));
    println!(
        "quality      : precision {:.2}  recall {:.2}  F1 {:.2}  accuracy {:.2}%  FPR {:.2}%",
        q.metrics.precision,
        q.metrics.recall,
        q.metrics.f1,
        100.0 * q.metrics.accuracy,
        100.0 * q.metrics.fpr
    );
    println!(
        "warnings     : {} raised, {} inside the collection window",
        q.warnings_total, q.warnings_in_window
    );
    println!(
        "classified   : {} abnormal / {} normal flow-windows",
        q.classified.0, q.classified.1
    );
    println!(
        "truncation   : {} merges, {} lost >=1 link ({:.1}%), {} entries dropped",
        q.truncation.merges,
        q.truncation.merges_with_drops,
        100.0 * q.truncation.loss_rate(),
        q.truncation.dropped_entries
    );
    println!("time to first in-window warning:");
    for (l, t) in &q.time_to_first_warning_ns {
        match t {
            Some(ns) => println!("  l{l}: {} after injection", fmt_ms(*ns)),
            None => println!("  l{l}: never warned"),
        }
    }
    if q.ring_dropped > 0 {
        println!(
            "note: {} records were evicted from the ring — this report scores only the \
             surviving tail; re-record with DB_FLIGHT_CAPACITY={} or more for a full chain",
            q.ring_dropped,
            q.ring_dropped + rec.records.len() as u64
        );
    }
    Ok(())
}

fn explain_link_cmd(rec: &Recording, id: u16, flags: &ExplainFlags) -> Result<(), String> {
    let mut e = provenance::explain_link(rec, id);
    if let Some(w) = flags.window {
        e.votes.retain(|v| v.window == w);
        e.warnings.retain(|v| v.window_index == Some(w));
    }
    if flags.format == ExplainFormat::Json {
        let votes: Vec<String> = e
            .votes
            .iter()
            .map(|v| {
                format!(
                    "{{\"at_ns\":{},\"switch\":{},\"window\":{},\"flow\":{},\"delta\":{}}}",
                    v.at_ns, v.switch, v.window, v.flow, v.delta
                )
            })
            .collect();
        let warnings: Vec<String> = e
            .warnings
            .iter()
            .map(|w| {
                format!(
                    "{{\"at_ns\":{},\"switch\":{},\"hop_now\":{},\"w0\":{},\"w1\":{},\"in_window\":{}}}",
                    w.at_ns,
                    w.switch,
                    w.hop_now,
                    w.w0,
                    w.w1,
                    w.in_window
                        .map_or("null".to_string(), |b| b.to_string())
                )
            })
            .collect();
        let truncated: Vec<String> = e
            .truncation_drops
            .iter()
            .map(|t| {
                format!(
                    "{{\"at_ns\":{},\"switch\":{},\"flow\":{},\"hop_now\":{}}}",
                    t.at_ns, t.switch, t.flow, t.hop_now
                )
            })
            .collect();
        println!(
            "{{\"link\":{},\"ground_truth\":{},\"reported\":{},\"vote_total\":{},\"votes_for\":{},\"votes_against\":{},\"voting_flows\":{},\"voting_switches\":{},\"merges_as_top\":{},\"packet_drops\":{:?},\"votes\":[{}],\"truncation_drops\":[{}],\"warnings\":[{}]}}",
            e.link,
            e.ground_truth
                .map_or("null".to_string(), |b| b.to_string()),
            e.reported().map_or("null".to_string(), |b| b.to_string()),
            e.vote_total,
            e.votes_for,
            e.votes_against,
            e.voting_flows,
            e.voting_switches,
            e.merges_as_top,
            e.packet_drops,
            votes.join(","),
            truncated.join(","),
            warnings.join(",")
        );
        return Ok(());
    }
    println!("=== link l{id} ===");
    match e.ground_truth {
        Some(true) => println!("ground truth : FAILED"),
        Some(false) => println!("ground truth : healthy"),
        None => println!("ground truth : unknown (run header evicted)"),
    }
    match e.reported() {
        Some(true) => println!("reported     : yes (warning inside the collection window)"),
        Some(false) => println!("reported     : no"),
        None => println!("reported     : unknown (run header evicted)"),
    }
    if let Some(w) = flags.window {
        println!("filter       : sampling window {w} only");
    }
    println!(
        "votes        : {} ({} accusing, {} exonerating), total {:+}, from {} flows across {} switches",
        e.votes.len(),
        e.votes_for,
        e.votes_against,
        e.vote_total,
        e.voting_flows,
        e.voting_switches
    );
    for v in e.votes.iter().take(10) {
        println!(
            "  {} s{} window {} flow {} delta {:+}",
            fmt_ms(v.at_ns),
            v.switch,
            v.window,
            v.flow,
            v.delta
        );
    }
    if e.votes.len() > 10 {
        println!("  ... {} more", e.votes.len() - 10);
    }
    println!(
        "truncated    : {} merges dropped this link's weight in transit",
        e.truncation_drops.len()
    );
    for t in e.truncation_drops.iter().take(5) {
        println!(
            "  {} s{} flow {} at hop {}",
            fmt_ms(t.at_ns),
            t.switch,
            t.flow,
            t.hop_now
        );
    }
    if e.truncation_drops.len() > 5 {
        println!("  ... {} more", e.truncation_drops.len() - 5);
    }
    print!(
        "top of merge : {} merges had l{id} as top accusation",
        e.merges_as_top
    );
    match &e.blocked {
        Some(t) => println!("; eq(1): {}, fired x{}", fmt_blocked(t), t.fires),
        None => println!(),
    }
    println!("warnings     : {}", e.warnings.len());
    for w in e.warnings.iter().take(10) {
        println!(
            "  {} s{} hop {} w0 {:+} w1 {:+}{}",
            fmt_ms(w.at_ns),
            w.switch,
            w.hop_now,
            w.w0,
            w.w1,
            match w.in_window {
                Some(true) => " [in window]",
                Some(false) => " [outside window]",
                None => "",
            }
        );
    }
    if e.warnings.len() > 10 {
        println!("  ... {} more", e.warnings.len() - 10);
    }
    if let Some(first) = &e.first_warning_in_window {
        println!(
            "first report : {} at s{}, hop {}, sampling window {}",
            fmt_ms(first.at_ns),
            first.switch,
            first.hop_now,
            first
                .window_index
                .map_or("?".to_string(), |w| w.to_string())
        );
    }
    println!(
        "packet drops : {} down, {} corrupt, {} queue",
        e.packet_drops[0], e.packet_drops[1], e.packet_drops[2]
    );
    Ok(())
}

fn explain_switch_cmd(rec: &Recording, id: u16, flags: &ExplainFlags) -> Result<(), String> {
    let mut s = provenance::explain_switch(rec, id);
    if let Some(w) = flags.window {
        s.warnings.retain(|(_, v)| v.window_index == Some(w));
    }
    if flags.format == ExplainFormat::Json {
        let votes: Vec<String> = s
            .votes_by_link
            .iter()
            .map(|(l, total, n)| format!("{{\"link\":{l},\"total\":{total},\"count\":{n}}}"))
            .collect();
        let warnings: Vec<String> = s
            .warnings
            .iter()
            .map(|(l, w)| {
                format!(
                    "{{\"link\":{l},\"at_ns\":{},\"hop_now\":{},\"w0\":{},\"w1\":{}}}",
                    w.at_ns, w.hop_now, w.w0, w.w1
                )
            })
            .collect();
        println!(
            "{{\"switch\":{},\"classified_abnormal\":{},\"classified_normal\":{},\"merges\":{},\"merges_with_drops\":{},\"votes_by_link\":[{}],\"warnings\":[{}]}}",
            s.switch,
            s.classified.0,
            s.classified.1,
            s.merges,
            s.merges_with_drops,
            votes.join(","),
            warnings.join(",")
        );
        return Ok(());
    }
    println!("=== switch s{id} ===");
    println!(
        "classified   : {} abnormal / {} normal flow-windows",
        s.classified.0, s.classified.1
    );
    println!("votes        : {} links voted on", s.votes_by_link.len());
    for (l, total, n) in s.votes_by_link.iter().take(10) {
        println!("  l{l}: total {total:+} over {n} votes");
    }
    if s.votes_by_link.len() > 10 {
        println!("  ... {} more", s.votes_by_link.len() - 10);
    }
    println!(
        "merges       : {} ({} lost >=1 link to the top-k cut)",
        s.merges, s.merges_with_drops
    );
    println!("warnings     : {}", s.warnings.len());
    for (l, w) in s.warnings.iter().take(10) {
        println!(
            "  {} l{l} hop {} w0 {:+} w1 {:+}{}",
            fmt_ms(w.at_ns),
            w.hop_now,
            w.w0,
            w.w1,
            match w.in_window {
                Some(true) => " [in window]",
                Some(false) => " [outside window]",
                None => "",
            }
        );
    }
    Ok(())
}

pub fn cmd_explain(path: &str, target: Option<&str>, flags: &ExplainFlags) -> Result<(), String> {
    let rec = Recording::load(path).map_err(|e| format!("loading {path}: {e}"))?;
    match target.map(|t| parse_target("explain", t)).transpose()? {
        None => explain_aggregate(&rec, path, flags.format),
        Some(Target::Link(id)) => explain_link_cmd(&rec, id, flags),
        Some(Target::Switch(id)) => explain_switch_cmd(&rec, id, flags),
    }
}
