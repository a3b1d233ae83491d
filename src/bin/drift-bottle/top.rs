//! `top`: a live terminal health view of a running daemon.

use crate::{flag, switch, Flag};
use drift_bottle::serve::{Client, Frame};
use drift_bottle::telemetry::scope::{sparkline, window_of, SeriesKind};
use std::collections::HashMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// `top` subcommand arguments.
#[derive(Debug)]
pub struct TopArgs {
    /// `--once`: render a single frame and exit (scripts / CI).
    once: bool,
    /// `--interval=SECS`: refresh interval (default 1 s).
    interval: Duration,
    /// `--lines=N`: suspicion rows to render (default 8).
    lines: usize,
}

/// Collect the `top` flags (`--once`, `--interval`, `--lines`).
pub fn top_args(flags: &[Flag]) -> Result<TopArgs, String> {
    let interval = flag(flags, "--interval", |f| {
        f.number("SECS", "interval", |s: &f64| s.is_finite() && *s > 0.0)
    })?;
    let lines = flag(flags, "--lines", |f| {
        f.number("N", "line count", |&n| n > 0)
    })?;
    Ok(TopArgs {
        once: switch(flags, "--once")?,
        interval: interval.map_or(Duration::from_secs(1), Duration::from_secs_f64),
        lines: lines.unwrap_or(8),
    })
}

/// Windows of per-series history `top` retains client-side (and the widest
/// sparkline it renders).
const TOP_HISTORY: usize = 64;

/// Live terminal health view of a running daemon (DESIGN.md §16): polls
/// `PulseReq` with a monotone window cursor, folds the flushed per-window
/// health series into client-side history, and renders top-suspicion links
/// as sparklines alongside the daemon's ingest counters and batch-latency
/// percentiles. `--once` renders a single frame for scripts and CI.
pub fn cmd_top(addr: &str, topo: &str, args: &TopArgs) -> Result<(), String> {
    // Attach to the daemon's engine for `topo`; density/seed only matter
    // when this Hello is the one that builds it (they match load_gen and
    // the batch flagship defaults).
    let mut daemon = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let engine = daemon
        .hello(topo, 1.0, 42, 0)
        .map_err(|e| format!("attaching to {topo} on {addr}: {e}"))?;
    let (interval_ns, nodes, links) = (engine.interval_ns, engine.nodes, engine.links);

    let suspicion = SeriesKind::LinkSuspicion.code();
    let link_warn = SeriesKind::LinkWarnings.code();
    let mut cursor = 0u64;
    let mut hist: HashMap<(u8, u16), Vec<(u64, f64)>> = HashMap::new();
    let mut warn_tail: Vec<String> = Vec::new();
    let mut prev: Option<(Instant, u64)> = None;
    loop {
        let poll = daemon.request(&Frame::PulseReq {
            from_window: cursor,
        });
        let pulse = match poll.map_err(|e| format!("polling pulse: {e}"))? {
            Frame::Pulse(p) => p,
            other => return Err(format!("expected Pulse, got {other:?}")),
        };
        cursor = pulse.next_window;
        for p in &pulse.points {
            let series = hist.entry((p.kind, p.id)).or_default();
            series.push((p.window, p.value));
            if series.len() > TOP_HISTORY {
                let cut = series.len() - TOP_HISTORY;
                series.drain(..cut);
            }
            if p.kind == link_warn && p.value > 0.0 {
                warn_tail.push(format!(
                    "window {:>6}  l{:<5} x{}",
                    p.window, p.id, p.value as u64
                ));
            }
        }
        if warn_tail.len() > 6 {
            let cut = warn_tail.len() - 6;
            warn_tail.drain(..cut);
        }
        let now = Instant::now();
        let rate = prev.and_then(|(t, n)| {
            let dt = now.duration_since(t).as_secs_f64();
            (dt > 0.0).then(|| pulse.ingested.saturating_sub(n) as f64 / dt)
        });
        prev = Some((now, pulse.ingested));

        // One frame of output, built off-screen then emitted in one write.
        let mut s = String::new();
        if !args.once {
            s.push_str("\x1b[2J\x1b[H");
        }
        let window = window_of(pulse.now_ns, interval_ns);
        s.push_str(&format!(
            "drift-bottle top — {addr} · {topo} ({nodes} switches, {links} links) · \
             t={:.3}s · window {window}\n",
            pulse.now_ns as f64 / 1e9
        ));
        s.push_str(&format!(
            "ingested {:>12}{}   warnings {:>6}   carriers {:>8}   \
             batch p50/p90/p99 {:.0}/{:.0}/{:.0} µs\n\n",
            pulse.ingested,
            rate.map(|r| format!(" ({r:.0}/s)")).unwrap_or_default(),
            pulse.warnings,
            pulse.carriers,
            pulse.p50_us,
            pulse.p90_us,
            pulse.p99_us
        ));
        s.push_str(&format!(
            "top links by suspicion (last {TOP_HISTORY} windows)\n"
        ));
        let mut links_by_peak: Vec<(u16, f64, f64, Vec<f64>)> = hist
            .iter()
            .filter(|((kind, _), _)| *kind == suspicion)
            .map(|(&(_, id), series)| {
                let vals: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
                let peak = vals.iter().copied().fold(0.0f64, f64::max);
                let last = vals.last().copied().unwrap_or(0.0);
                (id, peak, last, vals)
            })
            .collect();
        links_by_peak.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if links_by_peak.is_empty() {
            s.push_str("  (no suspicion series yet — waiting for completed windows)\n");
        }
        for (id, peak, last, vals) in links_by_peak.iter().take(args.lines) {
            s.push_str(&format!(
                "  l{id:<5} {:<32}  peak {peak:9.2}  last {last:9.2}\n",
                sparkline(vals)
            ));
        }
        s.push_str("\nrecent warnings\n");
        if warn_tail.is_empty() {
            s.push_str("  (none)\n");
        }
        for line in &warn_tail {
            s.push_str(&format!("  {line}\n"));
        }
        print!("{s}");
        std::io::stdout().flush().ok();

        if args.once {
            break;
        }
        std::thread::sleep(args.interval);
    }
    Ok(())
}
