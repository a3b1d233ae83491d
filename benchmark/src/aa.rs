//! `bench aa`: does the same code agree with itself? Two sets of runs of
//! every workload on one build, each run a fresh process with another seed;
//! per end-to-end metric and workload the two medians, how much worse the
//! second is, each set's quartile spread, the bound, and a verdict. This is
//! the check the bounds in `BENCHMARK.json` are sized against.

use crate::metrics::{MetricDecl, END_TO_END, WORKLOADS};
use crate::stats;
use crate::workload::RunCfg;
use std::process::Command;

/// The value of metric `name` on a result line, read by position: the
/// benchmark writes this line itself, so no general JSON reader is needed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// One run in a child process; the end-to-end values in declaration order.
fn child_run(cfg: &RunCfg, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    if let Some(d) = &cfg.daemon {
        cmd.arg("--daemon").arg(d);
    }
    let out = cmd.output().map_err(|e| format!("spawning bench: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !line.contains("\"correct\":true") {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {line}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    END_TO_END
        .iter()
        .map(|m| metric_value(line, m.name).ok_or_else(|| format!("no `{}` in: {line}", m.name)))
        .collect()
}

fn verdict(m: &MetricDecl, worse: f64, spread: Option<(f64, f64)>) -> &'static str {
    // Set-up is exempt from the spread rule (it is short and repeated only
    // a few times per run), not from the median rule.
    let spread_ok = m.name == "setup_s" || spread.is_none_or(|(a, b)| a <= m.bound && b <= m.bound);
    match (worse <= m.bound, spread_ok) {
        (true, true) => "ok",
        (false, _) => "MEDIANS DIFFER",
        (true, false) => "SPREAD OVER BOUND",
    }
}

/// Run both sets — of every workload, or of `only` — and print the
/// comparison as a Markdown table. `Ok(true)` when every row's verdict is ok.
pub fn run(cfg: &RunCfg, runs: usize, only: Option<&str>) -> Result<bool, String> {
    println!(
        "| workload | metric | unit | set A median | set B median | B worse by | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_ok = true;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..runs {
                let seed = (s * runs + r + 1) as u64;
                eprintln!(
                    "bench aa: {} set {} run {} (seed {seed})",
                    w.name,
                    ["A", "B"][s],
                    r + 1
                );
                set.push(child_run(cfg, w.name, seed)?);
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let column =
                |set: &Vec<Vec<f64>>| -> Vec<f64> { set.iter().map(|run| run[i]).collect() };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = m.better.worsening(ma, mb);
            let spread = (runs >= 2).then(|| (stats::iqr_share(&a), stats::iqr_share(&b)));
            let v = verdict(m, worse, spread);
            all_ok &= v == "ok";
            let pct = |x: f64| format!("{:+.1} %", x * 100.0);
            let (sa, sb) = spread.map_or(("-".into(), "-".into()), |(a, b)| (pct(a), pct(b)));
            println!(
                "| {} | {} | {} | {ma:.4} | {mb:.4} | {} | {sa} | {sb} | {:.0} % | {v} |",
                w.name,
                m.name,
                m.unit,
                pct(worse),
                m.bound * 100.0
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    #[test]
    fn metric_values_are_read_back_from_a_result_line() {
        let line = "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
                    \"ops_per_s\":{\"value\":854321.25,\"unit\":\"1/s\"},\
                    \"setup_s\":{\"value\":2.5,\"unit\":\"s\"}}}";
        assert_eq!(metric_value(line, "ops_per_s"), Some(854321.25));
        assert_eq!(metric_value(line, "setup_s"), Some(2.5));
        assert_eq!(metric_value(line, "absent"), None);
    }

    #[test]
    fn verdicts_apply_the_bound_to_medians_and_spreads() {
        let m = MetricDecl {
            name: "ops_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        assert_eq!(verdict(&m, 0.05, Some((0.02, 0.03))), "ok");
        assert_eq!(verdict(&m, -0.30, None), "ok");
        assert_eq!(verdict(&m, 0.11, Some((0.02, 0.03))), "MEDIANS DIFFER");
        assert_eq!(verdict(&m, 0.05, Some((0.02, 0.13))), "SPREAD OVER BOUND");
        let setup = MetricDecl {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.25,
        };
        assert_eq!(verdict(&setup, 0.05, Some((0.4, 0.4))), "ok");
    }
}
