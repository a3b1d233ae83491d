//! What the benchmark reads from the host: peak resident memory, thread CPU
//! time, core count, toolchain and commit. All from `/proc` and two
//! commands — arguments and files only, no environment variables.

use std::process::Command;

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, MiB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(status_path).map_err(|e| format!("reading {status_path}: {e}"))?;
    parse_vm_hwm_kb(&text)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("{status_path} has no VmHWM line"))
}

/// Peak resident set of this process, MiB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    vm_hwm_mb("/proc/self/status")
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// CPU time (user + system) the calling thread has used, seconds, from
/// `/proc/thread-self/stat`. The kernel accounts it in 10 ms ticks, which is
/// fine over a multi-second run and useless over a short one.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')')?.1;
    let mut f = rest.split_whitespace();
    let utime: u64 = f.nth(11)?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// `rustc -V`, or "unknown".
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, or "unknown" outside a git repository (the
/// acceptance driver runs in an exported tree).
pub fn commit() -> String {
    command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_a_status_file() {
        let status = "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_a_command_name_with_spaces_and_parens() {
        let stat = "123 (my (odd) name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(own_peak_rss_mb().unwrap() > 0.0);
    }
}
