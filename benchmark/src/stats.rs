//! Order statistics the workloads report: percentiles, the share of
//! operations that met a latency limit, and the quartile spread `bench aa`
//! judges steadiness by.

/// Sort ascending; NaN never occurs (every sample is a measured duration or
/// a count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` in `[0, 1]`; an empty
/// slice reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank, so always a measured value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Share of `attempted` operations whose latency is at most `limit`. An
/// operation with no sample — it failed, or was never answered — counts as
/// missing the limit, which is why the divisor is `attempted` and not
/// `latencies.len()`.
pub fn share_within(latencies: &[f64], limit: f64, attempted: usize) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    let met = latencies.iter().filter(|&&l| l <= limit).count();
    met as f64 / attempted as f64
}

/// Consecutive slices [`steady_share_within`] cuts a run into: 250 ms each
/// in a 10 s run, longer than a window-close stall of the daemon and
/// shorter than the host's bursts.
pub const SHARE_SLICES: usize = 40;

/// The quantile of per-slice shares [`steady_share_within`] reports: the
/// upper quartile, the mirror image of [`LATENCY_QUANTILE`].
pub const SHARE_QUANTILE: f64 = 0.75;

/// [`share_within`] of the run's undisturbed stretches: the run's
/// operations, in order, are cut into [`SHARE_SLICES`] consecutive slices,
/// each slice's share is taken, and the [`SHARE_QUANTILE`] of those is the
/// result. When the shared host stalls the system, every operation due
/// during the stall misses the limit (they queue), so the plain share
/// follows how many bursts a run caught: over four 10 s paced runs in the
/// host's noisy state it read 0.91, 0.88, 0.73, 0.19, this 0.96, 0.95, 0.92,
/// 0.31. A slower window close costs batches in every slice and moves it
/// all the same. An operation with no sample counts as late, in the slice
/// it belongs to: samples are in operation order, so the missing ones are
/// the last.
pub fn steady_share_within(latencies: &[f64], limit: f64, attempted: usize) -> f64 {
    let slices = SHARE_SLICES.min(attempted);
    let mut shares: Vec<f64> = (0..slices)
        .map(|k| {
            let (from, to) = (k * attempted / slices, (k + 1) * attempted / slices);
            let answered = &latencies[from.min(latencies.len())..to.min(latencies.len())];
            share_within(answered, limit, to - from)
        })
        .collect();
    sort(&mut shares);
    percentile(&shares, SHARE_QUANTILE)
}

/// The quantile of repetition times [`steady_rate`] keeps. Disturbance on a
/// shared host only ever slows a repetition down, so the fast end of the
/// distribution is the steady one: over twenty 5 s runs of one loop on the
/// sandbox the run-to-run range of the 10th percentile was 5 % of its
/// median, of the 25th 9 %, of the median 23 %, of the mean 20 %.
pub const STEADY_QUANTILE: f64 = 0.10;

/// The quantile of operation latencies reported as the typical latency, for
/// the same reason (see `README.md`, "Steadiness").
pub const LATENCY_QUANTILE: f64 = 0.25;

/// Typical latency of unsorted samples: their [`LATENCY_QUANTILE`].
pub fn typical_latency(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, LATENCY_QUANTILE)
}

/// How many times the run's own typical latency an operation may take
/// before it counts as stalled (see [`stall_limit`]).
pub const STALL_FACTOR: f64 = 3.0;

/// The latency limit of a workload that has no limit of its own:
/// [`STALL_FACTOR`] times the run's typical latency. Relative to the run, so
/// it means the same on another machine and after a speed-up; the share
/// within it says how heavy the slow tail is, not how fast the typical
/// operation is (`op_p25_us` says that).
pub fn stall_limit(latencies: &[f64]) -> f64 {
    STALL_FACTOR * typical_latency(latencies)
}

/// Work per second from repetitions of equal work, discarding the
/// repetitions a shared machine disturbed.
///
/// Only for repetitions that really do the same work each time: the fast end
/// of a mix of cheap and dear operations is the cheap ones, not the steady
/// ones. A workload whose operations differ in cost (a path query that hits
/// or misses the route cache) times fixed blocks of them, so a block's cost
/// follows the mix, or cycles through a fixed list of inputs as phases.
///
/// `times[i]` is the wall time of repetition `i`; repetitions cycle through
/// `phases` kinds of work (`i % phases`), and one full cycle does `work`.
/// Each phase contributes the [`STEADY_QUANTILE`] of its samples (nearest
/// rank, so the fastest one when there are fewer than ten) and the rate is
/// `work` over their sum. On a quiet machine that equals the plain ratio; on
/// the sandbox — a shared host whose effective CPU speed drops in bursts —
/// it is the rate of the repetitions that were left alone. `None` until
/// every phase has a sample.
pub fn steady_rate(times: &[f64], phases: usize, work: f64) -> Option<f64> {
    if phases == 0 || times.len() < phases {
        return None;
    }
    let mut cycle_s = 0.0;
    for phase in 0..phases {
        let mut v: Vec<f64> = times.iter().skip(phase).step_by(phases).copied().collect();
        sort(&mut v);
        cycle_s += percentile(&v, STEADY_QUANTILE);
    }
    (cycle_s > 0.0).then(|| work / cycle_s)
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance driver uses; needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis; the segment index is
        // clamped, the fraction is not, so short inputs extrapolate exactly
        // as Python does.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread figure the
/// bounds in `BENCHMARK.json` are sized against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_does_not_need_sorted_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn unanswered_operations_miss_the_limit() {
        let lat = [1.0, 2.0, 3.0, 10.0];
        assert_eq!(share_within(&lat, 3.0, 4), 0.75);
        // Six attempted, two never answered: they count as late.
        assert_eq!(share_within(&lat, 3.0, 6), 0.5);
        assert_eq!(share_within(&[], 3.0, 0), 0.0);
    }

    #[test]
    fn steady_share_drops_a_stall_and_keeps_a_uniform_loss() {
        // 400 operations, 10 per slice; one in ten misses the limit
        // everywhere, and a stall makes slices 5..15 miss it entirely.
        let lat: Vec<f64> = (0..400)
            .map(|i| {
                if (50..150).contains(&i) || i % 10 == 0 {
                    9.0
                } else {
                    1.0
                }
            })
            .collect();
        assert_eq!(share_within(&lat, 3.0, 400), 0.675);
        assert_eq!(steady_share_within(&lat, 3.0, 400), 0.9);
        // Twice the loss in every slice shows in full.
        let worse: Vec<f64> = (0..400)
            .map(|i| if i % 5 == 0 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(steady_share_within(&worse, 3.0, 400), 0.8);
        // Unanswered operations are the last ones, and late.
        assert_eq!(steady_share_within(&[1.0; 200], 3.0, 400), 1.0);
        assert_eq!(steady_share_within(&[1.0; 100], 3.0, 400), 0.0);
        // Fewer operations than slices: one slice each.
        assert_eq!(steady_share_within(&[1.0, 9.0, 1.0, 1.0], 3.0, 4), 1.0);
        assert_eq!(steady_share_within(&[], 3.0, 0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
    }

    #[test]
    fn steady_rate_ignores_disturbed_repetitions_and_keeps_phases_apart() {
        // Two phases costing 1 s and 3 s; one repetition of each was
        // disturbed. Four units of work per cycle → 1 unit/s.
        let times = [1.0, 3.0, 1.0, 9.0, 5.0, 3.0, 1.0, 3.0];
        assert_eq!(steady_rate(&times, 2, 4.0), Some(1.0));
        // Undisturbed, it is the plain ratio.
        assert_eq!(steady_rate(&[2.0, 2.0, 2.0], 1, 10.0), Some(5.0));
        // Not one full cycle yet.
        assert_eq!(steady_rate(&[1.0], 2, 4.0), None);
        assert_eq!(steady_rate(&[], 1, 4.0), None);
    }

    #[test]
    fn stall_limit_follows_the_runs_own_typical_latency() {
        let lat = [10.0, 10.0, 10.0, 12.0, 29.0, 31.0, 10.0, 11.0];
        assert_eq!(stall_limit(&lat), 30.0);
        assert_eq!(share_within(&lat, stall_limit(&lat), lat.len()), 0.875);
        // The same run twice as fast has the same share.
        let fast: Vec<f64> = lat.iter().map(|l| l / 2.0).collect();
        assert_eq!(share_within(&fast, stall_limit(&fast), fast.len()), 0.875);
    }

    #[test]
    fn iqr_share_of_a_constant_is_zero() {
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
