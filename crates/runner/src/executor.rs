//! Shard-isolated execution of [`SweepJob`]s on the workspace's one worker
//! pool ([`db_core::par::run_units`]).
//!
//! The pool owns the threading: one unit per claim, worker count from
//! `--workers` / [`SweepBuilder::workers`], else `DB_THREADS`, else every
//! core, each unit under `catch_unwind`. This module is the sink: a
//! panicking unit is recorded as [`UnitStatus::Failed`] with its panic
//! message and the sweep moves on, instead of one poisoned scenario
//! aborting an hours-long full-scale sweep. Completed units update the
//! `runner.*` metrics and go to the `on_unit` callback (checkpoint append +
//! progress), serialized by the pool, in completion order.
//!
//! Determinism note: because every unit's result is a pure function of its
//! [`SweepJob`], the worker count and claim interleaving affect only
//! *when* a unit runs, never what it produces. The builder re-sorts by
//! unit index afterwards.
//!
//! [`SweepBuilder::workers`]: crate::SweepBuilder::workers

use crate::job::{SweepJob, UnitOutcome, UnitStatus};
use crate::metrics::RunnerMetrics;
use db_core::par::run_units;
use db_core::ScenarioOutcome;
use std::time::Instant;

/// Render a caught panic payload as a message. Panics via `panic!("...")`
/// carry `&str` or `String`; anything else gets a placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Records a unit's wall clock when it ends, by return or by unwind.
struct UnitTimer<'m>(Option<&'m RunnerMetrics>, Instant);

impl Drop for UnitTimer<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.0 {
            m.unit_latency_ns.record(self.1.elapsed().as_nanos() as u64);
        }
    }
}

/// Run `jobs` on the pool with `workers` threads (`0`: `DB_THREADS`, else
/// every core), isolating per-unit panics, and feed each finished
/// [`UnitOutcome`] to `on_unit` (serialized, in completion order). Returns
/// the outcomes in **completion order**; the caller sorts by unit index.
///
/// `stop_after = Some(n)` processes only the first `n` jobs — the
/// kill-after-N knob behind the resume CI smoke.
///
/// `run` executes one job; it is the seam tests use to substitute cheap
/// synthetic workloads (or injected panics) for full simulations.
///
/// `metrics` is the pre-registered `runner.*` bundle (the builder registers
/// it before deciding whether anything is pending, so a zero-budget call
/// still leaves the gauge at 0 in the snapshot); `None` disables
/// instrumentation entirely.
pub fn execute<F>(
    jobs: &[SweepJob],
    workers: usize,
    stop_after: Option<usize>,
    metrics: Option<&RunnerMetrics>,
    run: F,
    on_unit: &mut (dyn FnMut(&UnitOutcome) + Send),
) -> Vec<UnitOutcome>
where
    F: Fn(&SweepJob) -> ScenarioOutcome + Sync,
{
    let budget = stop_after.unwrap_or(usize::MAX).min(jobs.len());
    if let Some(m) = metrics {
        m.units_remaining.set(budget as f64);
    }
    let mut collected = Vec::with_capacity(budget);
    run_units(
        budget,
        workers,
        |i| {
            let _timer = UnitTimer(metrics, Instant::now());
            run(&jobs[i])
        },
        |i, result| {
            let status = match result {
                Ok(outcome) => UnitStatus::Done(outcome),
                Err(payload) => UnitStatus::Failed(panic_message(payload)),
            };
            if let Some(m) = metrics {
                match &status {
                    UnitStatus::Done(_) => m.units_done.inc(),
                    UnitStatus::Failed(_) => m.units_failed.inc(),
                }
                m.units_remaining.set((budget - collected.len() - 1) as f64);
            }
            let outcome = UnitOutcome {
                unit: jobs[i].unit,
                status,
            };
            on_unit(&outcome);
            collected.push(outcome);
        },
    );
    collected
}

#[cfg(test)]
mod tests {
    use super::*;
    use db_core::experiment::ScenarioKind;
    use db_netsim::{SimStats, SimTime};
    use db_topology::LinkId;

    fn job(unit: usize) -> SweepJob {
        SweepJob {
            unit,
            kind: ScenarioKind::None,
            seed: unit as u64,
        }
    }

    fn synthetic(job: &SweepJob) -> ScenarioOutcome {
        ScenarioOutcome {
            ground_truth: vec![LinkId(job.unit as u16)],
            t_fail: SimTime(job.seed),
            window: (SimTime(0), SimTime(1)),
            variants: vec![],
            stats: SimStats::default(),
        }
    }

    fn units_of(outcomes: &[UnitOutcome]) -> Vec<usize> {
        let mut u: Vec<usize> = outcomes.iter().map(|o| o.unit).collect();
        u.sort_unstable();
        u
    }

    #[test]
    fn executes_every_job_once() {
        let jobs: Vec<SweepJob> = (0..17).map(job).collect();
        for workers in [1, 2, 8] {
            let mut seen = Vec::new();
            let out = execute(&jobs, workers, None, None, synthetic, &mut |u| {
                seen.push(u.unit)
            });
            assert_eq!(
                units_of(&out),
                (0..17).collect::<Vec<_>>(),
                "{workers} workers"
            );
            let mut seen_sorted = seen;
            seen_sorted.sort_unstable();
            assert_eq!(seen_sorted, (0..17).collect::<Vec<_>>());
            assert!(out.iter().all(|u| u.outcome().is_some()));
        }
    }

    #[test]
    fn stop_after_takes_exactly_the_first_n_jobs() {
        let jobs: Vec<SweepJob> = (0..10).map(job).collect();
        let out = execute(&jobs, 4, Some(3), None, synthetic, &mut |_| {});
        assert_eq!(units_of(&out), vec![0, 1, 2]);
    }

    #[test]
    fn a_panicking_unit_is_isolated() {
        let jobs: Vec<SweepJob> = (0..8).map(job).collect();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = execute(
            &jobs,
            3,
            None,
            None,
            |j| {
                if j.unit == 5 {
                    panic!("injected unit failure {}", j.unit);
                }
                synthetic(j)
            },
            &mut |_| {},
        );
        std::panic::set_hook(prev);
        assert_eq!(units_of(&out), (0..8).collect::<Vec<_>>());
        let failed: Vec<&UnitOutcome> = out.iter().filter(|u| u.error().is_some()).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].unit, 5);
        assert_eq!(failed[0].error().unwrap(), "injected unit failure 5");
    }

    #[test]
    fn metrics_account_for_every_unit() {
        let reg = db_telemetry::MetricsRegistry::new();
        let m = RunnerMetrics::register(&reg);
        let jobs: Vec<SweepJob> = (0..6).map(job).collect();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        execute(
            &jobs,
            2,
            None,
            Some(&m),
            |j| {
                if j.unit % 3 == 0 {
                    panic!("boom");
                }
                synthetic(j)
            },
            &mut |_| {},
        );
        std::panic::set_hook(prev);
        assert_eq!(m.units_done.get(), 4);
        assert_eq!(m.units_failed.get(), 2);
        assert_eq!(m.units_remaining.get(), 0.0);
        assert_eq!(m.unit_latency_ns.count(), 6);

        // A zero-budget call still publishes the (empty) remaining gauge
        // instead of returning before instrumentation.
        let m2 = RunnerMetrics::register(&reg);
        m2.units_remaining.set(99.0);
        assert!(execute(&jobs, 2, Some(0), Some(&m2), synthetic, &mut |_| {}).is_empty());
        assert_eq!(m2.units_remaining.get(), 0.0);
    }

    #[test]
    fn empty_jobs_and_zero_budget_are_fine() {
        let none: Vec<SweepJob> = Vec::new();
        assert!(execute(&none, 0, None, None, synthetic, &mut |_| {}).is_empty());
        let jobs: Vec<SweepJob> = (0..4).map(job).collect();
        assert!(execute(&jobs, 2, Some(0), None, synthetic, &mut |_| {}).is_empty());
    }
}
