//! The one worker pool for independent simulation units.
//!
//! Every parallel path in the workspace — `prepare`'s training scenarios,
//! [`crate::experiment::sweep`], `db-runner`'s checkpointed sweeps — maps
//! whole simulations, so the pool claims **one unit per `fetch_add`**
//! (cursor contention is noise next to a unit; balance is not). This
//! module decides how units are spread over threads: granularity, worker
//! count ([`worker_count`]) and what a panic does (caught per unit, handed
//! to the caller's sink). `std::thread::scope` is all the machinery this
//! needs (DESIGN.md §4: no external executor; §9 "Sweep parallelism").

use db_util::sync::lock_recover;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker-count rule, as a pure function: an `explicit` count ≥ 1
/// wins, else `DB_THREADS` (`env`; `0` and junk are ignored), else
/// `available` cores — capped by the unit count, and at least 1.
pub fn worker_count(explicit: usize, env: Option<&str>, available: usize, units: usize) -> usize {
    let env = env.and_then(|v| v.trim().parse().ok()).unwrap_or(0);
    let requested = if explicit >= 1 {
        explicit
    } else if env >= 1 {
        env
    } else {
        available
    };
    requested.min(units).max(1)
}

/// Run units `0..units` on a pool of worker threads. Each worker claims one
/// unit at a time, runs it under `catch_unwind`, and hands `(index,
/// result)` to `sink` — serialized under a mutex, in **completion order**.
/// A panicking unit is the sink's to judge ([`par_map`] re-raises it,
/// `db-runner` records it); the pool itself moves on to the next unit.
///
/// `workers == 0` means "not chosen": `DB_THREADS`, else every core (see
/// [`worker_count`]). A single worker is the calling thread: nothing is
/// spawned and the units run in index order.
pub fn run_units<R, F, S>(units: usize, workers: usize, run: F, sink: S)
where
    F: Fn(usize) -> R + Sync,
    S: FnMut(usize, std::thread::Result<R>) + Send,
{
    let workers = worker_count(
        workers,
        std::env::var("DB_THREADS").ok().as_deref(),
        std::thread::available_parallelism().map_or(4, |p| p.get()),
        units,
    );
    let next = AtomicUsize::new(0);
    let sink = Mutex::new(sink);
    let work = || loop {
        // `fetch_add` hands each index to exactly one worker; what the
        // unit reads is shared immutably by the thread scope, not gated
        // on this value.
        // db-lint: allow(conc-relaxed-publish) — claim counter, not a data gate
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= units {
            break;
        }
        let result = catch_unwind(AssertUnwindSafe(|| run(i)));
        (*lock_recover(&sink))(i, result);
    };
    if workers == 1 {
        return work();
    }
    // Two or more workers are all spawned and the caller only joins: a unit
    // run on the calling thread read ≈ 4 % slower on `sweep-geant` than one
    // on a fresh thread (the main thread's allocator arena), and a sweep
    // is as slow as its slowest worker.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(work);
        }
    });
}

/// Apply `f` to every item on the pool ([`run_units`], worker count from
/// `DB_THREADS` or the core count), returning results in input order.
///
/// # Panics
///
/// If `f` panics for an item, the remaining items still run and the
/// lowest-indexed panic is then re-raised on the caller with its own
/// payload. No partial results are returned.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on(0, &items, f)
}

fn map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<Option<std::thread::Result<R>>> = items.iter().map(|_| None).collect();
    run_units(
        items.len(),
        workers,
        |i| f(&items[i]),
        |i, result| slots[i] = Some(result),
    );
    slots
        .into_iter()
        .map(|slot| match slot.expect("the pool reports every unit") {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1_000).collect();
        let out = par_map(items, |&x| x * 2);
        assert_eq!(out, (0..1_000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(par_map(vec![41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_count_rule() {
        // explicit > env > available
        assert_eq!(worker_count(3, Some("5"), 8, 100), 3);
        assert_eq!(worker_count(0, Some("5"), 8, 100), 5);
        assert_eq!(worker_count(0, Some(" 2\n"), 8, 100), 2);
        assert_eq!(worker_count(0, None, 8, 100), 8);
        // `0` and junk in the environment are ignored
        for junk in ["0", "", "-1", "two", "1.5"] {
            assert_eq!(
                worker_count(0, Some(junk), 8, 100),
                8,
                "DB_THREADS={junk:?}"
            );
        }
        // capped by the unit count, whichever source won; never zero
        assert_eq!(worker_count(16, None, 8, 4), 4);
        assert_eq!(worker_count(0, Some("16"), 8, 4), 4);
        assert_eq!(worker_count(0, None, 8, 4), 4);
        assert_eq!(worker_count(0, None, 8, 0), 1);
        assert_eq!(worker_count(1, Some("8"), 8, 100), 1);
    }

    #[test]
    fn each_worker_claims_one_unit_at_a_time() {
        // Four units that can only finish together: with chunked claims one
        // worker would hold all four and the barrier would never open.
        let barrier = Barrier::new(4);
        let mut seen = Vec::new();
        run_units(
            4,
            4,
            |i| {
                barrier.wait();
                i
            },
            |i, r| seen.push((i, r.expect("no unit panics"))),
        );
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn one_worker_runs_in_index_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut order = Vec::new();
        run_units(
            5,
            1,
            |i| (i, std::thread::current().id()),
            |_, r| order.push(r.expect("no unit panics")),
        );
        assert_eq!(order, (0..5).map(|i| (i, caller)).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        // Silence the worker's panic backtrace; restore the hook after.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(|| {
            par_map((0..64).collect::<Vec<u32>>(), |&x| {
                if x == 33 {
                    panic!("worker failure");
                }
                x * 2
            })
        });
        std::panic::set_hook(prev);
        let payload = result.expect_err("a panicking worker must fail the whole map");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"worker failure"),
            "the caller sees the unit's own panic, not the scope's"
        );
    }

    #[test]
    fn explicit_worker_counts_agree() {
        for n in [1u32, 3, 4, 5, 7, 8, 9, 37] {
            let items: Vec<u32> = (0..n).collect();
            let seq = map_on(1, &items, |&x| x * 3 + 1);
            assert_eq!(seq, (0..n).map(|x| x * 3 + 1).collect::<Vec<_>>());
            for workers in [2, 3, 8, 64] {
                assert_eq!(
                    map_on(workers, &items, |&x| x * 3 + 1),
                    seq,
                    "{n} items on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn heavy_closure_runs_in_parallel() {
        // Not a strict timing test — just exercise the multi-worker path
        // with enough items to hit every worker.
        let items: Vec<u32> = (0..64).collect();
        let out = par_map(items, |&x| {
            let mut acc = x as u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        // Deterministic regardless of scheduling.
        let again = par_map((0..64).collect::<Vec<u32>>(), |&x| {
            let mut acc = x as u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        });
        assert_eq!(out, again);
    }
}
