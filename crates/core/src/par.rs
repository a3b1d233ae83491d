//! The workspace's threads: one worker pool for independent simulation
//! units, and one set of helper threads for the streaming engine's shards.
//!
//! Every parallel path in the workspace — `prepare`'s training scenarios,
//! [`crate::experiment::sweep`], `db-runner`'s checkpointed sweeps — maps
//! whole simulations, so the pool claims **one unit per `fetch_add`**
//! (cursor contention is noise next to a unit; balance is not). This
//! module decides how units are spread over threads: granularity, worker
//! count ([`worker_count`]) and what a panic does (caught per unit, handed
//! to the caller's sink). `std::thread::scope` is all the machinery this
//! needs (DESIGN.md §4: no external executor; §9 "Sweep parallelism").
//!
//! The streaming engine's shard count (`Engine::set_shards`) follows the
//! same worker-count rule, but its shards are not pool units: a run's
//! groups of shards beyond the first borrow idle helpers of one
//! process-wide set through `join`, shared by every engine.

use db_util::sync::lock_recover;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, SendError, Sender, TryRecvError};
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

/// Times a [`Helper`], and a caller waiting on one, poll their channel
/// before blocking on it: ≈ 2 ms on the reference host (2^15 polls took
/// 1.0–1.3 ms), longer than the engine thread's serial work between two
/// runs, a tick's ≈ 0.6–1.3 ms included, so a helper fed run after run
/// never sleeps.
const SPIN: u32 = 1 << 16;

/// A job with its borrows erased; see [`join`] for why that is sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent thread that runs jobs borrowing the caller's data, one
/// [`join`] at a time. Between jobs it polls before it sleeps. On the
/// reference host (2 vCPUs under a contended hypervisor), a thread spawned
/// per job, or woken from sleep, started 100–400 µs late, and a run split
/// that way ran slower than one thread alone; a thread that has not slept
/// starts at once.
struct Helper {
    jobs: Sender<Job>,
    done: Receiver<std::thread::Result<()>>,
}

impl Helper {
    /// Start a helper; `None` if the OS refuses a thread. The thread ends
    /// when the helper is dropped.
    fn spawn() -> Option<Helper> {
        let (jobs, inbox) = channel::<Job>();
        let (outbox, done) = channel();
        std::thread::Builder::new()
            .name("db-shard".into())
            .spawn(move || {
                while let Ok(job) = recv_polling(&inbox) {
                    // The job is dropped inside `catch_unwind`, before its
                    // result is sent.
                    if outbox.send(catch_unwind(AssertUnwindSafe(job))).is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(Helper { jobs, done })
    }
}

/// `rx.recv()`, after polling it [`SPIN`] times.
fn recv_polling<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    for _ in 0..SPIN {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv()
}

/// Helpers [`join`] borrows from: the idle ones, and how many were started.
type HelperSet = Mutex<(Vec<Helper>, usize)>;

/// The process's one set of helpers. It holds no more helpers than the
/// most jobs one [`join`] has asked for: a run's thread groups beyond the
/// first, so fewer than the largest shard count any engine has run at.
static HELPERS: HelperSet = Mutex::new((Vec::new(), 0));

/// Run each of `jobs` on an idle helper of the process's set while `here`
/// runs on the calling thread, and return once every one of them has
/// finished. A job that finds no idle helper runs on the calling thread
/// after `here`: a join never waits for a busy helper, so joins on
/// several threads at once, and joins inside jobs, share the set without
/// a deadlock. A join of no jobs takes no lock. A panic in any of them is
/// re-raised here, after all have finished.
pub(crate) fn join<'a, J>(
    jobs: impl IntoIterator<Item = J, IntoIter: ExactSizeIterator>,
    here: impl FnOnce(),
) where
    J: FnOnce() + Send + 'a,
{
    join_on(&HELPERS, jobs, here);
}

/// [`join`] on `set`.
fn join_on<'a, J>(
    set: &HelperSet,
    jobs: impl IntoIterator<Item = J, IntoIter: ExactSizeIterator>,
    here: impl FnOnce(),
) where
    J: FnOnce() + Send + 'a,
{
    let jobs = jobs.into_iter();
    if jobs.len() == 0 {
        return here();
    }
    let mut pending = Pending {
        set,
        lent: lend(set, jobs.len()),
        sent: 0,
    };
    let mut leftover = Vec::new();
    for job in jobs {
        let Some(helper) = pending.lent.get(pending.sent) else {
            leftover.push(job);
            continue;
        };
        let job: Box<dyn FnOnce() + Send + 'a> = Box::new(job);
        // SAFETY: only the lifetime changes. The job's borrows live for
        // 'a, which outlives this call, and the job is not used after this
        // call returns or unwinds: a helper that took it sends its result
        // only after the job has run and been dropped, and `pending`
        // waits for that result on every exit from this function
        // (`Drop` on unwind). A helper whose thread is gone no longer
        // holds the job either: a failed send hands it back.
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) };
        match helper.jobs.send(job) {
            Ok(()) => pending.sent += 1,
            Err(SendError(job)) => job(),
        }
    }
    here();
    for job in leftover {
        job();
    }
    if let Some(payload) = pending.finish() {
        resume_unwind(payload);
    }
}

/// Up to `want` helpers of `set`: idle ones first, then new ones while the
/// set holds fewer than `want`.
fn lend(set: &HelperSet, want: usize) -> Vec<Helper> {
    let mut set = lock_recover(set);
    let (idle, started) = &mut *set;
    let mut lent = idle.split_off(idle.len().saturating_sub(want));
    while lent.len() < want && *started < want {
        let Some(helper) = Helper::spawn() else {
            break;
        };
        *started += 1;
        lent.push(helper);
    }
    lent
}

/// The helpers a [`join`] borrowed, handed back on drop.
struct Pending<'s> {
    set: &'s HelperSet,
    lent: Vec<Helper>,
    /// The first `sent` of `lent` run a job.
    sent: usize,
}

impl Pending<'_> {
    /// Wait for every job handed out and give the helpers back; the first
    /// panic's payload.
    fn finish(&mut self) -> Option<Box<dyn std::any::Any + Send>> {
        if self.lent.is_empty() {
            return None;
        }
        let mut panic = None;
        for helper in self.lent.iter().take(self.sent) {
            // `Err`: the thread is gone, and its job with it.
            if let Ok(Err(payload)) = recv_polling(&helper.done) {
                panic.get_or_insert(payload);
            }
        }
        self.sent = 0;
        lock_recover(self.set).0.append(&mut self.lent);
        panic
    }
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        self.finish();
    }
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

    /// Every job runs once, on a helper or, past the helpers, on the
    /// caller, writing through its own `&mut` borrow.
    #[test]
    fn join_runs_every_borrowing_job() {
        let set = HelperSet::default();
        for round in 0..3u64 {
            let mut cells = [0u64; 4];
            let mut here = 0u64;
            let jobs = (cells.iter_mut().enumerate())
                .map(|(i, c)| move || *c = (i as u64 + 1) * 10 + round);
            join_on(&set, jobs, || here = round + 1);
            assert_eq!(cells, [10, 20, 30, 40].map(|v| v + round));
            assert_eq!(here, round + 1);
        }
        assert_eq!(lock_recover(&set).1, 4);
    }

    /// A job's panic reaches the caller only once every job has finished,
    /// and so does a panic on the calling thread; the helpers serve the
    /// next join either way.
    #[test]
    fn join_waits_for_every_job_before_a_panic_surfaces() {
        use std::sync::atomic::AtomicBool;
        let set = HelperSet::default();
        let finished = AtomicBool::new(false);
        let slow = || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            finished.store(true, Ordering::SeqCst);
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join_on(&set, [slow], || panic!("on the calling thread"))
        }));
        assert!(caught.is_err());
        assert!(finished.swap(false, Ordering::SeqCst));
        let jobs: [Box<dyn FnOnce() + Send>; 2] = [Box::new(|| panic!("in a job")), Box::new(slow)];
        let caught = catch_unwind(AssertUnwindSafe(|| join_on(&set, jobs, || {})));
        assert!(caught.is_err());
        assert!(finished.load(Ordering::SeqCst));
        let caller = std::thread::current().id();
        let mut ran_on = None;
        join_on(&set, [|| ran_on = Some(std::thread::current().id())], || {});
        assert!(ran_on.is_some_and(|t| t != caller), "a helper took the job");
        assert_eq!(lock_recover(&set).1, 2);
    }

    /// Joins of one job from two threads at once, and from inside the jobs
    /// of a [`par_map`], each finish every job, and the set they share
    /// never holds more than the one helper a join asks for: a join that
    /// finds it busy runs its job itself.
    #[test]
    fn concurrent_and_nested_joins_share_one_bounded_set() {
        let set = HelperSet::default();
        let work = |seed: u64| {
            let (mut a, mut b) = (0u64, 0u64);
            for round in 0..200u64 {
                join_on(&set, [|| a += round * seed], || b += round);
            }
            (a, b)
        };
        let want = |seed: u64| ((0..200u64).sum::<u64>() * seed, (0..200u64).sum());
        std::thread::scope(|scope| {
            let threads = [scope.spawn(|| work(3)), scope.spawn(|| work(5))];
            for (t, seed) in threads.into_iter().zip([3, 5]) {
                assert_eq!(t.join().expect("no job panics"), want(seed));
            }
        });
        let nested = map_on(3, &[2u64, 7, 11], |&seed| work(seed));
        assert_eq!(nested, [2, 7, 11].map(want));
        assert_eq!(lock_recover(&set).1, 1);
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
