#![warn(missing_docs)]

//! # vb-par — deterministic scoped-thread parallelism
//!
//! Every figure/table sweep in this workspace is embarrassingly
//! parallel: per-pair cov computations, per-clique scoring, per-policy
//! simulations, per-shard fleet runs, branch-and-bound node batches.
//! [`par_map`] is the one fan-out they all share, with a contract the
//! experiment harness depends on:
//!
//! **Determinism.** [`par_map`] puts each task's result back at its
//! item's index, so the output vector is *bit-identical* at any thread
//! count — one worker and 64 produce the same bytes as long as the
//! task closure itself is a pure function of its item. All workspace
//! RNG is seeded per site/app stream, so the paper artifacts satisfy
//! that premise, and `tests/` pins it (Table 1, the §2.3 pair sweep
//! and the clique ranking are compared across thread counts).
//!
//! **Owned items.** Each item moves into its task by value, so a task
//! may consume its input (a fleet shard's simulator, a branch-and-bound
//! node whose last child re-solves in the node's own simplex state).
//! Index sweeps pass a range (`par_map(0..n, f)`).
//!
//! **Work sharing.** Workers claim runs of consecutive items from one
//! locked queue, so uneven task costs (a 7-day MIP policy run next to a
//! greedy one) don't leave threads idle. A run is
//! `max(1, remaining / (4 · workers))` items wide: wide while much is
//! left, so cheap tasks do not queue on the lock, and single items at
//! the tail, so the last claims stay balanced. No caller picks a width.
//!
//! **Panic propagation.** A panicking task aborts the map and re-raises
//! the original payload on the caller thread after the remaining
//! workers drain.
//!
//! **Thread-count control**, strongest first:
//! 1. a scoped [`with_threads`] override (used by the determinism tests),
//! 2. the `VB_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`],
//!
//! capped at the item count, so no worker starts without an item.
//!
//! **Nesting.** A [`par_map`] called inside another's task (a policy
//! run's branch-and-bound batches under Table 1's per-policy fan-out)
//! runs the one-worker path on that worker's thread: the outer map
//! already has a worker per core, and a fresh set of scoped workers per
//! inner batch made Table 1 slower at two workers than at one. Outputs
//! do not change, since results go back by index either way, and
//! `par.tasks` counts the inner items as before.
//!
//! **Telemetry.** `par.tasks` / `par.workers` counters, a
//! `par.worker_tasks` histogram (work-sharing balance across workers)
//! and `par.busy` spans. Each fan-out also captures the caller's trace
//! context and adopts it on every worker, so worker span timelines nest
//! under the span that launched the `par_map`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Scoped thread-count override, set by [`with_threads`]. 0 = unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Serialises [`with_threads`] scopes (the override is process-global).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set on the threads [`par_map`] starts, so a map nested in one of
    /// their tasks stays on that thread.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn override_threads() -> Option<usize> {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

fn env_threads() -> Option<usize> {
    std::env::var("VB_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

/// The worker count a map over `n_items` items uses: the override, then
/// `VB_THREADS`, then the machine's parallelism, capped at `n_items`.
fn workers(n_items: usize) -> usize {
    override_threads()
        .or_else(env_threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .clamp(1, n_items.max(1))
}

/// Run `f` with every [`par_map`] in the process pinned to `threads`
/// workers. Scopes are serialised against each other, so concurrent
/// tests using different counts cannot interleave. The override is
/// restored even if `f` panics.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    assert!(threads > 0, "thread override must be positive");
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(OVERRIDE.swap(threads, Ordering::Relaxed));
    f()
}

/// Map `f` over `items` in parallel, handing each item to its task by
/// value; `out[i] == f(item i)` in input order, bit-identical at any
/// thread count. Index sweeps pass `0..n`. The worker count resolves as
/// the crate doc describes, and is one inside another map's task; with
/// one worker this is exactly `items.into_iter().map(f).collect()`.
pub fn par_map<I, T, F>(items: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if ON_WORKER.get() { 1 } else { workers(n) };
    vb_telemetry::counter!("par.tasks").add(n as u64);
    vb_telemetry::counter!("par.workers").add(threads as u64);

    if threads == 1 {
        // Sequential reference path: the parallel path must bit-match it.
        let _span = vb_telemetry::span!("par.busy");
        vb_telemetry::histogram!("par.worker_tasks").observe(n as f64);
        return items.map(f).collect();
    }

    // The queue holds the unclaimed items and the index of the first.
    // Runs are disjoint and tagged with their start index, so putting
    // them back in start order restores exactly the sequential output.
    let queue = Mutex::new((0usize, items));
    let (f, queue) = (&f, &queue);
    let trace_ctx = vb_telemetry::trace_context();
    let mut runs: Vec<(usize, Vec<T>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    ON_WORKER.set(true);
                    let _trace = vb_telemetry::adopt_trace(trace_ctx);
                    let _span = vb_telemetry::span!("par.busy");
                    let mut mine = Vec::new();
                    let mut tasks = 0u64;
                    loop {
                        // A poisoned queue means another worker's
                        // iterator panicked; stop claiming and let the
                        // join below re-raise that panic.
                        let Ok(mut queue) = queue.lock() else { break };
                        let (next, rest) = &mut *queue;
                        let start = *next;
                        let width = (rest.len() / (4 * threads)).max(1);
                        let run: Vec<I::Item> = rest.take(width).collect();
                        *next += run.len();
                        drop(queue);
                        if run.is_empty() {
                            break;
                        }
                        tasks += run.len() as u64;
                        mine.push((start, run.into_iter().map(f).collect::<Vec<T>>()));
                    }
                    vb_telemetry::histogram!("par.worker_tasks").observe(tasks as f64);
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| match handle.join() {
                Ok(mine) => mine,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    runs.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, values) in runs {
        out.extend(values);
    }
    debug_assert_eq!(out.len(), n, "every item mapped exactly once");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_items_match_sequential_at_every_thread_count() {
        // Owned, non-Copy items: each task must receive exactly its own.
        for n in [0usize, 1, 2, 3, 7, 16, 101, 1000] {
            let expect: Vec<String> = (0..n).map(|i| format!("item {i}!")).collect();
            for threads in [1, 2, 3, 8, 64] {
                let items: Vec<String> = (0..n).map(|i| format!("item {i}")).collect();
                let out = with_threads(threads, || par_map(items, |s| s + "!"));
                assert_eq!(out, expect, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn nested_maps_stay_on_their_worker() {
        let inner = |i: usize| (0..9).map(|j| format!("{i}.{j}")).collect::<Vec<_>>();
        let expect: Vec<Vec<String>> = (0..12).map(inner).collect();
        for threads in [2, 4] {
            let out = with_threads(threads, || {
                par_map(0..12, |i| {
                    let worker = std::thread::current().id();
                    let nested =
                        par_map(0..9, |j| (std::thread::current().id(), format!("{i}.{j}")));
                    assert!(
                        nested.iter().all(|(id, _)| *id == worker),
                        "a nested map started threads"
                    );
                    nested.into_iter().map(|(_, s)| s).collect::<Vec<_>>()
                })
            });
            assert_eq!(out, expect, "threads = {threads}");
        }
        // A one-worker map runs on the caller, which is no worker: a map
        // nested in it still fans out.
        let caller = std::thread::current().id();
        let ids = with_threads(2, || {
            par_map(0..1, |_| par_map(0..2, |_| std::thread::current().id()))
        });
        assert!(ids[0].iter().all(|id| *id != caller));
    }

    #[test]
    fn task_panics_propagate_with_payload() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(0..32, |i| {
                    if i == 13 {
                        panic!("task 13 failed");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "task 13 failed");
    }

    #[test]
    fn uneven_task_costs_still_assemble_in_order() {
        // Early indices sleep so late indices finish first; order must
        // come from indices, not completion time.
        let out = with_threads(4, || {
            par_map(0..12, |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i
            })
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    /// The override outside every [`with_threads`] scope. Read under the
    /// scope lock, so a sibling test's live scope is never seen; the lock
    /// may be poisoned by the panic test, whose scope restored it first.
    fn settled_override() -> Option<usize> {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        override_threads()
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        assert_eq!(settled_override(), None);
        assert_eq!(with_threads(3, || workers(1000)), 3);
        assert_eq!(settled_override(), None, "override restored");
        // No worker starts without an item.
        assert_eq!(with_threads(64, || workers(3)), 3);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(settled_override(), None);
    }
}
