#![warn(missing_docs)]

//! # vb-par — deterministic scoped-thread parallelism
//!
//! Every figure/table sweep in this workspace is embarrassingly
//! parallel: per-pair cov computations, per-clique scoring, per-policy
//! simulations, per-shard fleet runs. This crate is the one executor
//! they all share, with a contract the experiment harness depends on:
//!
//! **Determinism.** [`par_map`] writes each task's result at its input
//! index, so the output vector is *bit-identical* at any thread count —
//! `threads = 1` and `threads = 64` produce the same bytes as long as
//! the task closure itself is a pure function of its index. All
//! workspace RNG is seeded per site/app stream, so the paper artifacts
//! satisfy that premise, and `tests/` pins it (Table 1, the §2.3 pair
//! sweep and the clique ranking are compared across thread counts).
//!
//! **Work sharing.** Workers claim chunks of the index range from an
//! atomic cursor instead of pre-splitting it, so uneven task costs (a
//! 7-day MIP policy run next to a greedy one) don't leave threads idle.
//! [`ParConfig::min_chunk`] amortises cursor traffic for cheap tasks.
//!
//! **Owned items.** [`par_map_owned`] consumes a `Vec` and hands each
//! item to its task by value, for tasks that must own their input (a
//! branch-and-bound node whose last child re-solves in the node's own
//! simplex state). The items are split into one contiguous run per
//! worker before any worker starts, so no item is shared and no lock is
//! taken; results still come back in index order.
//!
//! **Panic propagation.** A panicking task aborts the map and re-raises
//! the original payload on the caller thread after the remaining
//! workers drain.
//!
//! **Thread-count control**, strongest first:
//! 1. an explicit [`ParConfig::threads`],
//! 2. a scoped [`with_threads`] override (used by the determinism tests),
//! 3. the `VB_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! **Telemetry.** `par.tasks` / `par.workers` counters, a
//! `par.worker_tasks` histogram (work-sharing balance across workers)
//! and `par.busy` spans. Each fan-out also captures the caller's trace
//! context and adopts it on every worker, so worker span timelines nest
//! under the span that launched the `par_map`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ParConfig {
    /// Worker count; `None` defers to the [`with_threads`] override,
    /// then `VB_THREADS`, then the machine's available parallelism.
    pub threads: Option<usize>,
    /// Smallest index chunk a worker claims per cursor fetch. Raise it
    /// for very cheap tasks so cursor traffic does not dominate.
    pub min_chunk: usize,
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig {
            threads: None,
            min_chunk: 1,
        }
    }
}

impl ParConfig {
    /// Config pinned to an explicit worker count.
    pub fn with_threads(threads: usize) -> ParConfig {
        ParConfig {
            threads: Some(threads),
            ..ParConfig::default()
        }
    }

    /// The worker count a map over `n_tasks` indices will actually use:
    /// the configured/overridden/env/machine thread count, capped so no
    /// worker would sit idle even if every claim were `min_chunk` wide.
    pub fn resolve_threads(&self, n_tasks: usize) -> usize {
        if n_tasks == 0 {
            return 0;
        }
        let configured = self
            .threads
            .or_else(override_threads)
            .or_else(env_threads)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
            });
        configured
            .max(1)
            .min(n_tasks.div_ceil(self.min_chunk.max(1)))
    }
}

/// Scoped thread-count override, set by [`with_threads`]. 0 = unset.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Serialises [`with_threads`] scopes (the override is process-global).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

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

/// Run `f` with every [`par_map`] in the process pinned to `threads`
/// workers (unless a call site passes an explicit [`ParConfig::threads`],
/// which still wins). Scopes are serialised against each other, so
/// concurrent tests using different counts cannot interleave. The
/// override is restored even if `f` panics.
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

/// Map `f` over `0..n` in parallel; `out[i] == f(i)` in input order,
/// bit-identical at any thread count. Uses [`ParConfig::default`] (so
/// `VB_THREADS` and [`with_threads`] apply).
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(&ParConfig::default(), n, f)
}

/// [`par_map`] with tasks claimed `min_chunk` indices at a time —
/// for maps whose per-index work is too cheap to pay one cursor fetch
/// each (e.g. the §2.3 pair sweep's ~300 small cov computations).
pub fn par_map_chunked<T, F>(n: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cfg = ParConfig {
        min_chunk: min_chunk.max(1),
        ..ParConfig::default()
    };
    par_map_with(&cfg, n, f)
}

/// [`par_map`] under an explicit [`ParConfig`].
pub fn par_map_with<T, F>(cfg: &ParConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = cfg.resolve_threads(n);
    let chunk = cfg.min_chunk.max(1);
    vb_telemetry::counter!("par.tasks").add(n as u64);
    vb_telemetry::counter!("par.workers").add(threads as u64);

    if threads <= 1 {
        // Sequential reference path: the parallel path must bit-match it.
        let _span = vb_telemetry::span!("par.busy");
        vb_telemetry::histogram!("par.worker_tasks").observe(n as f64);
        return (0..n).map(f).collect();
    }

    // Workers claim [start, start+chunk) ranges off a shared cursor and
    // keep each completed chunk tagged with its start index; chunks are
    // disjoint, so reassembling them in start order restores exactly the
    // sequential output.
    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<(usize, Vec<T>)> = run_workers(vec![(); threads], |()| {
        let mut mine: Vec<(usize, Vec<T>)> = Vec::new();
        let mut tasks = 0u64;
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            mine.push((start, (start..end).map(&f).collect()));
            tasks += (end - start) as u64;
        }
        (mine, tasks)
    })
    .into_iter()
    .flatten()
    .collect();

    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, values) in chunks {
        out.extend(values);
    }
    debug_assert_eq!(out.len(), n, "every index produced exactly once");
    out
}

/// Map `f` over `items` in parallel, handing each item to its task by
/// value; `out[i] == f(items[i])` in input order, bit-identical at any
/// thread count. The items are split into one contiguous run per worker
/// before the workers start (the first `n % threads` runs one item
/// longer), so each worker owns its run outright. There is no work
/// sharing: use it where tasks must own their input, [`par_map`]
/// elsewhere. The worker count resolves as for [`par_map`].
pub fn par_map_owned<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = ParConfig::default().resolve_threads(n);
    vb_telemetry::counter!("par.tasks").add(n as u64);
    vb_telemetry::counter!("par.workers").add(threads as u64);

    if threads <= 1 {
        let _span = vb_telemetry::span!("par.busy");
        vb_telemetry::histogram!("par.worker_tasks").observe(n as f64);
        return items.into_iter().map(f).collect();
    }

    // Split off the runs from the back, then restore worker order.
    let (base, extra) = (n / threads, n % threads);
    let mut rest = items;
    let mut runs: Vec<Vec<T>> = (0..threads)
        .rev()
        .map(|k| rest.split_off(k * base + k.min(extra)))
        .collect();
    runs.reverse();
    let out: Vec<U> = run_workers(runs, |run| {
        let tasks = run.len() as u64;
        (run.into_iter().map(&f).collect::<Vec<U>>(), tasks)
    })
    .into_iter()
    .flatten()
    .collect();
    debug_assert_eq!(out.len(), n, "every item mapped exactly once");
    out
}

/// Run `work` on one scoped worker per job and return the results in
/// job order. Each worker adopts the caller's trace context, so its
/// `par.busy` span (and everything its tasks open) nests under the
/// fan-out point in trace timelines, and reports the task count `work`
/// returns to `par.worker_tasks`. A worker's panic is re-raised on the
/// caller with its own payload once the scope has joined the rest.
fn run_workers<J, R, W>(jobs: Vec<J>, work: W) -> Vec<R>
where
    J: Send,
    R: Send,
    W: Fn(J) -> (R, u64) + Sync,
{
    let trace_ctx = vb_telemetry::trace_context();
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                scope.spawn(move || {
                    let _trace = vb_telemetry::adopt_trace(trace_ctx);
                    let _span = vb_telemetry::span!("par.busy");
                    let (out, tasks) = work(job);
                    vb_telemetry::histogram!("par.worker_tasks").observe(tasks as f64);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_input_order() {
        let out = par_map(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn all_thread_counts_match_sequential() {
        let expect: Vec<u64> = (0..101)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let cfg = ParConfig::with_threads(threads);
            let out = par_map_with(&cfg, 101, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn owned_items_match_par_map_at_every_thread_count() {
        // Owned, non-Copy items: each task must receive exactly its own.
        for n in [0usize, 1, 2, 3, 7, 16, 101] {
            let expect = par_map_with(&ParConfig::with_threads(1), n, |i| format!("item {i}!"));
            for threads in [1, 2, 3, 8, 64] {
                let items: Vec<String> = (0..n).map(|i| format!("item {i}")).collect();
                let out = with_threads(threads, || par_map_owned(items, |s| s + "!"));
                assert_eq!(out, expect, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn owned_task_panics_propagate_with_payload() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_owned((0..32).collect(), |i: usize| {
                    if i == 13 {
                        panic!("owned task 13 failed");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "owned task 13 failed");
    }

    #[test]
    fn chunked_claims_match_sequential() {
        let expect: Vec<usize> = (0..100).map(|i| i + 7).collect();
        for min_chunk in [1, 3, 16, 100, 1000] {
            assert_eq!(
                par_map_chunked(100, min_chunk, |i| i + 7),
                expect,
                "min_chunk = {min_chunk}"
            );
        }
    }

    #[test]
    fn threads_cap_at_useful_parallelism() {
        let cfg = ParConfig::with_threads(64);
        assert_eq!(cfg.resolve_threads(3), 3);
        assert_eq!(cfg.resolve_threads(0), 0);
        let chunky = ParConfig {
            threads: Some(64),
            min_chunk: 10,
        };
        // 25 tasks in chunks of 10 is at most 3 busy workers.
        assert_eq!(chunky.resolve_threads(25), 3);
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
        let inner = with_threads(3, || ParConfig::default().resolve_threads(1000));
        assert_eq!(inner, 3);
        assert_eq!(settled_override(), None, "override restored");
        // Explicit config still wins over the scope.
        let pinned = with_threads(3, || ParConfig::with_threads(2).resolve_threads(1000));
        assert_eq!(pinned, 2);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(settled_override(), None);
    }

    #[test]
    fn task_panics_propagate_with_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(&ParConfig::with_threads(4), 32, |i| {
                if i == 13 {
                    panic!("task 13 failed");
                }
                i
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task 13 failed"), "payload: {message:?}");
    }

    #[test]
    fn uneven_task_costs_still_assemble_in_order() {
        // Early indices sleep so late indices finish first; order must
        // come from indices, not completion time.
        let out = par_map_with(&ParConfig::with_threads(4), 12, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }
}
