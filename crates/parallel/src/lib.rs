//! Workspace-wide parallel execution layer.
//!
//! Everything here is built on [`std::thread::scope`] — no external
//! dependencies, no long-lived pool, no unsafe. The design constraint that
//! shapes the whole module is *determinism*: a parallel map must return
//! exactly what the sequential map would, in the same order, regardless of
//! the thread count. Callers that need per-item randomness derive an
//! independent RNG stream per item (e.g. per tree) rather than sharing one
//! sequential RNG, so results are bit-identical at any thread count.
//!
//! Thread-count resolution, in priority order:
//!
//! 1. an explicit caller request (`Some(n)` from a config field),
//! 2. the `AIRFINGER_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 1 short-circuits to a plain in-place loop, so
//! single-core machines and `AIRFINGER_THREADS=1` runs never pay for thread
//! spawning.

use std::num::NonZeroUsize;

/// Environment variable overriding the worker-thread count for every
/// parallel operation in the workspace.
pub const THREADS_ENV: &str = "AIRFINGER_THREADS";

/// Resolve the effective worker-thread count.
///
/// `requested` is the caller's explicit choice (typically a config field
/// where 0 means "auto"). When it is `None` or `Some(0)`, the
/// [`THREADS_ENV`] environment variable is consulted; when that is unset,
/// empty, or unparseable, the count falls back to
/// [`std::thread::available_parallelism`] (and to 1 if even that is
/// unavailable). The result is always at least 1.
#[must_use]
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => env_threads().unwrap_or_else(auto_threads),
    }
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Record how many jobs one worker executed during one dispatch. The
/// per-worker distribution is a scheduling observation, not a result, so
/// it lives in a histogram (which the determinism suite deliberately
/// ignores — only counters must be thread-count-invariant).
fn observe_worker_jobs(op: &'static str, jobs: usize) {
    if !airfinger_obs::recording() {
        return;
    }
    // lint: metric-suffix — unitless jobs-per-worker distribution, not a latency
    airfinger_obs::histogram_with("parallel_worker_jobs", &[("op", op)]).record(jobs as u64);
}

/// Map `f` over `items` using up to `threads` scoped worker threads,
/// preserving input order in the output.
///
/// The items are split into one contiguous chunk per worker, each worker
/// maps its chunk independently, and the chunks are reassembled in order —
/// so for any pure `f` the result is exactly `items.iter().map(f).collect()`
/// at every thread count. `f` receives `(index, item)` where `index` is the
/// item's position in `items`, which is what lets callers derive
/// deterministic per-item state (seeds, labels) independent of scheduling.
///
/// With `threads <= 1` or fewer than two items, the map runs inline on the
/// calling thread with no spawning at all.
pub fn par_map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    // Counted at the dispatch site — once per item, never per worker — so
    // the total is identical at every thread count.
    airfinger_obs::counter!("parallel_jobs_total", op = "map").add(n as u64);
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        let _busy = airfinger_obs::span!("parallel_worker_busy_seconds", op = "map");
        observe_worker_jobs("map", n);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Ceil-divide so the last chunk is never longer than the others.
    let chunk = n.div_ceil(workers);
    let mut chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let f = &f;
                scope.spawn(move || {
                    let _busy = airfinger_obs::span!("parallel_worker_busy_seconds", op = "map");
                    observe_worker_jobs("map", slice.len());
                    slice
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(c * chunk + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // Re-raise the worker's panic payload on the caller's
                // thread instead of panicking with a fresh message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = Vec::with_capacity(n);
    for c in &mut chunks {
        out.append(c);
    }
    out
}

/// Order-preserving parallel map without the index; see
/// [`par_map_indexed`].
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, threads, |_, t| f(t))
}

/// Mutate `items` in place using up to `threads` scoped worker threads.
///
/// The items are split into one contiguous chunk per worker via
/// [`slice::chunks_mut`], so every worker owns a disjoint sub-slice and no
/// locks are taken — this is the fleet layer's shard-drain primitive,
/// where each shard exclusively owns its sessions. `f` receives
/// `(index, &mut item)` with the item's global index. Because each item is
/// visited exactly once by exactly one worker, any per-item deterministic
/// `f` leaves `items` in a state independent of the thread count.
///
/// With `threads <= 1` or fewer than two items, the loop runs inline on
/// the calling thread with no spawning at all.
pub fn par_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    // Counted at the dispatch site — once per item, never per worker — so
    // the total is identical at every thread count.
    airfinger_obs::counter!("parallel_jobs_total", op = "for_each_mut").add(n as u64);
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        let _busy = airfinger_obs::span!("parallel_worker_busy_seconds", op = "for_each_mut");
        observe_worker_jobs("for_each_mut", n);
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let f = &f;
                scope.spawn(move || {
                    let _busy =
                        airfinger_obs::span!("parallel_worker_busy_seconds", op = "for_each_mut");
                    observe_worker_jobs("for_each_mut", slice.len());
                    for (i, item) in slice.iter_mut().enumerate() {
                        f(c * chunk + i, item);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Run `count` independent jobs on up to `threads` workers and collect the
/// results in job order: the parallel equivalent of
/// `(0..count).map(f).collect()`.
///
/// Jobs are handed out dynamically from a shared atomic counter, so uneven
/// job durations (one slow experiment among many fast ones) still keep all
/// workers busy. Output order is by job index, never by completion order.
pub fn par_run<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    airfinger_obs::counter!("parallel_jobs_total", op = "run").add(count as u64);
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        let _busy = airfinger_obs::span!("parallel_worker_busy_seconds", op = "run");
        observe_worker_jobs("run", count);
        return (0..count).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let _busy = airfinger_obs::span!("parallel_worker_busy_seconds", op = "run");
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    observe_worker_jobs("run", mine.len());
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(done.len(), count);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16, 200] {
            let got = par_map(&items, threads, |x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_indexed_passes_global_indices() {
        let items = vec![10u64; 57];
        for threads in [1, 3, 8] {
            let got = par_map_indexed(&items, threads, |i, x| i as u64 * 1000 + x);
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, i as u64 * 1000 + 10, "threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map(&[42u32], 8, |x| *x + 1), vec![43]);
    }

    #[test]
    fn par_for_each_mut_visits_every_item_once() {
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..97).collect();
            par_for_each_mut(&mut items, threads, |i, v| *v = *v * 2 + i as u64);
            let expect: Vec<u64> = (0..97).map(|i| i * 3).collect();
            assert_eq!(items, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_for_each_mut_handles_empty_and_single() {
        let mut empty: Vec<u32> = vec![];
        par_for_each_mut(&mut empty, 4, |_, _| {});
        assert!(empty.is_empty());
        let mut one = vec![7u32];
        par_for_each_mut(&mut one, 4, |_, v| *v += 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn par_run_preserves_job_order() {
        for threads in [1, 2, 5, 32] {
            let got = par_run(41, threads, |i| i * 3);
            let expect: Vec<usize> = (0..41).map(|i| i * 3).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_run_zero_jobs() {
        assert!(par_run(0, 4, |i| i).is_empty());
    }

    #[test]
    fn effective_threads_explicit_wins() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert_eq!(effective_threads(Some(1)), 1);
    }

    #[test]
    fn effective_threads_is_positive() {
        assert!(effective_threads(None) >= 1);
        assert!(effective_threads(Some(0)) >= 1);
    }
}
