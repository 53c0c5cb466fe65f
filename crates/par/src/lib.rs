//! # qisim-par
//!
//! Zero-dependency parallel execution layer for the QIsim scalability
//! framework: a scoped-thread work queue with **deterministic result
//! ordering**, built on `std` only (the build environment is offline, so
//! `rayon` is unavailable by design).
//!
//! The paper's headline results are dense sweeps of `scalability::analyze`
//! over qubit counts and design points, and the surface-code Monte-Carlo
//! behind them is embarrassingly parallel. Both map onto [`par_map`] /
//! [`par_map_indices`]: tasks are pulled from a shared atomic index by a
//! small pool of scoped threads, every result lands in the slot of its
//! input, and the output `Vec` is **always in input order** regardless of
//! how many threads ran or which thread computed which item.
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in priority order:
//!
//! 1. the runtime override installed with [`set_threads`] (used by
//!    benches and determinism tests);
//! 2. the `QISIM_THREADS` environment variable (a positive integer);
//! 3. [`std::thread::available_parallelism`].
//!
//! # Serial path
//!
//! A thread count of 1 — `set_threads(Some(1))` or `QISIM_THREADS=1` —
//! runs the plain serial loop `(0..n).map(f)`, spawns no threads, and
//! produces bit-identical results. Callers are expected to make their
//! *work* thread-count independent (e.g. fixed chunking with per-chunk
//! RNG streams), at which point the serial and parallel runs agree
//! exactly.
//!
//! # Examples
//!
//! ```
//! use qisim_par::{par_map, par_map_indices, threads};
//!
//! // Results are in input order no matter how many threads ran.
//! let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // The index variant fits chunked Monte-Carlo: chunk `i` derives its
//! // own RNG stream from `i`, so the sum is thread-count independent.
//! let chunk_failures = par_map_indices(8, |i| i % 3);
//! assert_eq!(chunk_failures.iter().sum::<usize>(), 7);
//! assert!(threads() >= 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use qisim_obs::{counter, gauge, observe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runtime thread-count override; 0 means "no override installed".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (`Some(n)`) or removes (`None`) a runtime thread-count
/// override. The override takes precedence over `QISIM_THREADS` and the
/// machine's parallelism; benches use it to time serial-vs-parallel runs
/// inside one process, and the determinism tests use it to prove results
/// are identical at any thread count.
///
/// # Panics
///
/// Panics if `n == Some(0)`; use `Some(1)` to force the serial path.
pub fn set_threads(n: Option<usize>) {
    if let Some(0) = n {
        panic!("thread override must be positive; use Some(1) for serial");
    }
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Parses a `QISIM_THREADS` value; `None` for anything but a positive
/// integer.
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// The number of worker threads [`par_map`] will use: the [`set_threads`]
/// override if installed, else `QISIM_THREADS`, else the machine's
/// available parallelism. Always at least 1. `QISIM_THREADS` is
/// re-read on every call, so a changed value takes effect on the next
/// map.
pub fn threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => {
            std::env::var("QISIM_THREADS").ok().as_deref().and_then(parse_threads).unwrap_or_else(
                || std::thread::available_parallelism().map(usize::from).unwrap_or(1),
            )
        }
        n => n,
    }
}

/// Always `true`: every build carries the thread pool, and the serial
/// path is the runtime thread count 1 ([`set_threads`] or
/// `QISIM_THREADS=1`). Kept because benchmark provenance records still
/// report it.
pub const fn is_parallel_build() -> bool {
    true
}

/// Applies `f` to every element of `items`, in parallel, returning the
/// results **in input order**.
///
/// Work distribution is dynamic (an atomic next-index queue), so uneven
/// task costs — e.g. one power landing per sweep point — load-balance
/// across the pool; determinism of the *output* is unaffected because
/// every result is placed by its input index.
///
/// # Panics
///
/// Propagates the first worker panic (after all workers have stopped).
pub fn par_map<T: Sync, U: Send, F: Fn(&T) -> U + Sync>(items: &[T], f: F) -> Vec<U> {
    par_map_indices(items.len(), |i| f(&items[i]))
}

/// [`par_map_indices_with`] over fixed-size chunks of the range `0..n`:
/// task `i` receives its worker's state and `(i, start, len)` where
/// `start = i·chunk` and `len` is `chunk` except for the final remainder
/// chunk. The chunk grid depends only on `(n, chunk)` — never on the
/// thread count — so callers that derive per-chunk work (an RNG stream)
/// from the chunk index, and keep per-worker state (a scratch arena) that
/// no result depends on, get bit-identical aggregates at any parallelism.
///
/// The bit-sliced Monte-Carlo engine drives this with `chunk` a multiple
/// of 64, so every parallel work unit is a whole number of 64-trial
/// lane words.
///
/// # Panics
///
/// Panics if `chunk == 0`.
///
/// # Examples
///
/// ```
/// use qisim_par::par_map_chunked;
///
/// let spans = par_map_chunked(10, 4, || (), |_, i, start, len| (i, start, len));
/// assert_eq!(spans, vec![(0, 0, 4), (1, 4, 4), (2, 8, 2)]);
/// assert_eq!(par_map_chunked(0, 4, || (), |_, i, _, _| i), Vec::<usize>::new());
/// ```
pub fn par_map_chunked<S, U, I, F>(n: usize, chunk: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize, usize) -> U + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    par_map_indices_with(n.div_ceil(chunk), init, |state, i| {
        let start = i * chunk;
        f(state, i, start, chunk.min(n - start))
    })
}

/// [`par_map`] over the index range `0..n`: the chunked-Monte-Carlo /
/// design-grid building block (the caller derives per-task state, such as
/// an RNG stream, from the index alone).
pub fn par_map_indices<U: Send, F: Fn(usize) -> U + Sync>(n: usize, f: F) -> Vec<U> {
    par_map_indices_with(n, || (), |_, i| f(i))
}

/// [`par_map_indices`] with per-worker state: a worker calls `init` once,
/// before its first task, and hands the state to every task it runs —
/// so `init` runs once on the serial path and at most [`threads`] times
/// in parallel. Which tasks share a state depends on the scheduling, so
/// a task's result must not depend on what earlier tasks left in it
/// (reusable buffers, not accumulators). Results are in input order.
///
/// # Panics
///
/// Propagates the first worker panic (after all workers have stopped).
///
/// # Examples
///
/// ```
/// use qisim_par::par_map_indices_with;
///
/// // One buffer per worker, reused by every task that worker runs.
/// let sums = par_map_indices_with(4, Vec::new, |buf: &mut Vec<usize>, i| {
///     buf.clear();
///     buf.extend(0..=i);
///     buf.iter().sum::<usize>()
/// });
/// assert_eq!(sums, vec![0, 1, 3, 6]);
/// ```
pub fn par_map_indices_with<S, U, I, F>(n: usize, init: I, f: F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let workers = threads().min(n);
    counter!("par.map.calls");
    counter!("par.tasks", n as u64);
    gauge!("par.workers", workers.max(1) as f64);
    if workers <= 1 {
        let mut state = None;
        return (0..n).map(|i| f(state.get_or_insert_with(&init), i)).collect();
    }
    parallel_map_indices(n, workers, &init, &f)
}

/// The scoped-thread pool behind [`par_map_indices_with`]; only reached
/// when `workers > 1`.
fn parallel_map_indices<S, U, I, F>(n: usize, workers: usize, init: &I, f: &F) -> Vec<U>
where
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    qisim_obs::span!("par.map");
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    // Flight-recorder epoch for queue-to-start latency: tasks measure how
    // long they sat in the queue relative to the pool going live.
    let pool_t0 = qisim_obs::trace::now_ns();
    let queue_start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    if qisim_obs::trace::armed() {
                        qisim_obs::trace::set_thread_label(&format!("qisim-par worker-{w}"));
                    }
                    let started = std::time::Instant::now();
                    let mut state = None;
                    let mut local: Vec<(usize, U)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // Queue health for the telemetry exporter: how
                        // deep the backlog was when this task started,
                        // and how long it waited behind earlier tasks.
                        gauge!("par.queue_depth", (n - i - 1) as f64);
                        observe!("par.chunk.wait_ns", queue_start.elapsed().as_nanos() as f64);
                        if qisim_obs::trace::armed() {
                            let queue_ns = qisim_obs::trace::now_ns().saturating_sub(pool_t0);
                            qisim_obs::trace::instant(
                                "par.chunk.dispatch",
                                &[
                                    ("worker", w as f64),
                                    ("chunk", i as f64),
                                    ("queue_ns", queue_ns as f64),
                                ],
                            );
                        }
                        local.push((i, f(state.get_or_insert_with(init), i)));
                    }
                    (local, started.elapsed())
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok((local, busy)) => {
                    observe!("par.worker_busy_ns", busy.as_nanos() as f64);
                    for (i, value) in local {
                        slots[i] = Some(value);
                    }
                }
                Err(payload) => panic = Some(payload),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    slots.into_iter().map(|s| s.expect("every index visited exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_threads` and `QISIM_THREADS` are process-global; tests that
    /// touch them must not interleave.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn results_are_in_input_order_at_every_thread_count() {
        let _l = lock();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for n in [1usize, 2, 3, 8] {
            set_threads(Some(n));
            assert_eq!(par_map(&items, |&x| x * x + 1), expect, "threads = {n}");
        }
        set_threads(None);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let _l = lock();
        set_threads(Some(4));
        assert_eq!(par_map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[9u8], |&x| x + 1), vec![10]);
        assert_eq!(par_map_indices(0, |i| i), Vec::<usize>::new());
        set_threads(None);
    }

    #[test]
    fn uneven_tasks_still_land_in_order() {
        let _l = lock();
        set_threads(Some(4));
        // Task cost grows with index, so late tasks finish last on some
        // thread; ordering must be unaffected.
        let out = par_map_indices(64, |i| {
            let mut acc = 0u64;
            for k in 0..(i as u64 * 1000) {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i, acc)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row.0, i);
        }
        set_threads(None);
    }

    #[test]
    fn chunked_grid_covers_the_range_exactly_once() {
        let _l = lock();
        for (n, chunk) in [(0usize, 64usize), (63, 64), (64, 64), (65, 64), (257, 64), (256, 256)] {
            for threads in [1usize, 3] {
                set_threads(Some(threads));
                let spans = par_map_chunked(n, chunk, || (), |_, i, start, len| (i, start, len));
                let mut covered = 0usize;
                for (i, &(idx, start, len)) in spans.iter().enumerate() {
                    assert_eq!(idx, i);
                    assert_eq!(start, i * chunk);
                    assert!(len >= 1 && len <= chunk);
                    covered += len;
                }
                assert_eq!(covered, n, "n={n} chunk={chunk} threads={threads}");
            }
        }
        set_threads(None);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_is_rejected() {
        let _ = par_map_chunked(8, 0, || (), |_, i, _, _| i);
    }

    #[test]
    fn thread_resolution_prefers_override_then_env() {
        let _l = lock();
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        std::env::set_var("QISIM_THREADS", "5");
        assert_eq!(threads(), 5);
        std::env::set_var("QISIM_THREADS", "zero");
        assert!(threads() >= 1, "garbage env falls back to the machine");
        std::env::remove_var("QISIM_THREADS");
        assert!(threads() >= 1);
    }

    #[test]
    fn env_parser_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_override_is_rejected() {
        set_threads(Some(0));
    }

    #[test]
    fn worker_panics_propagate() {
        let _l = lock();
        set_threads(Some(2));
        let result = std::panic::catch_unwind(|| {
            par_map_indices(16, |i| {
                if i == 7 {
                    panic!("boom at 7");
                }
                i
            })
        });
        set_threads(None);
        assert!(result.is_err(), "panic must cross the pool");
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_outputs_stay_in_order() {
        let _l = lock();
        let expect: Vec<usize> = (0..100).map(|i| i * 3).collect();
        for n in [1usize, 2, 8] {
            set_threads(Some(n));
            let inits = AtomicUsize::new(0);
            let out = par_map_indices_with(
                100,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |buf, i| {
                    // A reused buffer: cleared by every task, so no
                    // result depends on which tasks shared it.
                    buf.clear();
                    buf.extend([i; 3]);
                    buf.iter().sum::<usize>()
                },
            );
            assert_eq!(out, expect, "threads = {n}");
            let inits = inits.load(Ordering::Relaxed);
            if n == 1 {
                assert_eq!(inits, 1, "the serial path builds one state");
            } else {
                assert!((1..=threads()).contains(&inits), "threads = {n}: {inits} inits");
            }
        }
        set_threads(None);
    }

    #[test]
    fn worker_state_panics_propagate() {
        let _l = lock();
        set_threads(Some(2));
        let result = std::panic::catch_unwind(|| {
            par_map_indices_with(
                16,
                || 0usize,
                |runs, i| {
                    *runs += 1;
                    if i == 7 {
                        panic!("boom at 7");
                    }
                    i
                },
            )
        });
        set_threads(None);
        assert!(result.is_err(), "panic must cross the pool");
    }
}
