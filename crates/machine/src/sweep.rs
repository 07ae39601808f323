//! Parallel parameter sweeps over machine configurations.
//!
//! The benchmark harness evaluates many `(machine, size)` points; each
//! point is an independent simulation, so the sweep fans out over OS
//! threads with `std::thread::scope`.  Results come back in input order
//! regardless of completion order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve the worker-thread count honouring the `SKILLTAX_THREADS`
/// environment override: a positive value forces that many threads, `0`,
/// unset or unparsable falls back to [`std::thread::available_parallelism`].
///
/// Every sweep goes through this, so one knob pins the whole process for
/// CI reproducibility (documented next to the `SKILLTAX_BENCH_*` knobs in
/// the README).
pub fn configured_threads() -> usize {
    match std::env::var("SKILLTAX_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    }
}

/// Run `f` over `items` in parallel (scoped threads, one lock-free work
/// queue, results in input order).  Falls back to sequential execution
/// for tiny inputs.
///
/// The worker count honours the `SKILLTAX_THREADS` environment override
/// (via [`configured_threads`]; `0`/unset =
/// `available_parallelism`).  Workers claim contiguous chunks of indices
/// with one `fetch_add` per chunk (chunk size `n / (threads * 8)`, min 1
/// — small enough to keep the tail balanced, large enough that the
/// shared counter is off the hot path) and buffer their results
/// thread-locally, so no shared lock is held around either `f` or the
/// result writes.  If any worker panics, the first panic payload is
/// re-raised verbatim on the caller's thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, f, configured_threads())
}

/// [`parallel_map`] with an explicit worker count (the testable core:
/// edge-case tests pin `threads` instead of racing on the process
/// environment).
pub(crate) fn parallel_map_with<T, R, F>(items: Vec<T>, f: F, threads: usize) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_ref(&items, f, threads)
}

/// The borrow-based core of [`parallel_map`]: callers that still need
/// their items afterwards ([`sweep`] pairs params with results) map over
/// a slice instead of cloning the whole parameter vector.
pub(crate) fn parallel_map_ref<T, R, F>(items: &[T], f: F, threads: usize) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let threads = threads.min(n);
    let chunk = (n / (threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    let items = &items;
    let f = &f;
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (index, item) in items.iter().enumerate().take(end).skip(start) {
                            local.push((index, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        let mut chunks = Vec::with_capacity(threads);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(chunk) => chunks.push(chunk),
                Err(payload) => {
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        chunks
    });
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (index, value) in chunks.into_iter().flatten() {
        results[index] = Some(value);
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// A labelled sweep: run `f` over `params`, pairing each result with its
/// parameter.  Results come back in input order and worker panics
/// propagate verbatim, exactly as in [`parallel_map`] — the pairing is a
/// zip over the *original* parameter vector (no clone), so the
/// `(param, result)` association is positional and deterministic even
/// when many more params than worker threads race on the chunk queue.
pub fn sweep<T, R, F>(params: Vec<T>, f: F) -> Vec<(T, R)>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    sweep_with(params, f, configured_threads())
}

/// [`sweep`] with an explicit worker count (the testable core: the
/// deterministic-ordering and panic-propagation regression tests pin
/// `threads` instead of racing on the process environment).
pub(crate) fn sweep_with<T, R, F>(params: Vec<T>, f: F, threads: usize) -> Vec<(T, R)>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results = parallel_map_ref(&params, f, threads);
    params.into_iter().zip(results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayMachine, ArraySubtype};
    use crate::workload::{run_vector_add_array, vector_add_reference};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items.clone(), |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = parallel_map((0..257).collect::<Vec<i32>>(), |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = parallel_map(Vec::<u8>::new(), |&x| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panics_propagate_verbatim() {
        // Regression: the old Mutex<&mut Vec<_>> version poisoned the slot
        // lock on panic and surfaced "sweep slots poisoned" instead of the
        // worker's own message.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map((0..64).collect::<Vec<i32>>(), |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        }))
        .unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .expect("panic payload is a string");
        assert_eq!(message, "boom at 13");
    }

    #[test]
    fn fewer_items_than_threads_still_covers_everything() {
        // n < threads: the thread count clamps to n and no worker spins
        // on an empty queue.
        let count = AtomicUsize::new(0);
        let out = parallel_map_with(
            (0..3).collect::<Vec<u64>>(),
            |&x| {
                count.fetch_add(1, Ordering::Relaxed);
                x + 100
            },
            16,
        );
        assert_eq!(out, vec![100, 101, 102]);
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn chunk_size_one_tail_stays_balanced() {
        // 9 items over 8 threads: chunk = max(9 / 64, 1) = 1, so the tail
        // item is claimed individually and exactly once.
        let count = AtomicUsize::new(0);
        let out = parallel_map_with(
            (0..9).collect::<Vec<usize>>(),
            |&x| {
                count.fetch_add(1, Ordering::Relaxed);
                x * 2
            },
            8,
        );
        assert_eq!(out, (0..9).map(|x| x * 2).collect::<Vec<usize>>());
        assert_eq!(count.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn panic_payload_survives_a_forced_two_thread_run() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_with(
                (0..32).collect::<Vec<i32>>(),
                |&x| {
                    if x == 7 {
                        panic!("two-thread boom at {x}");
                    }
                    x
                },
                2,
            )
        }))
        .unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a string");
        assert_eq!(message, "two-thread boom at 7");
    }

    #[test]
    fn input_order_preserved_under_forced_two_threads() {
        // The order contract the SKILLTAX_THREADS=2 CI leg relies on:
        // results land by input index no matter which worker ran them.
        let items: Vec<u64> = (0..101).rev().collect();
        let out = parallel_map_with(items.clone(), |&x| x * 3, 2);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn sweep_pairs_params_with_results() {
        let out = sweep(vec![1u32, 2, 3], |&x| x * 10);
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn sweep_ordering_deterministic_with_more_params_than_threads() {
        // Regression (ISSUE 9): many more params than workers, forced
        // onto 2 threads so chunks genuinely interleave.  Every result
        // must stay zipped to its own parameter, in input order.
        let params: Vec<u64> = (0..101).rev().collect();
        let out = sweep_with(params.clone(), |&x| x * x + 1, 2);
        assert_eq!(out.len(), params.len());
        for (expected, (param, result)) in params.into_iter().zip(out) {
            assert_eq!(param, expected);
            assert_eq!(result, param * param + 1);
        }
    }

    #[test]
    fn sweep_propagates_worker_panics_verbatim() {
        // Regression (ISSUE 9): a panic inside the sweep closure must
        // surface with its original payload, not a join/zip artifact.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep_with(
                (0..64).collect::<Vec<i32>>(),
                |&x| {
                    if x == 21 {
                        panic!("sweep boom at {x}");
                    }
                    x
                },
                2,
            )
        }))
        .unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a string");
        assert_eq!(message, "sweep boom at 21");
    }

    #[test]
    fn sweep_accepts_non_clone_params() {
        // The zip-over-the-original rewrite dropped the `Clone` bound:
        // params move in, results pair positionally.
        struct Opaque(u32);
        let out = sweep(vec![Opaque(5), Opaque(9)], |p| p.0 * 2);
        assert_eq!(
            out.iter().map(|(p, r)| (p.0, *r)).collect::<Vec<_>>(),
            vec![(5, 10), (9, 18)]
        );
    }

    #[test]
    fn machine_simulations_parallelise() {
        // A realistic use: sweep array sizes in parallel and check every
        // simulation against the reference.
        let sizes: Vec<usize> = vec![2, 4, 8, 16, 32];
        let results = sweep(sizes, |&n| {
            let a: Vec<i64> = (0..n as i64).collect();
            let b: Vec<i64> = (0..n as i64).rev().collect();
            let got = run_vector_add_array(ArraySubtype::I, &a, &b).unwrap();
            (
                got.outputs == vector_add_reference(&a, &b),
                got.stats.cycles,
            )
        });
        for (n, (ok, cycles)) in results {
            assert!(ok, "size {n}");
            assert!(cycles > 0);
        }
        // Sanity: machines are constructible inside worker threads.
        let machines = parallel_map(vec![2usize, 3, 4], |&n| {
            ArrayMachine::new(ArraySubtype::II, n, 4).lane_count()
        });
        assert_eq!(machines, vec![2, 3, 4]);
    }
}
