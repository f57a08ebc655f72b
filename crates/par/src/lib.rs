//! `rsd-par` — the workspace's deterministic thread pool.
//!
//! A clean-room, std-only "work-stealing-lite" pool: one process-wide set
//! of workers (size from `RSD_THREADS`, default `available_parallelism`),
//! an injector queue of chunked index-range jobs, and caller
//! participation while waiting. No external crates.
//!
//! # Determinism guarantee
//!
//! Every primitive here decomposes work into chunks whose boundaries are
//! a pure function of the *problem size* (`len` and the caller's `grain`)
//! — never of the thread count. Each chunk writes disjoint output, and
//! every reduction folds per-chunk partials in ascending chunk order on
//! the calling thread. Consequently `RSD_THREADS=1`, `=4`, unset, and a
//! [`run_serial`] scope all produce **bit-identical** results; threads
//! only change *which* core executes a chunk and when.
//!
//! Callers must uphold the same rule: a `grain` passed to these functions
//! must not be derived from [`num_threads`].
//!
//! # Telemetry
//!
//! The pool emits a `par.pool_size` gauge at creation and counts
//! dispatched chunks in the `par.tasks` counter; NDJSON records carry a
//! `thread` field (see `rsd-obs`) so spans from pool workers are
//! attributable. Each job also captures the submitting thread's span
//! context and replays it on workers, so spans opened inside parallel
//! chunks parent under the submitting span in the rsd-obs call tree
//! instead of floating at top level.

mod pool;

pub use pool::{global_pool, ThreadPool, MAX_THREADS};

use std::ops::Range;
use std::sync::Arc;

/// Number of threads parallel sections may use on this thread: the local
/// pool installed by [`with_local_pool`], a [`run_serial`] scope (1), or
/// the global pool's size.
pub fn num_threads() -> usize {
    if pool::serial_forced() || pool::in_worker() {
        return 1;
    }
    match pool::local_pool() {
        Some(p) => p.threads(),
        None => global_pool().threads(),
    }
}

/// Run `f` with all rsd-par primitives forced serial on this thread
/// (nested scopes stack). The pool is untouched; chunks simply run inline
/// in ascending order — which, by the determinism contract, yields the
/// same bits as any parallel execution. Used by benches and tests as the
/// serial baseline.
pub fn run_serial<T>(f: impl FnOnce() -> T) -> T {
    pool::push_serial();
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            pool::pop_serial();
        }
    }
    let _guard = Guard;
    f()
}

/// Run `f` with parallel sections on this thread served by a temporary
/// pool of `threads` workers instead of the global pool — an in-process
/// stand-in for re-running with `RSD_THREADS=threads`. The pool is torn
/// down when the scope ends.
pub fn with_local_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Guard(Option<Arc<ThreadPool>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            pool::swap_local_pool(self.0.take());
        }
    }
    let prev = pool::swap_local_pool(Some(Arc::new(ThreadPool::new(threads))));
    let _guard = Guard(prev);
    f()
}

/// Split `0..len` into chunks of `grain` indices and run `f` on each
/// chunk, in parallel when profitable. Chunk boundaries depend only on
/// `len` and `grain`. Runs inline when: the pool is size 1, there is a
/// single chunk, the caller is itself a pool worker (nested call), or a
/// [`run_serial`] scope is active.
pub fn parallel_for<F: Fn(Range<usize>) + Sync>(len: usize, grain: usize, f: F) {
    if len == 0 {
        return;
    }
    let grain = grain.clamp(1, len);
    let n_chunks = len.div_ceil(grain);
    let run_chunk = |chunk: usize| {
        let start = chunk * grain;
        f(start..(start + grain).min(len));
    };
    if n_chunks == 1 || pool::serial_forced() || pool::in_worker() {
        for c in 0..n_chunks {
            run_chunk(c);
        }
        return;
    }
    match pool::local_pool() {
        Some(p) => p.run(n_chunks, &run_chunk),
        None => global_pool().run(n_chunks, &run_chunk),
    }
}

/// Pointer wrapper so disjoint `&mut` chunks can be materialized on other
/// threads. Soundness: every use below hands each index range to exactly
/// one chunk.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the bare `*mut T` (edition-2021 disjoint
    /// capture would otherwise grab the field).
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Split `data` into disjoint chunks of `grain` elements and run
/// `f(chunk_start, chunk)` on each, in parallel when profitable.
pub fn parallel_chunks_mut<T: Send, F>(data: &mut [T], grain: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(len, grain, move |range| {
        // SAFETY: parallel_for chunks are disjoint subranges of 0..len.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        f(range.start, chunk);
    });
}

/// [`parallel_chunks_mut`] over two equal-length slices, chunked at the
/// same boundaries (for paired outputs like gradient/hessian arrays).
pub fn parallel_join_mut<A: Send, B: Send, F>(a: &mut [A], b: &mut [B], grain: usize, f: F)
where
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(a.len(), b.len(), "parallel_join_mut length mismatch");
    let len = a.len();
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    parallel_for(len, grain, move |range| {
        // SAFETY: disjoint subranges, one chunk per range (see above).
        let (ca, cb) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(range.start), range.len()),
                std::slice::from_raw_parts_mut(pb.get().add(range.start), range.len()),
            )
        };
        f(range.start, ca, cb);
    });
}

/// Map chunks of `0..len` to partial values in parallel, then fold the
/// partials **in ascending chunk order** on the calling thread. The fold
/// order is what keeps floating-point reductions independent of the
/// thread count. Returns `None` for `len == 0`.
pub fn parallel_reduce<R, M, F>(len: usize, grain: usize, map: M, mut fold: F) -> Option<R>
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    F: FnMut(R, R) -> R,
{
    if len == 0 {
        return None;
    }
    let grain = grain.clamp(1, len);
    let n_chunks = len.div_ceil(grain);
    let mut parts: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n_chunks).collect();
    parallel_chunks_mut(&mut parts, 1, |chunk_idx, slot| {
        let start = chunk_idx * grain;
        slot[0] = Some(map(start..(start + grain).min(len)));
    });
    let mut iter = parts.into_iter().map(|p| p.expect("chunk executed"));
    let first = iter.next()?;
    Some(iter.fold(first, &mut fold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(1000, 7, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_mut_fills_disjoint_slices() {
        let mut data = vec![0usize; 503];
        parallel_chunks_mut(&mut data, 13, |start, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = start + off;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn join_mut_chunks_align() {
        let mut a = vec![0usize; 257];
        let mut b = vec![0usize; 257];
        parallel_join_mut(&mut a, &mut b, 16, |start, ca, cb| {
            for (off, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                *x = start + off;
                *y = 2 * (start + off);
            }
        });
        assert!(a.iter().enumerate().all(|(i, &v)| v == i));
        assert!(b.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn reduce_order_is_thread_count_independent() {
        // An fp sum whose value depends on association order: if the fold
        // happened in claim order rather than chunk order, runs would
        // disagree with the serial scope.
        let xs: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2_654_435_761_usize % 1000) as f32 - 500.0) * 1e-3)
            .collect();
        let sum = |r: std::ops::Range<usize>| xs[r].iter().copied().sum::<f32>();
        let par = parallel_reduce(xs.len(), 97, sum, |a, b| a + b).unwrap();
        let ser = run_serial(|| parallel_reduce(xs.len(), 97, sum, |a, b| a + b).unwrap());
        assert_eq!(par.to_bits(), ser.to_bits());
    }

    #[test]
    fn nested_calls_run_inline() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(8, 1, |outer| {
            for o in outer {
                parallel_for(8, 1, |inner| {
                    for i in inner {
                        hits[o * 8 + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn local_pool_runs_all_chunks_and_tears_down() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        with_local_pool(4, || {
            assert_eq!(num_threads(), 4);
            parallel_for(100, 3, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_serial_reports_one_thread() {
        run_serial(|| assert_eq!(num_threads(), 1));
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(16, &|chunk| {
                if chunk == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable after a panic.
        let count = AtomicUsize::new(0);
        pool.run(8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn worker_spans_parent_under_submitting_span() {
        rsd_obs::capture(|| {
            let pool = ThreadPool::new(4);
            {
                let _submit = rsd_obs::Span::enter("par.test.submit");
                pool.run(64, &|_chunk| {
                    let _s = rsd_obs::Span::enter("par.test.chunk");
                    std::hint::black_box((0..5_000).sum::<u64>());
                });
            }
            // Every chunk span — whether it ran on the submitter (real
            // stack) or a worker (replayed context) — lands on the same
            // tree path, and none float at top level.
            let nested = rsd_obs::registry()
                .tree_stat("par.test.submit;par.test.chunk")
                .expect("chunk spans parent under the submitting span");
            assert_eq!(nested.count, 64);
            assert!(rsd_obs::registry().tree_stat("par.test.chunk").is_none());
        });
    }

    #[test]
    fn rsd_threads_overrides_caps_and_rejects_garbage() {
        use rsd_obs::knob::{pool_size, THREADS};
        let size = |raw: &str| pool_size(THREADS.parse_as(Some(raw)));
        assert_eq!(size("4"), 4);
        assert_eq!(size(" 2 "), 2);
        assert_eq!(size("999"), MAX_THREADS);
        let auto = pool_size(None);
        assert!(auto >= 1);
        assert_eq!(size(""), auto);
        assert_eq!(size("0"), auto);
        // Garbage aborts naming the knob; it used to fall back to auto.
        let err = std::panic::catch_unwind(|| size("banana")).expect_err("must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("RSD_THREADS"), "{msg}");
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        parallel_for(0, 8, |_| panic!("must not run"));
        assert!(parallel_reduce(0, 8, |_| 0u32, |a, b| a + b).is_none());
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut empty, 4, |_, _| panic!("must not run"));
        parallel_for(5, 0, |r| assert!(r.len() == 1)); // grain clamped to >= 1
    }
}
