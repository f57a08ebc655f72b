//! The pool itself: persistent workers, an injector queue of chunked
//! jobs, and caller participation.
//!
//! A job is a borrowed `Fn(usize)` closure plus an atomic chunk cursor.
//! Workers (and the submitting thread) claim chunk indices with a
//! `fetch_add` and run them; the submitter blocks on a completion latch
//! until every chunk has finished, which is what makes the lifetime
//! erasure of the borrowed closure sound — the borrow cannot end while
//! any worker still holds it.
//!
//! Determinism contract: *which thread* runs a chunk is racy, but chunk
//! *boundaries* are computed by the caller from problem size alone (never
//! from the thread count), and each chunk writes disjoint output. Any
//! pool size — including the forced-serial scope — therefore produces
//! bit-identical results.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

pub use rsd_obs::knob::MAX_THREADS;

thread_local! {
    /// Set on pool worker threads: nested parallel calls run inline
    /// instead of re-entering the queue (no deadlock, no oversubscription).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Depth of [`crate::run_serial`] scopes on this thread.
    static SERIAL_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Pool installed by [`crate::with_local_pool`] for this thread.
    static LOCAL_POOL: std::cell::RefCell<Option<Arc<ThreadPool>>> =
        const { std::cell::RefCell::new(None) };
}

pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

pub(crate) fn serial_forced() -> bool {
    SERIAL_DEPTH.with(|d| d.get() > 0)
}

pub(crate) fn push_serial() {
    SERIAL_DEPTH.with(|d| d.set(d.get() + 1));
}

pub(crate) fn pop_serial() {
    SERIAL_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
}

pub(crate) fn swap_local_pool(pool: Option<Arc<ThreadPool>>) -> Option<Arc<ThreadPool>> {
    LOCAL_POOL.with(|p| std::mem::replace(&mut *p.borrow_mut(), pool))
}

pub(crate) fn local_pool() -> Option<Arc<ThreadPool>> {
    LOCAL_POOL.with(|p| p.borrow().clone())
}

/// A borrowed task pointer smuggled across threads. Soundness: the
/// submitting call blocks until `pending == 0`, so the referent outlives
/// every use.
#[derive(Clone, Copy)]
struct RawTask(&'static (dyn Fn(usize) + Sync));

struct Job {
    task: RawTask,
    n_chunks: usize,
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Chunks not yet finished.
    pending: AtomicUsize,
    /// Completion latch.
    done: Mutex<bool>,
    done_cv: Condvar,
    panicked: AtomicBool,
    /// The submitting thread's open-span stack, replayed as phantom
    /// frames around chunks that run on pool workers so their spans
    /// parent under the submitting span in the rsd-obs call tree.
    /// Empty when telemetry is off.
    ctx: rsd_obs::SpanContext,
}

impl Job {
    fn claim(&self) -> Option<usize> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        (idx < self.n_chunks).then_some(idx)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_chunks
    }

    /// `apply_ctx` is true on worker threads only: the submitter's own
    /// stack already holds the real spans, so replaying the context
    /// there would double the path prefix.
    fn run_chunk(&self, idx: usize, apply_ctx: bool) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if apply_ctx && !self.ctx.is_empty() {
                rsd_obs::with_context(&self.ctx, || (self.task.0)(idx));
            } else {
                (self.task.0)(idx);
            }
        }));
        if outcome.is_err() {
            self.panicked.store(true, Ordering::Release);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// Mutex lock that shrugs off poisoning — a panicked chunk must not take
/// the pool down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A fixed-size pool of named worker threads.
pub(crate) struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (clamped to `1..=MAX_THREADS`).
    /// A size of 1 spawns no workers at all: every run is inline.
    pub(crate) fn new(threads: usize) -> ThreadPool {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = if threads > 1 {
            (0..threads)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("rsd-par-{i}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn rsd-par worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// Number of threads that can execute chunks (workers; the submitting
    /// thread also participates).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(chunk)` for every chunk index in `0..n_chunks`, blocking
    /// until all have completed. Runs inline when the pool is size 1.
    /// Panics (after completion) if any chunk panicked.
    pub(crate) fn run(&self, n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        if self.threads <= 1 || n_chunks == 1 {
            for idx in 0..n_chunks {
                f(idx);
            }
            return;
        }
        // Erase the borrow; see the module docs for why this is sound.
        let task = RawTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        let job = Arc::new(Job {
            task,
            n_chunks,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_chunks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
            ctx: rsd_obs::current_context(),
        });
        lock(&self.shared.queue).push_back(Arc::clone(&job));
        self.shared.work_cv.notify_all();
        rsd_obs::counter_add("par.tasks", n_chunks as u64);

        // The submitter works too (its own stack already carries the
        // span context, so no replay here).
        while let Some(idx) = job.claim() {
            job.run_chunk(idx, false);
        }
        let mut done = lock(&job.done);
        while !*done {
            done = self
                .done_wait(done, &job)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(done);
        if job.panicked.load(Ordering::Acquire) {
            panic!("rsd-par: a parallel chunk panicked");
        }
    }

    #[allow(clippy::type_complexity)]
    fn done_wait<'a>(
        &self,
        guard: MutexGuard<'a, bool>,
        job: &'a Job,
    ) -> Result<MutexGuard<'a, bool>, std::sync::PoisonError<MutexGuard<'a, bool>>> {
        job.done_cv.wait(guard)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker that saw it clear
        // is then already parked on `work_cv` and gets the notify below,
        // instead of missing it and sleeping forever.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                while q.front().is_some_and(|j| j.exhausted()) {
                    q.pop_front();
                }
                if let Some(j) = q.front() {
                    break Arc::clone(j);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared
                    .work_cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        while let Some(idx) = job.claim() {
            job.run_chunk(idx, true);
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, created on first use. Size comes from
/// `RSD_THREADS` (see [`rsd_obs::knob::threads`]); a `par.pool_size`
/// gauge is emitted at creation.
pub(crate) fn global_pool() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| {
        let threads = rsd_obs::knob::threads();
        let pool = ThreadPool::new(threads);
        rsd_obs::gauge("par.pool_size", threads as f64);
        pool
    })
}
