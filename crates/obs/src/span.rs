//! Hierarchical RAII span timers.
//!
//! Each thread keeps a stack of open frames. `Span::enter("stage")`
//! pushes a frame; dropping the guard pops it and records:
//!
//! * a **tree** entry keyed by the full label stack (`a;b;c`, the
//!   collapsed-stack convention), with *total* time, *self* time (total
//!   minus the time spent inside child spans), and the allocation delta
//!   observed across the span (see [`crate::alloc`]). The per-label
//!   aggregate ([`crate::Registry::span_stat`]) is a fold over these
//!   paths; a span's depth is its path's `;` count;
//! * an NDJSON `span` record carrying `ms`, `self_ms`, `depth`,
//!   `parent`, and `alloc_bytes` when a sink is active.
//!
//! The stack is panic-safe: guards drop during unwinding in LIFO order,
//! and the pop path defensively truncates any deeper frames a leaked
//! guard left behind, so a panicking stage cannot corrupt depth or
//! parent accounting for subsequent spans on the thread.
//!
//! Cross-thread parenting: a pool worker executes closures submitted
//! from a thread with its own open spans. [`current_context`] captures
//! that thread's label stack cheaply and [`with_context`] replays it as
//! *phantom frames* (path prefix only, no timing) around the worker's
//! execution, so worker spans land under the submitting span in the
//! tree. `rsd-par` does this automatically at task boundaries.

use std::cell::RefCell;
use std::time::Instant;

/// One open span (or phantom context frame) on a thread's stack.
struct Frame {
    label: &'static str,
    /// Nanoseconds accumulated by completed child spans.
    child_ns: u64,
    /// Bytes allocated across completed child spans.
    child_alloc: u64,
}

thread_local! {
    /// This thread's stack of open frames, innermost last.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// A running span. Dropping it records the measurement. When telemetry
/// is disabled this is an inert zero-field guard: no clock read, no
/// allocation, no lock.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span {
    state: Option<Running>,
}

struct Running {
    started: Instant,
    /// Index of this span's frame in the thread-local stack.
    index: usize,
    /// Monotonic allocation counter at entry (0 when no counting
    /// allocator is installed).
    alloc_start: u64,
}

impl Span {
    /// Start a span if telemetry is enabled, otherwise return a no-op
    /// guard. The disabled path is one atomic load and a branch.
    pub fn enter(label: &'static str) -> Span {
        if !crate::enabled() {
            return Span { state: None };
        }
        let index = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(Frame {
                label,
                child_ns: 0,
                child_alloc: 0,
            });
            stack.len() - 1
        });
        Span {
            state: Some(Running {
                started: Instant::now(),
                index,
                alloc_start: crate::alloc::allocated_bytes(),
            }),
        }
    }

    /// Nesting depth of this span (`None` for a disabled no-op guard).
    /// Phantom context frames count toward depth, so a worker span's
    /// depth matches its position in the cross-thread tree.
    pub fn depth(&self) -> Option<u32> {
        self.state.as_ref().map(|r| r.index as u32)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(running) = self.state.take() else {
            return;
        };
        let elapsed = running.started.elapsed();
        let alloc_total = crate::alloc::allocated_bytes().saturating_sub(running.alloc_start);
        let popped = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.len() <= running.index {
                // A context guard already truncated past us (a leaked
                // guard outlived its scope); nothing left to record.
                return None;
            }
            // LIFO discipline means this frame is the innermost one, but
            // a `mem::forget`-leaked inner guard would leave deeper
            // frames — drop them so accounting stays sound.
            let frame = stack.swap_remove(running.index);
            stack.truncate(running.index);
            let path = {
                let mut p = String::with_capacity(16 * (running.index + 1));
                for f in stack.iter() {
                    p.push_str(f.label);
                    p.push(';');
                }
                p.push_str(frame.label);
                p
            };
            let parent = stack.last_mut().map(|parent| {
                parent.child_ns += elapsed.as_nanos() as u64;
                parent.child_alloc += alloc_total;
                parent.label
            });
            Some((frame, path, parent))
        });
        let Some((frame, path, parent)) = popped else {
            return;
        };
        let self_ns = (elapsed.as_nanos() as u64).saturating_sub(frame.child_ns);
        let alloc_self = alloc_total.saturating_sub(frame.child_alloc);
        crate::finish_span(crate::SpanRecord {
            label: frame.label,
            parent,
            path,
            elapsed,
            self_ns,
            depth: running.index as u32,
            alloc_total,
            alloc_self,
        });
    }
}

/// A snapshot of a thread's open-span labels, cheap to clone and send to
/// another thread. Empty when telemetry is disabled.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    labels: Vec<&'static str>,
}

impl SpanContext {
    /// Whether there is anything to propagate.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Capture the calling thread's current span stack as a [`SpanContext`].
/// Returns an empty context (no allocation) when telemetry is off.
pub fn current_context() -> SpanContext {
    if !crate::enabled() {
        return SpanContext::default();
    }
    SpanContext {
        labels: STACK.with(|s| s.borrow().iter().map(|f| f.label).collect()),
    }
}

/// Run `f` with `ctx`'s labels installed as phantom parent frames, so
/// spans opened inside `f` parent under the capturing thread's stack.
/// Phantom frames contribute path and depth but record no timing of
/// their own. The guard restores the stack even if `f` panics.
pub fn with_context<T>(ctx: &SpanContext, f: impl FnOnce() -> T) -> T {
    if ctx.is_empty() || !crate::enabled() {
        return f();
    }
    let restore = STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let restore = stack.len();
        for label in &ctx.labels {
            stack.push(Frame {
                label,
                child_ns: 0,
                child_alloc: 0,
            });
        }
        restore
    });
    struct Guard {
        restore: usize,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            STACK.with(|s| s.borrow_mut().truncate(self.restore));
        }
    }
    let _guard = Guard { restore };
    f()
}
