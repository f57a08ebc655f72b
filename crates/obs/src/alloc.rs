//! Opt-in allocation accounting.
//!
//! [`CountingAlloc`] wraps the system allocator and maintains process-wide
//! atomic counters: bytes allocated, bytes freed, live bytes, the
//! high-water mark of live bytes, and the allocation count. A binary opts
//! in by declaring it as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rsd_obs::alloc::CountingAlloc = rsd_obs::alloc::CountingAlloc::new();
//! ```
//!
//! The wrapper stays **dormant** until telemetry initializes
//! ([`set_counting`], called by `rsd_obs::init`): a dormant allocator
//! costs one relaxed load and a predicted branch per allocation, so the
//! default `RSD_OBS`-off run keeps its wall-clock. Once counting is on,
//! every update is a relaxed atomic op — a few nanoseconds per
//! allocation. Binaries that don't opt in see all counters pinned at
//! zero ([`active`] returns `false`), and per-span allocation deltas
//! degrade to zero rather than lying.
//!
//! The monotonic [`allocated_bytes`] counter is what spans sample to
//! attribute allocation to pipeline stages; [`peak_live_bytes`] (resettable
//! via [`reset_peak`]) is what memory-regression gates compare.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static ACTIVE: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Arm or disarm the counters. Called by `rsd_obs::init` when telemetry
/// comes up, so a [`CountingAlloc`] installed in a binary run with
/// telemetry off never pays for the bookkeeping. Counters cover the
/// process from the moment counting is armed.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

#[inline]
fn on_alloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    ACTIVE.store(true, Ordering::Relaxed);
    ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live.max(0) as u64, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    FREED.fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A counting wrapper around [`System`], suitable as a
/// `#[global_allocator]`.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for `static` declarations.
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> CountingAlloc {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every operation to `System` unchanged; the counters
// are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Accounted as free(old) + alloc(new) so `allocated_bytes`
            // stays monotone and live reflects the delta.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Whether a [`CountingAlloc`] is installed and has observed at least one
/// allocation in this process.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Total bytes ever allocated (monotone; spans diff this counter).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Total bytes ever freed.
fn freed_bytes() -> u64 {
    FREED.load(Ordering::Relaxed)
}

/// Bytes currently live (allocated minus freed).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// High-water mark of live bytes since process start (or the last
/// [`reset_peak`]).
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Number of allocations observed.
fn alloc_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Reset the peak to the current live size, so a subsequent phase's
/// high-water mark can be measured in isolation.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Publish the allocator counters as registry gauges
/// (`alloc.allocated_bytes`, `alloc.live_bytes`, `alloc.peak_live_bytes`,
/// `alloc.allocations`). No-op when telemetry is disabled or no counting
/// allocator is installed.
pub fn publish_gauges() {
    if !crate::enabled() || !active() {
        return;
    }
    let reg = crate::registry();
    reg.gauge_set("alloc.allocated_bytes", allocated_bytes() as f64);
    reg.gauge_set("alloc.freed_bytes", freed_bytes() as f64);
    reg.gauge_set("alloc.live_bytes", live_bytes() as f64);
    reg.gauge_set("alloc.peak_live_bytes", peak_live_bytes() as f64);
    reg.gauge_set("alloc.allocations", alloc_count() as f64);
}

/// The counters as a JSON object, or `Null` when inactive.
pub fn snapshot() -> crate::Value {
    if !active() {
        return crate::Value::Null;
    }
    let mut m = crate::Map::new();
    m.insert(
        "allocated_bytes",
        crate::Value::Int(allocated_bytes().into()),
    );
    m.insert("freed_bytes", crate::Value::Int(freed_bytes().into()));
    m.insert("live_bytes", crate::Value::Int(live_bytes().into()));
    m.insert(
        "peak_live_bytes",
        crate::Value::Int(peak_live_bytes().into()),
    );
    m.insert("allocations", crate::Value::Int(alloc_count().into()));
    crate::Value::Object(m)
}
