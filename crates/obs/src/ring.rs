//! Bounded lock-free MPSC event ring.
//!
//! Hot paths (span drops, counters, stage progress) publish compact
//! [`RingEvent`]s here instead of serializing NDJSON inline; the
//! time-series driver ([`crate::timeseries`]) drains the ring on its
//! tick. Publishing is a handful of relaxed/acq-rel atomics — O(ns) —
//! and never blocks: when the ring is full the event is **dropped and
//! counted** ([`EventRing::dropped`]), because telemetry must shed load
//! rather than apply backpressure to the pipeline.
//!
//! The layout is the classic sequence-numbered slot array (Vyukov's
//! bounded queue, used MPSC here): each slot carries a sequence atomic
//! that encodes whether it is free for the producer generation or ready
//! for the consumer. Producers claim a ticket with a CAS on `head`;
//! the (single) consumer walks `tail`. The global ring holds
//! [`DEFAULT_CAPACITY`] slots.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default slot count (power of two).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// What a ring event describes. Kept intentionally small: every variant
/// maps onto the same fixed payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `a` = duration ns, `b` = self-time ns.
    SpanEnd,
    /// A counter increment: `a` = delta.
    Counter,
    /// A gauge update: `a` = `f64::to_bits` of the value.
    Gauge,
    /// Pipeline-stage progress: `a` = items, `b` = bytes.
    StageProgress,
    /// A stage announced itself to the stall watchdog.
    StageRegister,
    /// A stage finished (leaves the stall watchdog's care).
    StageFinish,
}

/// One fixed-size telemetry event. No heap, `Copy`, label is a
/// `&'static str` so publishing allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct RingEvent {
    /// Nanoseconds since the telemetry epoch at publish time (for spans:
    /// the span *end*).
    pub t_ns: u64,
    /// Primary payload word (see [`EventKind`]).
    pub a: u64,
    /// Secondary payload word.
    pub b: u64,
    /// Metric label.
    pub label: &'static str,
    /// Publishing thread's ordinal ([`crate::thread_ord`]).
    pub thread: u32,
    pub kind: EventKind,
}

struct Slot {
    seq: AtomicU64,
    event: UnsafeCell<MaybeUninit<RingEvent>>,
}

/// The ring buffer. Producers are lock-free; draining assumes a single
/// consumer at a time (the time-series driver; tests serialize).
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    tail: AtomicU64,
    dropped: AtomicU64,
    published: AtomicU64,
}

// SAFETY: slot contents are published/consumed under the per-slot `seq`
// protocol (release store after write, acquire load before read), so no
// slot is read while being written.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// Ring with `capacity` slots, rounded up to a power of two (min 8).
    pub fn with_capacity(capacity: usize) -> EventRing {
        let cap = capacity.max(8).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                event: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing {
            slots,
            mask: cap - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publish one event. Returns `false` (and counts a drop) when the
    /// ring is full. Lock-free: a failed CAS retries with the fresh
    /// head; a full ring bails immediately.
    pub fn push(&self, event: RingEvent) -> bool {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(head & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == head {
                // Slot free for this generation: claim the ticket.
                match self.head.compare_exchange_weak(
                    head,
                    head + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the ticket claim gives this producer
                        // exclusive write access until the release store.
                        unsafe { (*slot.event.get()).write(event) };
                        slot.seq.store(head + 1, Ordering::Release);
                        self.published.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(actual) => head = actual,
                }
            } else if seq < head {
                // Consumer hasn't freed this slot: ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                // Another producer claimed this ticket; advance.
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Drain every ready event into `f`, in publish order. Single
    /// consumer only. Returns the number of events drained.
    pub fn drain(&self, mut f: impl FnMut(RingEvent)) -> usize {
        let mut tail = self.tail.load(Ordering::Relaxed);
        let mut n = 0;
        loop {
            let slot = &self.slots[(tail & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != tail + 1 {
                break; // next slot not yet published
            }
            // SAFETY: seq == tail+1 means the producer finished writing;
            // we are the only consumer.
            let event = unsafe { (*slot.event.get()).assume_init() };
            // Free the slot for the next generation of producers.
            slot.seq.store(tail + self.mask + 1, Ordering::Release);
            tail += 1;
            n += 1;
            f(event);
        }
        self.tail.store(tail, Ordering::Relaxed);
        n
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events successfully published.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
}

/// Whether the continuous-telemetry layer is armed (a time-series driver
/// or trace exporter is consuming). Publishers check this first; when
/// off, publishing is a single relaxed load and branch.
static ARMED: AtomicBool = AtomicBool::new(false);

static RING: OnceLock<EventRing> = OnceLock::new();

/// The global ring, created on first use with [`DEFAULT_CAPACITY`] slots.
pub fn global() -> &'static EventRing {
    RING.get_or_init(|| EventRing::with_capacity(DEFAULT_CAPACITY))
}

/// Arm or disarm continuous publishing. Armed by
/// [`crate::timeseries::start`]; disarmed when the driver stops.
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Release);
}

/// Whether publishers should push into the ring.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Publish into the global ring if armed. The disarmed path costs one
/// atomic load.
#[inline]
pub fn publish(kind: EventKind, label: &'static str, a: u64, b: u64) {
    if !armed() {
        return;
    }
    let event = RingEvent {
        t_ns: crate::epoch_ns(),
        a,
        b,
        label,
        thread: crate::thread_ord() as u32,
        kind,
    };
    global().push(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(a: u64) -> RingEvent {
        RingEvent {
            t_ns: a,
            a,
            b: 0,
            label: "test",
            thread: 0,
            kind: EventKind::Counter,
        }
    }

    #[test]
    fn fifo_order_and_capacity_rounding() {
        let ring = EventRing::with_capacity(10); // rounds to 16
        assert_eq!(ring.capacity(), 16);
        for i in 0..5 {
            assert!(ring.push(ev(i)));
        }
        let mut got = Vec::new();
        ring.drain(|e| got.push(e.a));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_and_counts_without_blocking() {
        let ring = EventRing::with_capacity(8);
        for i in 0..8 {
            assert!(ring.push(ev(i)));
        }
        assert!(!ring.push(ev(99)));
        assert!(!ring.push(ev(100)));
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.published(), 8);
        // Draining frees slots for another full generation.
        let mut got = Vec::new();
        ring.drain(|e| got.push(e.a));
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert!(ring.push(ev(8)));
        let mut next = Vec::new();
        ring.drain(|e| next.push(e.a));
        assert_eq!(next, vec![8]);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let ring = std::sync::Arc::new(EventRing::with_capacity(1 << 14));
        let threads = 8u64;
        let per_thread = 1_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..per_thread {
                        assert!(ring.push(ev(t * per_thread + i)));
                    }
                });
            }
        });
        let mut got = Vec::new();
        ring.drain(|e| got.push(e.a));
        assert_eq!(got.len() as u64, threads * per_thread);
        assert_eq!(ring.dropped(), 0);
        // Every published value arrives exactly once.
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len() as u64, threads * per_thread);
    }

    #[test]
    fn interleaved_produce_drain_sustains_beyond_capacity() {
        let ring = EventRing::with_capacity(8);
        let mut total = 0u64;
        for round in 0..100u64 {
            for i in 0..6 {
                assert!(ring.push(ev(round * 6 + i)));
            }
            ring.drain(|_| total += 1);
        }
        assert_eq!(total, 600);
        assert_eq!(ring.dropped(), 0);
    }
}
