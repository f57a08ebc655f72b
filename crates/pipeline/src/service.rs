//! Long-running service primitives: what `rsd-serve` runs on.
//!
//! * [`bounded`] — a blocking bounded MPMC channel. Senders block when
//!   the queue is full: **backpressure is explicit and lossless**, in
//!   contrast to the batch executor's bounded-wave barrier (which bounds
//!   residency by scheduling, not by queueing). Closing either end wakes
//!   all waiters; receivers drain whatever was queued before reporting
//!   end-of-stream, which is how a service drains.
//! * [`Traced`] — an item riding the channels with its request-scoped
//!   trace context.
//!
//! Determinism contract: a channel preserves submission order, and a
//! consumer that processes items in arrival order therefore produces
//! output independent of timing. Batching consumers stay deterministic
//! as long as per-item results do not depend on batch boundaries.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// An item travelling through the serving channels together with its
/// request-scoped trace context. The wrapper is what makes per-stage
/// latency attribution possible: the [`rsd_obs::ReqCtx`] is minted at
/// ingress and rides the bounded channels with the payload, so each
/// hop can call [`rsd_obs::ReqCtx::advance`] and charge the elapsed
/// wall-clock to the stage that actually spent it.
#[derive(Debug)]
pub struct Traced<T> {
    /// Per-request trace context (timing breakdown, backend/level tags).
    pub ctx: rsd_obs::ReqCtx,
    /// The payload being served.
    pub item: T,
}

/// Error returned by [`Sender::send`] when the channel is closed (the
/// item is handed back so callers can decide what to do with it).
#[derive(Debug)]
pub struct SendError<T>(pub T);

struct ChanState<T> {
    queue: VecDeque<T>,
    closed: bool,
    senders: usize,
    receivers: usize,
    blocked_sends: u64,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    label: &'static str,
}

/// Sending half of a [`bounded`] channel. Cloneable; when the last
/// sender drops, receivers see end-of-stream after draining.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half of a [`bounded`] channel. Cloneable; when the last
/// receiver drops, sends fail.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Create a blocking bounded channel of capacity `cap` (min 1). `label`
/// names the channel for telemetry; consumers publish [`Receiver::depth`]
/// under it at whatever cadence suits them (per-op emission would flood
/// the NDJSON sink and the registry lock at serving rates).
pub fn bounded<T>(cap: usize, label: &'static str) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            queue: VecDeque::new(),
            closed: false,
            senders: 1,
            receivers: 1,
            blocked_sends: 0,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        cap: cap.max(1),
        label,
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Send one item, blocking while the channel is full (backpressure).
    /// Fails when the channel is closed or every receiver is gone.
    pub fn send(&self, item: T) -> std::result::Result<(), SendError<T>> {
        let chan = &*self.chan;
        let mut state = chan.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed || state.receivers == 0 {
                return Err(SendError(item));
            }
            if state.queue.len() < chan.cap {
                state.queue.push_back(item);
                drop(state);
                chan.not_empty.notify_one();
                return Ok(());
            }
            state.blocked_sends += 1;
            state = chan.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the channel: subsequent sends fail, receivers drain what is
    /// queued and then see end-of-stream.
    pub fn close(&self) {
        close_chan(&self.chan);
    }

    /// How often a send found the queue full and had to wait — the
    /// backpressure counter.
    pub fn blocked_sends(&self) -> u64 {
        self.chan
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .blocked_sends
    }
}

impl<T> Receiver<T> {
    /// Receive one item, blocking while the channel is empty. Returns
    /// `None` once the channel is closed (or all senders are gone) *and*
    /// the queue is drained.
    pub fn recv(&self) -> Option<T> {
        let chan = &*self.chan;
        let mut state = chan.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.queue.pop_front() {
                drop(state);
                chan.not_full.notify_one();
                return Some(item);
            }
            if state.closed || state.senders == 0 {
                return None;
            }
            state = chan
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking receive: `None` when the queue is currently empty
    /// (which does not imply end-of-stream).
    pub fn try_recv(&self) -> Option<T> {
        let chan = &*self.chan;
        let mut state = chan.state.lock().unwrap_or_else(|e| e.into_inner());
        let item = state.queue.pop_front();
        if item.is_some() {
            drop(state);
            chan.not_full.notify_one();
        }
        item
    }

    /// Current queue depth (for telemetry gauges).
    pub fn depth(&self) -> usize {
        self.chan
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// The channel's telemetry label.
    pub fn label(&self) -> &'static str {
        self.chan.label
    }

    /// Close the channel from the receiving side (senders start failing
    /// immediately; any queued items are still receivable).
    pub fn close(&self) {
        close_chan(&self.chan);
    }
}

fn close_chan<T>(chan: &Chan<T>) {
    let mut state = chan.state.lock().unwrap_or_else(|e| e.into_inner());
    state.closed = true;
    drop(state);
    chan.not_full.notify_all();
    chan.not_empty.notify_all();
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        let mut state = self.chan.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders += 1;
        drop(state);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        let mut state = self.chan.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receivers += 1;
        drop(state);
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.chan.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.chan.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receivers -= 1;
        let last = state.receivers == 0;
        drop(state);
        if last {
            self.chan.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn channel_preserves_order_and_drains_after_close() {
        let (tx, rx) = bounded::<u32>(4, "test.chan.depth");
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        tx.close();
        assert!(tx.send(99).is_err(), "send after close must fail");
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn full_channel_blocks_sender_until_receiver_drains() {
        let (tx, rx) = bounded::<u32>(2, "test.chan2.depth");
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let sender = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the receiver pops
            tx.blocked_sends()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        let blocked = sender.join().unwrap();
        assert!(blocked >= 1, "the full-queue send must have waited");
    }

    #[test]
    fn dropping_all_senders_ends_the_stream() {
        let (tx, rx) = bounded::<u32>(8, "test.chan3.depth");
        let tx2 = tx.clone();
        tx.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Some(7));
        assert!(rx.recv().is_none());
    }

    #[test]
    fn dropping_all_receivers_fails_sends() {
        let (tx, rx) = bounded::<u32>(1, "test.chan4.depth");
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let (tx, rx) = bounded::<u32>(2, "test.chan5.depth");
        assert_eq!(rx.try_recv(), None);
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv(), Some(5));
        assert_eq!(rx.try_recv(), None);
    }
}
