//! Exemplar capture: bounded reservoirs of the slowest full request
//! breakdowns.
//!
//! Aggregate histograms say *that* p99 moved; an exemplar says *which*
//! request and *which stage*. Every [`crate::reqctx::ReqCtx::finish`]
//! offers its breakdown here; a [`Reservoir`] keeps exactly the K
//! slowest by `(total_ns, trace_id)` — the trace-id tie-break makes
//! retention deterministic under adversarial arrival orders (pinned by
//! the unit tests).
//!
//! Two global reservoirs run side by side: a *window* reservoir drained
//! into each `.series.ndjson` tick by the time-series driver, and a
//! *run* reservoir surviving to the final `ServeReport`. Each keeps
//! `CAPACITY` (4) exemplars.

use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::sync::OnceLock;

use crate::reqctx::Stage;

/// Reservoir capacity: the K slowest kept per window and per run.
const CAPACITY: usize = 4;

/// One captured request: identity, tags, and the per-stage breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id from the originating [`crate::reqctx::ReqCtx`].
    pub trace_id: u64,
    /// Scoring-backend tag.
    pub backend: &'static str,
    /// Risk-level tag.
    pub level: &'static str,
    /// End-to-end latency (equals the sum of `stages`).
    pub total_ns: u64,
    /// Per-stage breakdown, indexed by [`Stage::index`].
    pub stages: [u64; Stage::COUNT],
}

impl Exemplar {
    /// The stage this request spent the most time in (ties resolve to
    /// the earliest pipeline stage).
    pub fn slowest_stage(&self) -> (Stage, u64) {
        let mut best = (Stage::Queue, self.stages[0]);
        for stage in Stage::ALL {
            let ns = self.stages[stage.index()];
            if ns > best.1 {
                best = (stage, ns);
            }
        }
        best
    }

    /// JSON form used in series ticks and run reports: tags, total, the
    /// named slowest stage, and all stage durations in milliseconds.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("trace", Value::Int(self.trace_id as i128));
        m.insert("backend", Value::String(self.backend.to_string()));
        m.insert("level", Value::String(self.level.to_string()));
        m.insert("total_ms", Value::Float(self.total_ns as f64 / 1e6));
        m.insert(
            "slowest_stage",
            Value::String(self.slowest_stage().0.name().to_string()),
        );
        let mut stages = Map::new();
        for stage in Stage::ALL {
            stages.insert(
                stage.name(),
                Value::Float(self.stages[stage.index()] as f64 / 1e6),
            );
        }
        m.insert("stages", Value::Object(stages));
        Value::Object(m)
    }

    /// Deterministic retention order: slower first, trace id breaking
    /// exact-latency ties.
    fn rank(&self) -> (u64, u64) {
        (self.total_ns, self.trace_id)
    }
}

/// JSON array of exemplars (slowest first).
pub fn to_values(exemplars: &[Exemplar]) -> Value {
    Value::Array(exemplars.iter().map(Exemplar::to_value).collect())
}

/// A bounded reservoir keeping exactly the K slowest offers.
#[derive(Debug)]
pub struct Reservoir {
    k: usize,
    items: Vec<Exemplar>,
}

impl Reservoir {
    /// Reservoir keeping the `k` slowest offers (`k == 0` keeps none).
    pub fn new(k: usize) -> Reservoir {
        Reservoir {
            k,
            items: Vec::with_capacity(k.min(64)),
        }
    }

    /// Offer one exemplar; it displaces the fastest retained entry iff
    /// it ranks above it. O(K) with the small K this is built for.
    pub fn offer(&mut self, ex: Exemplar) {
        if self.k == 0 {
            return;
        }
        if self.items.len() < self.k {
            self.items.push(ex);
            return;
        }
        let (idx, fastest) = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.rank())
            .expect("non-empty reservoir");
        if ex.rank() > fastest.rank() {
            self.items[idx] = ex;
        }
    }

    /// Number of retained exemplars.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Retained exemplars, slowest first.
    pub fn sorted_desc(&self) -> Vec<Exemplar> {
        let mut out = self.items.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.rank()));
        out
    }

    /// Drain the reservoir, returning the retained exemplars slowest
    /// first and leaving it empty for the next window.
    fn drain_desc(&mut self) -> Vec<Exemplar> {
        let mut out = std::mem::take(&mut self.items);
        out.sort_by_key(|e| std::cmp::Reverse(e.rank()));
        out
    }
}

struct Globals {
    window: Reservoir,
    run: Reservoir,
}

fn globals() -> &'static Mutex<Globals> {
    static GLOBALS: OnceLock<Mutex<Globals>> = OnceLock::new();
    GLOBALS.get_or_init(|| {
        Mutex::new(Globals {
            window: Reservoir::new(CAPACITY),
            run: Reservoir::new(CAPACITY),
        })
    })
}

/// Offer an exemplar to both global reservoirs. Callers gate on
/// [`crate::ring::armed`] (as [`crate::reqctx::ReqCtx::finish`] does),
/// so disarmed runs never touch the lock.
pub fn offer(ex: Exemplar) {
    let mut g = globals().lock();
    g.window.offer(ex.clone());
    g.run.offer(ex);
}

/// Drain the per-window reservoir (slowest first) — called by the
/// time-series driver once per tick.
pub fn take_window() -> Vec<Exemplar> {
    globals().lock().window.drain_desc()
}

/// Snapshot of the run-wide reservoir (slowest first), without
/// draining — exported into `ServeReport`.
pub fn run_snapshot() -> Vec<Exemplar> {
    globals().lock().run.sorted_desc()
}

/// Clear both global reservoirs (test isolation, post-fit resets).
pub fn reset() {
    let mut g = globals().lock();
    g.window = Reservoir::new(g.window.k);
    g.run = Reservoir::new(g.run.k);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(trace_id: u64, total_ns: u64) -> Exemplar {
        // Spread the total over two stages so slowest_stage is exercised.
        let mut stages = [0u64; Stage::COUNT];
        stages[Stage::Queue.index()] = total_ns / 3;
        stages[Stage::Score.index()] = total_ns - total_ns / 3;
        Exemplar {
            trace_id,
            backend: "gbdt",
            level: "Ideation",
            total_ns,
            stages,
        }
    }

    #[test]
    fn keeps_exactly_the_k_slowest_under_adversarial_orders() {
        let totals: Vec<u64> = (0..40u64).map(|i| (i * 7919) % 1000 + 1).collect();
        // The K slowest by (total, trace) regardless of arrival order.
        let mut want: Vec<(u64, u64)> = totals
            .iter()
            .enumerate()
            .map(|(t, &ns)| (ns, t as u64))
            .collect();
        want.sort_by_key(|&pair| std::cmp::Reverse(pair));
        want.truncate(5);

        // Ascending, descending, and interleaved arrival orders must
        // all retain the identical set, in the identical order.
        let mut orders: Vec<Vec<usize>> = vec![
            (0..totals.len()).collect(),
            (0..totals.len()).rev().collect(),
        ];
        let mut interleaved = Vec::new();
        let (mut lo, mut hi) = (0usize, totals.len() - 1);
        while lo <= hi {
            interleaved.push(lo);
            if lo != hi {
                interleaved.push(hi);
            }
            lo += 1;
            hi = hi.saturating_sub(1);
        }
        orders.push(interleaved);
        // Sorted-by-total arrival: every later offer displaces — the
        // worst case for an eviction bug.
        let mut by_total: Vec<usize> = (0..totals.len()).collect();
        by_total.sort_by_key(|&i| totals[i]);
        orders.push(by_total);

        for order in orders {
            let mut r = Reservoir::new(5);
            for &i in &order {
                r.offer(ex(i as u64, totals[i]));
            }
            assert_eq!(r.len(), 5);
            let got: Vec<(u64, u64)> = r
                .sorted_desc()
                .iter()
                .map(|e| (e.total_ns, e.trace_id))
                .collect();
            assert_eq!(got, want, "arrival order {order:?}");
        }
    }

    #[test]
    fn ties_resolve_by_trace_id() {
        let mut r = Reservoir::new(2);
        for t in 0..6u64 {
            r.offer(ex(t, 100));
        }
        // All totals equal: the highest trace ids win deterministically.
        let got: Vec<u64> = r.sorted_desc().iter().map(|e| e.trace_id).collect();
        assert_eq!(got, vec![5, 4]);
    }

    #[test]
    fn zero_capacity_keeps_nothing_and_drain_empties() {
        let mut z = Reservoir::new(0);
        z.offer(ex(1, 10));
        assert!(z.is_empty());

        let mut r = Reservoir::new(3);
        r.offer(ex(1, 10));
        r.offer(ex(2, 30));
        let drained = r.drain_desc();
        assert_eq!(
            drained.iter().map(|e| e.trace_id).collect::<Vec<_>>(),
            vec![2, 1]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn exemplar_json_names_the_slowest_stage() {
        let e = ex(7, 900);
        assert_eq!(e.slowest_stage().0, Stage::Score);
        let v = e.to_value();
        assert_eq!(v["slowest_stage"].as_str(), Some("score"));
        assert_eq!(v["trace"].as_i64(), Some(7));
        assert!(v["stages"]["score"].as_f64().unwrap() > 0.0);
    }
}
