//! Request-scoped tracing contexts for the serving tier.
//!
//! A [`ReqCtx`] is minted at `RiskService` ingress and rides the request
//! through the bounded channels, window-store apply, micro-batch
//! formation, scoring, and result emission. Each hop attributes
//! wall-clock to one of five [`Stage`] slots; at emission
//! [`ReqCtx::finish`] publishes the breakdown into the tag-aware
//! histogram families (`crate::hist::observe_tagged`, sharded per
//! backend × risk level) and offers the full breakdown to the exemplar
//! reservoir ([`crate::exemplar`]) so the slowest requests survive with
//! their per-stage attribution intact instead of vanishing into
//! aggregate quantiles.
//!
//! Construction invariant: the serving tier closes each context with
//! [`ReqCtx::close_residual`], which books the gap between wall-clock
//! end-to-end time and the instrumented stages into [`Stage::Drain`].
//! The five slots therefore always reassemble the end-to-end latency
//! exactly (`total_ns == sum(stages)` — pinned by the proptests below),
//! and any histogram-level disagreement is bounded by the HDR bucket
//! error alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::TagKey;

/// Histogram family label for end-to-end request latency. The untagged
/// `serve.request` family keeps recording alongside the tagged shards,
/// so pre-existing dashboards and baselines stay comparable.
pub(crate) const REQUEST_FAMILY: &str = "serve.request";

/// Level tag for a request whose risk level is not known yet (a context
/// finished before scoring — e.g. a drain-path drop).
pub(crate) const LEVEL_PENDING: &str = "unscored";

/// The pipeline hops a request's latency is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Ingress-channel wait: submit until the worker pops the envelope.
    Queue,
    /// Micro-batch formation: pop until the batch dispatches.
    BatchWait,
    /// `UserWindowStore` apply: sliding-window update for this post.
    Window,
    /// Model scoring (per-request share of the micro-batch).
    Score,
    /// Residual emit path: result stitching and channel hand-off.
    Drain,
}

impl Stage {
    /// Number of stages (the breakdown array length).
    pub const COUNT: usize = 5;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Queue,
        Stage::BatchWait,
        Stage::Window,
        Stage::Score,
        Stage::Drain,
    ];

    /// Position of this stage in breakdown arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::BatchWait => 1,
            Stage::Window => 2,
            Stage::Score => 3,
            Stage::Drain => 4,
        }
    }

    /// Short name used in exemplar JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::BatchWait => "batch_wait",
            Stage::Window => "window",
            Stage::Score => "score",
            Stage::Drain => "drain",
        }
    }

    /// Tagged histogram family this stage records into.
    pub fn family(self) -> &'static str {
        match self {
            Stage::Queue => "serve.stage.queue",
            Stage::BatchWait => "serve.stage.batch_wait",
            Stage::Window => "serve.stage.window",
            Stage::Score => "serve.stage.score",
            Stage::Drain => "serve.stage.drain",
        }
    }
}

/// Process-wide trace-id source. Monotonic within a run; ids are for
/// correlating exemplars with logs, not for cross-run identity.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Request-scoped trace context: identity, tags, and the per-stage
/// latency breakdown accrued as the request moves through the service.
#[derive(Debug)]
pub struct ReqCtx {
    trace_id: u64,
    ingress: Instant,
    last_mark: Instant,
    backend: &'static str,
    level: &'static str,
    stages: [u64; Stage::COUNT],
}

impl ReqCtx {
    /// Mint a fresh context at ingress, tagged with the scoring backend
    /// (`ServeModel::name()`). The ingress instant doubles as the first
    /// attribution mark.
    pub fn mint(backend: &'static str) -> ReqCtx {
        let now = Instant::now();
        ReqCtx {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            ingress: now,
            last_mark: now,
            backend,
            level: LEVEL_PENDING,
            stages: [0; Stage::COUNT],
        }
    }

    /// This request's trace id (monotonic within the process).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The instant the context was minted (service ingress).
    pub fn ingress(&self) -> Instant {
        self.ingress
    }

    /// The scoring-backend tag.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The risk-level tag (`LEVEL_PENDING` until scored).
    pub fn level(&self) -> &'static str {
        self.level
    }

    /// Tag the context with the scored risk level (`RiskLevel::name()`).
    pub fn set_level(&mut self, level: &'static str) {
        self.level = level;
    }

    /// Attribute `ns` to `stage` directly (used when the duration was
    /// measured elsewhere, e.g. inside the window-store apply).
    pub fn record(&mut self, stage: Stage, ns: u64) {
        self.stages[stage.index()] += ns;
    }

    /// Attribute the wall-clock since the previous mark (or mint) to
    /// `stage`, then move the mark to now.
    pub fn advance(&mut self, stage: Stage) {
        let now = Instant::now();
        let ns = now.duration_since(self.last_mark).as_nanos() as u64;
        self.record(stage, ns);
        self.last_mark = now;
    }

    /// The full breakdown, indexed by [`Stage::index`].
    pub fn stages(&self) -> [u64; Stage::COUNT] {
        self.stages
    }

    /// Sum of all stage slots. After [`ReqCtx::close_residual`] this is
    /// exactly the end-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().sum()
    }

    /// Book the residual between `elapsed_ns` (measured end-to-end
    /// latency) and the instrumented stages into [`Stage::Drain`], so
    /// the breakdown sums to the end-to-end figure exactly. Saturates
    /// at zero if instrumentation over-counted.
    pub fn close_residual(&mut self, elapsed_ns: u64) {
        let booked = self.total_ns();
        self.record(Stage::Drain, elapsed_ns.saturating_sub(booked));
    }

    /// Publish the breakdown: one sample per tagged family (end-to-end
    /// plus each stage, all under `backend × level`) and an offer to the
    /// exemplar reservoir. No-op while the continuous layer is disarmed,
    /// mirroring [`crate::latency_ns`].
    pub fn finish(self) {
        if !crate::ring::armed() {
            return;
        }
        let total = self.total_ns();
        crate::hist::observe_tagged(
            TagKey {
                label: REQUEST_FAMILY,
                backend: self.backend,
                level: self.level,
            },
            total,
        );
        for stage in Stage::ALL {
            crate::hist::observe_tagged(
                TagKey {
                    label: stage.family(),
                    backend: self.backend,
                    level: self.level,
                },
                self.stages[stage.index()],
            );
        }
        crate::exemplar::offer(crate::exemplar::Exemplar {
            trace_id: self.trace_id,
            backend: self.backend,
            level: self.level,
            total_ns: total,
            stages: self.stages,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::tests::MAX_RELATIVE_ERROR;
    use crate::hist::HdrHist;
    use proptest::prelude::*;

    #[test]
    fn stage_order_and_indices_agree() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn trace_ids_are_unique_and_monotonic() {
        let a = ReqCtx::mint("gbdt");
        let b = ReqCtx::mint("gbdt");
        assert!(b.trace_id() > a.trace_id());
    }

    #[test]
    fn close_residual_books_the_gap_into_drain() {
        let mut ctx = ReqCtx::mint("gbdt");
        ctx.record(Stage::Queue, 100);
        ctx.record(Stage::Score, 250);
        ctx.close_residual(1_000);
        assert_eq!(ctx.stages()[Stage::Drain.index()], 650);
        assert_eq!(ctx.total_ns(), 1_000);
        // Over-counted instrumentation saturates instead of wrapping.
        let mut over = ReqCtx::mint("gbdt");
        over.record(Stage::Queue, 2_000);
        over.close_residual(1_000);
        assert_eq!(over.stages()[Stage::Drain.index()], 0);
    }

    proptest! {
        /// The tentpole invariant: per-stage breakdowns reassemble the
        /// end-to-end latency — exactly at the context level, and within
        /// the documented HDR bucket error once histogram-quantized.
        fn breakdown_sums_to_end_to_end_within_bucket_error(
            reqs in proptest::collection::vec(
                (
                    (0u64..200_000, 0u64..50_000),
                    (0u64..400_000, 0u64..2_000_000, 0u64..30_000),
                ),
                1..64,
            )
        ) {
            let mut total_hist = HdrHist::new();
            let mut stage_hists = [
                HdrHist::new(), HdrHist::new(), HdrHist::new(),
                HdrHist::new(), HdrHist::new(),
            ];
            for &((q, b), (w, s, d)) in &reqs {
                let mut ctx = ReqCtx::mint("gbdt");
                ctx.record(Stage::Queue, q);
                ctx.record(Stage::BatchWait, b);
                ctx.record(Stage::Window, w);
                ctx.record(Stage::Score, s);
                let end_to_end = q + b + w + s + d;
                ctx.close_residual(end_to_end);
                // Exact at the context level.
                prop_assert_eq!(ctx.stages()[Stage::Drain.index()], d);
                prop_assert_eq!(ctx.total_ns(), end_to_end);
                total_hist.record(end_to_end);
                for stage in Stage::ALL {
                    stage_hists[stage.index()].record(ctx.stages()[stage.index()]);
                }
            }
            // Histogram sums are exact (u128 accumulation), so the
            // stage decomposition survives aggregation losslessly.
            let stage_sum: u128 = stage_hists.iter().map(|h| h.sum()).sum();
            prop_assert_eq!(total_hist.sum(), stage_sum);
            // And the quantized tail is within the documented bound of
            // the true max end-to-end latency.
            let true_max = reqs
                .iter()
                .map(|&((q, b), (w, s, d))| q + b + w + s + d)
                .max()
                .unwrap();
            let seen_max = total_hist.quantile(1.0).unwrap();
            let tol = (true_max as f64 * MAX_RELATIVE_ERROR).ceil() as u64 + 1;
            prop_assert!(
                seen_max.abs_diff(true_max) <= tol,
                "quantized max {} vs true {} (tol {})", seen_max, true_max, tol
            );
        }
    }
}
