//! The online risk-scoring service: a long-running worker over the
//! `rsd-pipeline` service primitives, keyed on the shared
//! [`UserWindowStore`], scoring micro-batches through the table-3
//! [`ScoringModel`].
//!
//! # Determinism
//!
//! Scores depend only on the *sequence* of submitted posts, never on
//! timing: the ingest channel preserves submission order, the store
//! applies per-shard updates in that order, and per-request scoring is
//! self-contained, so batch boundaries (which *are* timing-dependent)
//! cannot change any score. Results are emitted in submission order.
//!
//! # Backpressure and drain
//!
//! `submit` blocks while the ingress channel is full — ingest pressure
//! propagates to the producer instead of growing an unbounded queue.
//! [`RiskService::drain`] closes ingress, lets the worker finish
//! everything queued, and returns the final [`ServeReport`].

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use rsd_common::Timestamp;
use rsd_corpus::RiskLevel;
use rsd_dataset::{StoreItem, UserWindowStore};
use rsd_models::{ScoreScratch, ScoringModel, StreamPost};
use rsd_obs::Stage;
use rsd_pipeline::service::{bounded, Receiver, SendError, Sender, Traced};

use crate::config::ServeConfig;

/// One post event entering the service.
#[derive(Debug, Clone)]
pub struct IncomingPost {
    /// Owning user id.
    pub user: u32,
    /// Post id (unique; tie-breaks same-timestamp ordering).
    pub post: u32,
    /// Post creation time.
    pub created: Timestamp,
    /// Cleaned post text.
    pub text: String,
}

/// The service's answer for one submitted post: the user's risk level
/// given their trailing window *after* this post.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredPost {
    /// Owning user id.
    pub user: u32,
    /// The scored post's id.
    pub post: u32,
    /// Predicted user-level risk.
    pub level: RiskLevel,
    /// Posts in the window that produced the score (`≤ W`).
    pub window_len: usize,
    /// Posts ever seen for this user (since residency began).
    pub total_seen: u64,
    /// Submit-to-score latency in nanoseconds.
    pub latency_ns: u64,
    /// Request trace id (correlates with exemplar breakdowns).
    pub trace_id: u64,
}

/// Final accounting returned by [`RiskService::drain`].
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Requests scored.
    pub scored: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Largest micro-batch observed.
    pub max_batch: usize,
    /// Users evicted by the LRU under memory pressure.
    pub evicted_users: u64,
    /// Sum of per-shard peak resident users (bounded-memory witness).
    pub peak_resident_users: usize,
    /// Users resident at drain time.
    pub resident_users: usize,
    /// Submits that found the ingress queue full and blocked.
    pub blocked_submits: u64,
    /// The run's slowest requests with their full per-stage breakdowns
    /// (empty when telemetry is disarmed).
    pub exemplars: Vec<rsd_obs::exemplar::Exemplar>,
}

/// A submitted post with what the model prepared from it at submit.
struct Submitted {
    post: IncomingPost,
    prepared: StreamPost,
}

/// What rides the ingress channel: the submitted post plus its trace
/// context, so the worker can attribute queue wait, batch wait, window
/// update, and scoring to the request that actually paid for them.
type Envelope = Traced<Submitted>;

/// Per-shard scoring scratch: feature row + timestamp buffer, reused
/// across every request the shard scores in a batch.
#[derive(Default)]
struct WorkerScratch {
    score: ScoreScratch,
    stamps: Vec<Timestamp>,
}

/// A running risk-scoring service (one scoring worker; shard-level
/// parallelism inside each micro-batch comes from the `rsd-par` pool).
pub struct RiskService {
    model: Arc<ScoringModel>,
    ingress: Sender<Envelope>,
    results: Receiver<ScoredPost>,
    worker: Option<thread::JoinHandle<ServeReport>>,
    backend: &'static str,
}

impl RiskService {
    /// Start the service on a fitted scoring model.
    pub fn start(model: Arc<ScoringModel>, cfg: ServeConfig) -> RiskService {
        let (ingress_tx, ingress_rx) = bounded::<Envelope>(cfg.channel_cap, "serve.ingress");
        let (results_tx, results_rx) = bounded::<ScoredPost>(cfg.channel_cap, "serve.results");
        let backend = cfg.model.name();
        let worker_model = Arc::clone(&model);
        let worker = thread::Builder::new()
            .name("rsd-serve-worker".to_string())
            .spawn(move || worker_loop(worker_model, cfg, ingress_rx, results_tx))
            .expect("spawn serve worker");
        RiskService {
            model,
            ingress: ingress_tx,
            results: results_rx,
            worker: Some(worker),
            backend,
        }
    }

    /// Submit one post. Blocks while the ingress queue is full
    /// (backpressure); fails once the service is draining. Minting the
    /// trace context here makes the ingress instant the submit instant,
    /// so queue wait includes any time spent blocked on backpressure.
    ///
    /// The post is prepared for the model here, once, on the submitting
    /// thread ([`ScoringModel::prepare_post`]); that time is the request's
    /// first share of its score stage.
    pub fn submit(&self, post: IncomingPost) -> std::result::Result<(), SendError<IncomingPost>> {
        let mut ctx = rsd_obs::ReqCtx::mint(self.backend);
        let prepared = self.model.prepare_post(&post.text);
        ctx.advance(Stage::Score);
        self.ingress
            .send(Traced {
                ctx,
                item: Submitted { post, prepared },
            })
            .map_err(|SendError(env)| SendError(env.item.post))
    }

    /// A handle to the result stream (clone freely; results are emitted
    /// in submission order). Consume it concurrently with submission —
    /// the results channel is bounded too, so an unread result stream
    /// eventually backpressures the scoring worker.
    pub fn results(&self) -> Receiver<ScoredPost> {
        self.results.clone()
    }

    /// Drain: close ingress, let the worker score everything queued,
    /// and return the final report. Queued results stay receivable on
    /// previously cloned [`results`](RiskService::results) handles.
    pub fn drain(mut self) -> ServeReport {
        self.ingress.close();
        let blocked = self.ingress.blocked_sends();
        // Release our result handle so a worker blocked on a full,
        // unconsumed results queue fails fast instead of deadlocking
        // the join (external clones keep the stream alive if present).
        let results = std::mem::replace(&mut self.results, {
            let (_, rx) = bounded::<ScoredPost>(1, "serve.results.detached");
            rx
        });
        drop(results);
        let mut report = self
            .worker
            .take()
            .expect("drain called once")
            .join()
            .expect("serve worker panicked");
        report.blocked_submits = blocked;
        report
    }
}

fn worker_loop(
    model: Arc<ScoringModel>,
    cfg: ServeConfig,
    ingress: Receiver<Envelope>,
    results: Sender<ScoredPost>,
) -> ServeReport {
    rsd_obs::stage_register("serve.scored");
    let mut store: UserWindowStore<StreamPost> =
        UserWindowStore::new(cfg.shards, model.window(), cfg.lru_capacity);
    let mut report = ServeReport::default();
    let mut stall_pending = cfg.inject_stall_ms;

    // Blocking recv for the batch head, then opportunistically fill the
    // micro-batch from whatever else is already queued. Each pop closes
    // the envelope's queue-wait attribution.
    while let Some(mut first) = ingress.recv() {
        first.ctx.advance(Stage::Queue);
        let mut batch = Vec::with_capacity(cfg.batch_max);
        batch.push(first);
        while batch.len() < cfg.batch_max {
            match ingress.try_recv() {
                Some(mut env) => {
                    env.ctx.advance(Stage::Queue);
                    batch.push(env);
                }
                None => break,
            }
        }

        let n = batch.len();
        let mut bytes = 0u64;
        let mut metas = Vec::with_capacity(n);
        let mut items = Vec::with_capacity(n);
        for mut env in batch {
            // Dispatch instant: everything since the pop was batch wait.
            env.ctx.advance(Stage::BatchWait);
            let Submitted { post, prepared } = env.item;
            bytes += post.text.len() as u64;
            metas.push((post.user, post.post, env.ctx));
            items.push(StoreItem {
                user: post.user,
                created: post.created,
                id: post.post,
                payload: prepared,
            });
        }

        // Sharded state update + scoring on the rsd-par pool. The
        // callback sees the user's window *after* this post's insert;
        // per-shard scratch keeps feature rows allocation-free. Window
        // and score time are measured where they happen and carried out
        // to the emit loop, which owns the trace contexts.
        let outs = store.apply_batch_map_with::<(usize, usize, u64, u64, u64), WorkerScratch, _>(
            items,
            |_user, buf, apply_ns, scratch| {
                let posts: Vec<&StreamPost> = buf.entries().iter().map(|e| &e.payload).collect();
                scratch.stamps.clear();
                scratch
                    .stamps
                    .extend(buf.entries().iter().map(|e| e.created));
                let t_score = Instant::now();
                let level = model.score_stream(
                    &posts,
                    &scratch.stamps,
                    buf.total_seen() as usize,
                    &mut scratch.score,
                );
                let score_ns = t_score.elapsed().as_nanos() as u64;
                (level, buf.len(), buf.total_seen(), apply_ns, score_ns)
            },
        );

        for ((user, post, mut ctx), (level, window_len, total_seen, apply_ns, score_ns)) in
            metas.into_iter().zip(outs)
        {
            let level = RiskLevel::from_index(level).expect("booster predicts 0..4");
            ctx.record(Stage::Window, apply_ns);
            ctx.record(Stage::Score, score_ns);
            ctx.set_level(level.name());
            let latency_ns = ctx.ingress().elapsed().as_nanos() as u64;
            ctx.close_residual(latency_ns);
            rsd_obs::latency_ns("serve.request", latency_ns);
            let scored = ScoredPost {
                user,
                post,
                level,
                window_len,
                total_seen,
                latency_ns,
                trace_id: ctx.trace_id(),
            };
            ctx.finish();
            // A failed send means every result receiver is gone; keep
            // scoring (state must stay consistent) but stop emitting.
            let _ = results.send(scored);
        }

        report.scored += n as u64;
        report.batches += 1;
        report.max_batch = report.max_batch.max(n);
        rsd_obs::counter_add("serve.requests", n as u64);
        rsd_obs::stage_progress("serve.scored", n as u64, bytes);
        rsd_obs::gauge("serve.resident_users", store.resident_users() as f64);
        rsd_obs::gauge("serve.ingress.depth", ingress.depth() as f64);

        // SLO self-test fault injection: freeze the worker once, right
        // after the first micro-batch, so queued requests accrue real
        // queue wait and the burn-rate monitor must trip.
        if let Some(ms) = stall_pending.take() {
            eprintln!("rsd-serve: injected stall for {ms} ms (RSD_SERVE_INJECT_STALL_MS)");
            thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    rsd_obs::stage_finish("serve.scored");
    report.evicted_users = store.evicted_users();
    report.peak_resident_users = store.peak_resident_users();
    report.resident_users = store.resident_users();
    report.exemplars = rsd_obs::exemplar::run_snapshot();
    results.close();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, SplitConfig};
    use rsd_gbdt::BoosterConfig;
    use rsd_models::{BenchData, XgboostConfig};

    fn fitted_model() -> (rsd_dataset::Rsd15k, Arc<ScoringModel>) {
        let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(41, 1_500, 30))
            .build()
            .unwrap();
        let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
        let data = BenchData {
            dataset: &dataset,
            splits: &splits,
            unlabeled: &[],
            seed: 41,
        };
        let cfg = XgboostConfig {
            max_tfidf: 60,
            post_level_cap: 2,
            booster: BoosterConfig {
                n_classes: 4,
                n_rounds: 8,
                early_stopping: 0,
                ..Default::default()
            },
        };
        let model = Arc::new(ScoringModel::fit(&cfg, &data).unwrap());
        (dataset, model)
    }

    fn chronological_posts(dataset: &rsd_dataset::Rsd15k) -> Vec<IncomingPost> {
        let mut order: Vec<usize> = (0..dataset.posts.len()).collect();
        order.sort_by_key(|&i| (dataset.posts[i].created, dataset.posts[i].id));
        order
            .into_iter()
            .map(|i| {
                let p = &dataset.posts[i];
                IncomingPost {
                    user: p.user.0,
                    post: p.id.0,
                    created: p.created,
                    text: p.text.clone(),
                }
            })
            .collect()
    }

    #[test]
    fn scores_stream_in_submission_order_and_drains_clean() {
        let (dataset, model) = fitted_model();
        let posts = chronological_posts(&dataset);
        let n = posts.len();
        let cfg = ServeConfig {
            shards: 4,
            lru_capacity: 4096,
            batch_max: 16,
            channel_cap: n + 1, // no consumer until after drain
            ..ServeConfig::default()
        };
        let service = RiskService::start(model, cfg);
        let results = service.results();
        for p in posts.clone() {
            service.submit(p).unwrap();
        }
        let report = service.drain();
        assert_eq!(report.scored, n as u64);
        assert_eq!(report.evicted_users, 0, "ample LRU capacity");
        assert!(report.peak_resident_users <= dataset.n_users());

        let scored: Vec<ScoredPost> = std::iter::from_fn(|| results.recv()).collect();
        assert_eq!(scored.len(), n);
        for (got, want) in scored.iter().zip(&posts) {
            assert_eq!((got.user, got.post), (want.user, want.post), "order");
            assert!(got.window_len >= 1 && got.window_len <= 5);
        }
    }

    #[test]
    fn scores_are_timing_independent_across_batch_sizes() {
        let (dataset, model) = fitted_model();
        let posts = chronological_posts(&dataset);
        let n = posts.len();
        let run = |batch_max: usize| -> Vec<(u32, u32, RiskLevel)> {
            let cfg = ServeConfig {
                shards: 4,
                lru_capacity: 4096,
                batch_max,
                channel_cap: n + 1,
                ..ServeConfig::default()
            };
            let service = RiskService::start(Arc::clone(&model), cfg);
            let results = service.results();
            for p in posts.clone() {
                service.submit(p).unwrap();
            }
            service.drain();
            std::iter::from_fn(|| results.recv())
                .map(|s| (s.user, s.post, s.level))
                .collect()
        };
        assert_eq!(run(1), run(64), "batch boundaries must not change scores");
    }

    #[test]
    fn lru_pressure_evicts_but_keeps_serving() {
        let (dataset, model) = fitted_model();
        let posts = chronological_posts(&dataset);
        let n = posts.len();
        let cfg = ServeConfig {
            shards: 2,
            lru_capacity: 4, // far fewer than the user count
            batch_max: 8,
            channel_cap: n + 1,
            ..ServeConfig::default()
        };
        let service = RiskService::start(model, cfg);
        let results = service.results();
        for p in posts {
            service.submit(p).unwrap();
        }
        let report = service.drain();
        assert_eq!(report.scored, n as u64);
        assert!(report.evicted_users > 0, "pressure must evict");
        assert!(report.peak_resident_users <= 4 + 2, "capacity respected");
        assert!(report.resident_users <= 4);
        let scored = std::iter::from_fn(|| results.recv()).count();
        assert_eq!(scored, n);
    }
}
