#![warn(missing_docs)]

//! `rsd-serve` — the online risk-scoring service.
//!
//! RSD-15K's user-level task ("score the user's latest post given their
//! trailing window of 5") is inherently online; this crate is the
//! serving substrate the ROADMAP's first open item calls for, built by
//! refactoring the batch layers rather than wrapping them:
//!
//! * ingest runs on the `rsd-pipeline` [`service`
//!   primitives](rsd_pipeline::service) — bounded channels with blocking
//!   backpressure, drained by closing ingress;
//! * per-user state is the `rsd-dataset`
//!   [`UserWindowStore`](rsd_dataset::UserWindowStore) — the *same*
//!   latest-`W` selection the batch split path runs, sharded with a
//!   deterministic hot-user LRU;
//! * scoring goes through the `rsd-models`
//!   [`ScoringModel`](rsd_models::ScoringModel) — the inference-only
//!   entry point, micro-batched on the `rsd-par` pool with reusable
//!   scratch. `RSD_SERVE_MODEL` routes it across three backends: the
//!   table-3 XGBoost artifact (`gbdt`, default), the frozen PLM on the
//!   f32 reference path (`plm-f32`), or the same frozen PLM on the
//!   per-channel int8 fast path (`plm-int8`).
//!
//! Scores are a pure function of the submitted post sequence: batch
//! boundaries, thread counts, and wall-clock timing cannot change them.
//! The `loadgen` bench bin replays the synthetic corpus through this
//! service at a target QPS and publishes latency/throughput via
//! `rsd-obs`.

pub mod config;
pub mod service;

pub use config::ServeConfig;
pub use service::{IncomingPost, RiskService, ScoredPost, ServeReport};
