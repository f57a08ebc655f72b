#![warn(missing_docs)]

//! `rsd-pipeline` — the workspace's streaming build substrate.
//!
//! The paper's pipeline (crawl → preprocess → select → annotate →
//! assemble) operates over a corpus far larger than the annotated subset,
//! so the build must not hold every intermediate alive at once. This crate
//! provides the machinery the dataset builder runs on:
//!
//! * **User shards** ([`ShardSpec`], [`ShardPlan`]) — a shard is a
//!   contiguous range of user ids, sized by [`PipelineConfig::shard_users`].
//!   Shard boundaries are a pure function of corpus size and shard size,
//!   never of thread count, mirroring the `rsd-par` determinism contract.
//! * **Closure-driven executor** ([`run_shards`]) — a `per_shard` closure
//!   runs on the `rsd-par` pool, at most
//!   [`PipelineConfig::shards_in_flight`] shards at a time, and a `fold`
//!   closure consumes the results strictly in ascending shard order, so
//!   the merged output is bit-identical to a monolithic batch run.
//! * **Checkpoints** ([`Checkpointer`], [`Artifact`], [`checkpointed`]) —
//!   one load-or-compute helper serves per-shard and global stage
//!   boundaries alike: each completed boundary persists a JSONL artifact
//!   plus a manifest, so a killed build resumes from the last completed
//!   boundary instead of restarting. Artifacts are keyed by a config
//!   fingerprint; stale or truncated checkpoints are silently recomputed.
//! * **Residency accounting** ([`ResidentGauge`]) — stages report how many
//!   raw posts they hold, surfacing the bounded-memory claim as the
//!   `pipeline.peak_resident_posts` gauge instead of asserting it.
//! * **Service primitives** ([`service`]) — blocking bounded channels
//!   with explicit backpressure, whose close is the drain, and the
//!   [`Traced`](service::Traced) request envelope. `rsd-serve` runs on
//!   these.

pub mod checkpoint;
pub mod executor;
pub mod resident;
pub mod service;
pub mod shard;

pub use checkpoint::{checkpointed, config_fingerprint, Artifact, Checkpointer};
pub use executor::{run_shards, PipelineConfig, PipelineReport};
pub use resident::ResidentGauge;
pub use service::{bounded, Receiver, SendError, Sender};
pub use shard::{ShardPlan, ShardSpec};
