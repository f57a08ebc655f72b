#![warn(missing_docs)]

//! The RSD-15K dataset core: records, builder pipeline, splits, IO and the
//! statistics behind every figure and table in the paper's §II.
//!
//! * [`record`] — the published schema: annotated [`Post`]s with complete
//!   per-user chronological timelines ([`UserRecord`]), wrapped in
//!   [`Rsd15k`].
//! * [`builder`] — the end-to-end construction pipeline: generate the raw
//!   pool → crawl it through the simulated Reddit API → preprocess →
//!   select the annotation pool → run the annotation campaign → assemble
//!   the dataset. One call reproduces the paper's data section.
//! * [`stream`] — the builder's one implementation, sharded and
//!   streaming: bounded shards-in-flight on `rsd-pipeline`,
//!   checkpoint/resume at stage boundaries, the same output bytes under
//!   any shard geometry or thread count (pinned by committed digests).
//! * [`splits`] — user-disjoint 80/10/10 partitioning and the
//!   `window = 5` sequential-post extraction the benchmark task uses.
//! * [`io`] — JSON-lines round-trip and CSV export.
//! * [`stats`] — Table I (class distribution), Fig. 1 (posts per user),
//!   Figs. 2–3 (per-class word frequencies), Fig. 4 (top-20 active users).
//! * [`window_store`] — the shared latest-`W` window-selection state:
//!   [`WindowBuffer`] (one user's trailing window, identical to the batch
//!   tail-slice selection) and the sharded LRU [`UserWindowStore`] the
//!   online serving path keys its per-user state on.
//! * [`compare`] — Table II (comparison with prior datasets).
//! * [`trajectory`] — risk-evolution analytics (transition matrices,
//!   escalation events, per-user severity trends).
//! * [`privacy`] — the §IV anonymization audit.

pub mod builder;
pub mod compare;
pub mod io;
pub mod privacy;
pub mod record;
pub mod splits;
pub mod stats;
pub mod stream;
pub mod trajectory;
pub mod window_store;

pub use builder::{BuildConfig, BuildReport, DatasetBuilder};
pub use record::{Post, Rsd15k, UserRecord};
pub use splits::{DatasetSplits, SplitConfig, UserWindow};
pub use stream::{StreamingBuild, StreamingOptions};
pub use window_store::{StoreItem, UserWindowStore, WindowBuffer, WindowEntry};
