#![warn(missing_docs)]

//! Synthetic Reddit substrate and generative corpus model for RSD-15K.
//!
//! The real RSD-15K is built from a gated crawl of `r/SuicideWatch`
//! (139,455 posts / 76,186 users, 01/2020–12/2021), of which 1,265 users'
//! 14,613 posts were selected for annotation. This crate substitutes that
//! gated resource with a fully deterministic generative model that
//! reproduces the corpus's *published statistical structure*:
//!
//! * the four-level risk taxonomy (Indicator / Ideation / Behavior /
//!   Attempt) with Table I's marginal distribution;
//! * heavy-tailed posts-per-user counts (Fig. 1: most users < 20 posts);
//! * per-user **risk trajectories** — a Markov chain over risk levels so a
//!   user's posting history exhibits the dynamic evolution the paper's
//!   user-level task is designed to capture;
//! * risk-coupled temporal behaviour (night-posting ratio, inter-post
//!   intervals, burstiness) exploited by the paper's temporal features;
//! * class-conditional language with realistic confusions — Indicator
//!   posts reuse high-risk vocabulary inside negated or third-person
//!   frames, so surface bag-of-words models genuinely struggle while
//!   order- and context-aware models do better (the paper's Table III
//!   performance ladder).
//!
//! Layered on top is a faithful miniature of the collection pathway:
//! [`reddit`] models a subreddit store with the official API's paginated
//! listing semantics and a rate-limited [`reddit::CrawlClient`], and
//! [`selection`] reimplements the paper's "select 1,265 active users for
//! annotation" step. Downstream crates never see generator internals —
//! only crawled [`RawPost`]s, exactly as the authors' pipeline saw Reddit.

pub mod behavior;
pub mod generator;
pub mod lexicon;
pub mod reddit;
pub mod risk;
pub mod selection;
pub mod source;
pub mod textgen;
pub mod types;

pub use generator::{CorpusConfig, CorpusGenerator, RawCorpus};
pub use risk::RiskLevel;
pub use selection::{select_users_for_annotation, SelectionConfig};
pub use source::{CorpusShardSource, CrawledShard};
pub use types::{PostId, RawPost, RawUser, UserId};
