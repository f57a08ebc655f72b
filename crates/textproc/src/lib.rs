#![warn(missing_docs)]

//! Text preprocessing for RSD-15K (§II-A2 of the paper).
//!
//! The paper's pre-processing phase performs, in order:
//!
//! 1. removal of non-relevant posts (off-topic for the suicide-risk theme);
//! 2. duplicate removal;
//! 3. noise filtering — special characters, excessive punctuation,
//!    irrelevant links;
//! 4. tokenization and text normalization;
//! 5. chronological partitioning for time-series analysis.
//!
//! Each step is a module here: [`relevance`], [`dedup`], [`clean`],
//! [`tokenize`](mod@tokenize), and the orchestrating [`pipeline`]. On top
//! of those sit the representation layers the baselines share: [`vocab`]
//! (token ↔ id with special tokens for the neural models) and [`tfidf`]
//! (sparse TF-IDF vectors for the XGBoost feature framework).

pub mod clean;
pub mod dedup;
pub mod pipeline;
pub mod relevance;
pub mod stopwords;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use clean::clean_text;
pub use pipeline::{PostAnalysis, PreprocessReport, Preprocessor};
pub use tfidf::{SparseVec, TfIdfVectorizer};
pub use tokenize::tokenize;
pub use vocab::{SpecialToken, Vocabulary};
