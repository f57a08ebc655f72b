#![warn(missing_docs)]

//! Multi-level feature engineering for the XGBoost baseline
//! (paper §III-A1).
//!
//! "It covers three dimensions: time, text, and sequence. In the time
//! dimension, we analyze the temporal patterns of user posts ...; in the
//! text dimension, we combine TF-IDF vectorization, text statistical
//! features, and linguistic features; in the sequence dimension, we
//! extract time series statistics, change trends, and historical
//! cumulative features based on the historical post sliding window."
//!
//! Every feature carries a name and a [`FeatureDimension`] tag so the
//! importance analysis can aggregate gain per dimension and reproduce the
//! paper's finding that temporal features dominate.
//!
//! Features are computed in two parts, because each post is read by every
//! window that contains it:
//!
//! * [`post`] — [`FeatureExtractor::prepare`] tokenizes a post once into
//!   a [`PreparedPost`]: token, first-person, negation and theme-hit
//!   counts, sorted distinct tokens and the TF-IDF row.
//! * [`FeatureExtractor::combine_into`] — the one window combiner: the
//!   [`time`] block from the timestamps, the [`text`] and [`sequence`]
//!   blocks and the last post's TF-IDF row from the prepared posts.
//!
//! Training and held-out scoring prepare a dataset's posts once into a
//! [`PostTable`] ([`FeatureExtractor::prepare_posts`]) and combine each
//! window from it; serving keeps each post prepared in its window store;
//! [`FeatureExtractor::transform_stream_into`] prepares a window's texts
//! and combines them in one call.

pub mod extractor;
pub mod post;
pub mod sequence;
pub mod text;
pub mod time;

pub use extractor::{FeatureDimension, FeatureExtractor, PostTable};
pub use post::PreparedPost;
pub use sequence::SEQUENCE_FEATURE_NAMES;
pub use text::TEXT_FEATURE_NAMES;
pub use time::{time_features, time_features_into, TIME_FEATURE_NAMES};
