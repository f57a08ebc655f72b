//! Raw corpus record types — the schema the (simulated) crawl produces.
//!
//! These mirror what the paper's pipeline received from the Reddit API:
//! pseudonymous author ids, post bodies, and creation timestamps. The one
//! addition is `latent_risk` on [`RawPost`]: the generator's ground-truth
//! label, which plays the role the *expert consensus* plays for real data.
//! The annotation pipeline treats it as the hidden true label its noisy
//! annotators approximate; benchmark code only ever sees annotated output.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::risk::RiskLevel;
use rsd_common::Timestamp;

/// Opaque, pseudonymous user identifier (dense index into the corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct UserId(pub u32);

/// Opaque post identifier (dense index into the corpus, in crawl order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PostId(pub u32);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for PostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A single crawled post, before any preprocessing or annotation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawPost {
    /// Dense post id, unique within a corpus.
    pub id: PostId,
    /// Pseudonymous author.
    pub author: UserId,
    /// UTC creation time.
    pub created: Timestamp,
    /// Raw body text, including the noise (links, stray punctuation,
    /// repeated characters) the preprocessing stage must remove.
    pub body: String,
    /// Ground-truth latent risk level (generator-internal; stands in for
    /// the expert consensus label on real data).
    pub latent_risk: RiskLevel,
    /// Ground truth: this post is off-topic for the suicide-risk theme and
    /// should be removed by preprocessing ("removing non-relevant posts").
    /// Preprocessing must *detect* this — it never reads the flag; the flag
    /// exists so tests can measure cleaning precision/recall.
    pub off_topic: bool,
    /// Ground truth: this post is a repost of another post (dedup target).
    /// Same contract as `off_topic`: detection only, never consulted by the
    /// pipeline itself.
    pub duplicate_of: Option<PostId>,
}

/// A user together with the ids of their posts, in chronological order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawUser {
    /// Dense user id.
    pub id: UserId,
    /// This user's posts, sorted by `created` ascending.
    pub post_ids: Vec<PostId>,
}

impl RawUser {
    /// Number of posts this user contributed.
    pub(crate) fn post_count(&self) -> usize {
        self.post_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_compactly() {
        assert_eq!(UserId(7).to_string(), "u7");
        assert_eq!(PostId(123).to_string(), "p123");
    }

    #[test]
    fn serde_round_trip() {
        let p = RawPost {
            id: PostId(1),
            author: UserId(2),
            created: Timestamp(1_600_000_000),
            body: "hello".to_string(),
            latent_risk: RiskLevel::Attempt,
            off_topic: false,
            duplicate_of: None,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: RawPost = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
