//! Dataset statistics behind the paper's §II figures and Table I.
//!
//! * [`class_distribution`] — Table I (count + percentage per class).
//! * [`posts_per_user_histogram`] — Fig. 1.
//! * [`class_word_frequencies`] — the word-cloud data of Figs. 2–3
//!   (top-k content unigrams per class after stopword removal).
//! * [`top_user_risk_profiles`] — Fig. 4 (risk-level mix of the 20 most
//!   active users).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::record::Rsd15k;
use rsd_common::stats::Histogram;
use rsd_corpus::{RiskLevel, UserId};
use rsd_text::stopwords::is_stopword;
use rsd_text::tokenize;

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDistributionRow {
    /// Class name ("Attempt", ...).
    pub category: String,
    /// Post count.
    pub count: usize,
    /// Percentage of all posts (0–100).
    pub percentage: f64,
}

/// Table I: per-class counts and percentages, in the paper's row order
/// (Attempt, Behavior, Ideation, Indicator).
pub fn class_distribution(dataset: &Rsd15k) -> Vec<ClassDistributionRow> {
    let counts = dataset.class_counts();
    let total: usize = counts.iter().sum();
    let order = [
        RiskLevel::Attempt,
        RiskLevel::Behavior,
        RiskLevel::Ideation,
        RiskLevel::Indicator,
    ];
    order
        .iter()
        .map(|&level| ClassDistributionRow {
            category: level.name().to_string(),
            count: counts[level.index()],
            percentage: if total > 0 {
                100.0 * counts[level.index()] as f64 / total as f64
            } else {
                0.0
            },
        })
        .collect()
}

/// Fig. 1: histogram of posts-per-user with unit-width buckets up to
/// `max_bucket` (overflow pools in the last bucket).
pub fn posts_per_user_histogram(dataset: &Rsd15k, max_bucket: usize) -> Histogram {
    let mut h = Histogram::new(0.0, max_bucket as f64, max_bucket.max(1));
    for user in &dataset.users {
        h.record(user.post_indices.len() as f64);
    }
    h
}

/// Figs. 2–3: the `top_k` most frequent content words (stopwords removed)
/// for one class, with counts — the data a word cloud renders.
pub fn class_word_frequencies(
    dataset: &Rsd15k,
    level: RiskLevel,
    top_k: usize,
) -> Vec<(String, usize)> {
    let mut freq: HashMap<&str, usize> = HashMap::new();
    for post in dataset.posts.iter().filter(|p| p.label == level) {
        for tok in tokenize(&post.text) {
            if !is_stopword(tok) && tok.len() > 2 {
                *freq.entry(tok).or_insert(0) += 1;
            }
        }
    }
    let mut entries: Vec<(String, usize)> =
        freq.into_iter().map(|(t, c)| (t.to_string(), c)).collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    entries.truncate(top_k);
    entries
}

/// One bar of Fig. 4: a top-active user's per-class post counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserRiskProfile {
    /// The user (pseudonymous; the figure removes identifiers entirely).
    pub user: UserId,
    /// Total posts.
    pub total: usize,
    /// Post counts per class, indexed by [`RiskLevel::index`].
    pub class_counts: [usize; RiskLevel::COUNT],
}

/// Fig. 4: risk-level distribution of the `top_n` most active users,
/// ordered by activity descending.
pub fn top_user_risk_profiles(dataset: &Rsd15k, top_n: usize) -> Vec<UserRiskProfile> {
    let mut profiles: Vec<UserRiskProfile> = dataset
        .users
        .iter()
        .map(|u| {
            let mut class_counts = [0usize; RiskLevel::COUNT];
            for post in dataset.user_posts(u) {
                class_counts[post.label.index()] += 1;
            }
            UserRiskProfile {
                user: u.id,
                total: u.post_indices.len(),
                class_counts,
            }
        })
        .collect();
    profiles.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.user.cmp(&b.user)));
    profiles.truncate(top_n);
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::tiny;
    use crate::{BuildConfig, DatasetBuilder};

    fn built() -> Rsd15k {
        DatasetBuilder::new(BuildConfig::scaled(301, 3_000, 50))
            .build()
            .unwrap()
            .0
    }

    #[test]
    fn table1_rows_in_paper_order_and_sum() {
        let d = built();
        let rows = class_distribution(&d);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].category, "Attempt");
        assert_eq!(rows[3].category, "Indicator");
        let total: usize = rows.iter().map(|r| r.count).sum();
        assert_eq!(total, d.n_posts());
        let pct: f64 = rows.iter().map(|r| r.percentage).sum();
        assert!((pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_histogram_counts_users() {
        let d = built();
        let h = posts_per_user_histogram(&d, 60);
        assert_eq!(h.total as usize, d.n_users());
        // Fig 1's headline: the majority of users have < 20 posts.
        assert!(h.fraction_below(20.0) > 0.5);
    }

    #[test]
    fn word_frequencies_exclude_stopwords_and_sort() {
        let d = built();
        let words = class_word_frequencies(&d, RiskLevel::Ideation, 25);
        assert!(!words.is_empty());
        assert!(words.len() <= 25);
        for (w, _) in &words {
            assert!(!is_stopword(w), "stopword {w} leaked");
            assert!(w.len() > 2);
        }
        for pair in words.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "must be sorted by count");
        }
    }

    #[test]
    fn word_frequencies_reflect_class_language() {
        let d = built();
        // Preparatory-act vocabulary must be *relatively* enriched in
        // Behavior vs Indicator (word clouds are normalized per class).
        let rate = |level: RiskLevel, word: &str| {
            let freqs = class_word_frequencies(&d, level, usize::MAX);
            let total: usize = freqs.iter().map(|(_, c)| c).sum();
            let count = freqs
                .iter()
                .find(|(w, _)| w == word)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            count as f64 / total.max(1) as f64
        };
        // The camouflage bank deliberately flattens most unigram contrasts
        // (see rsd-corpus lexicon docs); check words that remain
        // class-specific by design.
        assert!(
            rate(RiskLevel::Behavior, "collecting") > rate(RiskLevel::Indicator, "collecting"),
            "collecting should be enriched in Behavior"
        );
        assert!(
            rate(RiskLevel::Attempt, "attempt") > rate(RiskLevel::Ideation, "attempt"),
            "attempt should be enriched in Attempt"
        );
    }

    #[test]
    fn fig4_profiles_sorted_by_activity() {
        let d = built();
        let profiles = top_user_risk_profiles(&d, 20);
        assert_eq!(profiles.len(), 20.min(d.n_users()));
        for pair in profiles.windows(2) {
            assert!(pair[0].total >= pair[1].total);
        }
        for p in &profiles {
            assert_eq!(p.class_counts.iter().sum::<usize>(), p.total);
        }
    }

    #[test]
    fn tiny_fixture_stats() {
        let d = tiny();
        let rows = class_distribution(&d);
        assert_eq!(rows.iter().map(|r| r.count).sum::<usize>(), 5);
        let profiles = top_user_risk_profiles(&d, 10);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].total, 3);
    }
}
