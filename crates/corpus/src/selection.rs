//! Annotation-pool selection — the paper's "1,265 users / 14,613 posts"
//! step.
//!
//! From the raw pool the authors selected a subset of users whose complete
//! timelines were manually annotated. Because timelines must stay intact
//! (the dataset's key asset is complete posting sequences), selection is at
//! user granularity and the post total is an emergent sum. The greedy
//! balance below picks users so the running mean posts-per-user tracks the
//! target mean (14,613 / 1,265 ≈ 11.55), favouring active users exactly the
//! way a user-level temporal dataset requires, while still admitting
//! lighter users for coverage.

use crate::types::{RawUser, UserId};
use rsd_common::rng::{shuffle, stream_rng};
use rsd_common::{Result, RsdError};

/// Selection parameters.
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// Seed for tie-breaking shuffles.
    pub seed: u64,
    /// How many users to select (paper: 1,265).
    pub target_users: usize,
    /// Desired total posts across selected users (paper: 14,613).
    pub target_posts: usize,
    /// Users with fewer posts than this are never selected (a user-level
    /// temporal dataset needs at least a minimal history).
    pub min_posts: usize,
}

impl SelectionConfig {
    /// Paper-scale target.
    pub fn paper(seed: u64) -> Self {
        SelectionConfig {
            seed,
            target_users: 1_265,
            target_posts: 14_613,
            min_posts: 2,
        }
    }

    /// Scaled-down target preserving the ≈11.55 posts/user mean.
    pub fn scaled(seed: u64, target_users: usize) -> Self {
        SelectionConfig {
            seed,
            target_users,
            target_posts: (target_users as f64 * 11.55).round() as usize,
            min_posts: 2,
        }
    }
}

/// Select users for annotation from the (cleaned) pool.
///
/// `users` should carry post counts *after* preprocessing. Returns the
/// selected user ids. Errors if the pool cannot satisfy the request.
pub fn select_users_for_annotation(
    users: &[RawUser],
    cfg: &SelectionConfig,
) -> Result<Vec<UserId>> {
    if cfg.target_users == 0 {
        return Err(RsdError::config("target_users", "must be positive"));
    }
    let mut eligible: Vec<&RawUser> = users
        .iter()
        .filter(|u| u.post_count() >= cfg.min_posts)
        .collect();
    if eligible.len() < cfg.target_users {
        return Err(RsdError::data(format!(
            "only {} users have ≥{} posts; need {}",
            eligible.len(),
            cfg.min_posts,
            cfg.target_users
        )));
    }

    // Deterministic shuffle then a stable sort by activity: users of equal
    // count stay in seeded-random order, so ties don't bias toward low ids.
    let mut rng = stream_rng(cfg.seed, "selection.shuffle");
    shuffle(&mut rng, &mut eligible);
    eligible.sort_by_key(|u| std::cmp::Reverse(u.post_count()));

    // Two pointers: heaviest-first and lightest-first. At each step take
    // from whichever end keeps the running mean closest to the target mean.
    let target_mean = cfg.target_posts as f64 / cfg.target_users as f64;
    let mut lo = 0usize; // heavy end
    let mut hi = eligible.len() - 1; // light end
    let mut picked: Vec<UserId> = Vec::with_capacity(cfg.target_users);
    let mut total_posts = 0usize;

    while picked.len() < cfg.target_users {
        let remaining = cfg.target_users - picked.len();
        let deficit = cfg.target_posts as f64 - total_posts as f64;
        let needed_mean = deficit / remaining as f64;
        // Take a heavy user while we're behind the target mean, else light.
        let take_heavy = needed_mean >= target_mean && lo <= hi;
        let user = if take_heavy {
            let user = eligible[lo];
            lo += 1;
            user
        } else {
            let user = eligible[hi];
            hi = hi.saturating_sub(1);
            user
        };
        total_posts += user.post_count();
        picked.push(user.id);
        if lo > hi && picked.len() < cfg.target_users {
            return Err(RsdError::data(
                "selection exhausted the eligible pool".to_string(),
            ));
        }
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, CorpusGenerator};

    /// Total posts contributed by a selection.
    fn selected_post_total(users: &[RawUser], picked: &[UserId]) -> usize {
        let mut total = 0;
        for id in picked {
            if let Some(u) = users.iter().find(|u| u.id == *id) {
                total += u.post_count();
            }
        }
        total
    }

    fn users_with_counts(counts: &[usize]) -> Vec<RawUser> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| RawUser {
                id: UserId(i as u32),
                post_ids: (0..c as u32).map(crate::types::PostId).collect(),
            })
            .collect()
    }

    #[test]
    fn rejects_insufficient_pool() {
        let users = users_with_counts(&[1, 1, 5, 5]);
        let cfg = SelectionConfig {
            seed: 1,
            target_users: 3,
            target_posts: 30,
            min_posts: 2,
        };
        assert!(select_users_for_annotation(&users, &cfg).is_err());
    }

    #[test]
    fn respects_min_posts() {
        let users = users_with_counts(&[1, 3, 4, 5, 6, 1]);
        let cfg = SelectionConfig {
            seed: 1,
            target_users: 4,
            target_posts: 18,
            min_posts: 2,
        };
        let picked = select_users_for_annotation(&users, &cfg).unwrap();
        assert_eq!(picked.len(), 4);
        assert!(!picked.contains(&UserId(0)));
        assert!(!picked.contains(&UserId(5)));
    }

    #[test]
    fn hits_target_totals_on_generated_pool() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(9, 8_000))
            .unwrap()
            .generate();
        let cfg = SelectionConfig::scaled(9, 120);
        let picked = select_users_for_annotation(&corpus.users, &cfg).unwrap();
        assert_eq!(picked.len(), 120);
        let total = selected_post_total(&corpus.users, &picked);
        let target = cfg.target_posts as f64;
        assert!(
            (total as f64 - target).abs() / target < 0.10,
            "post total {total} should land within 10% of {target}"
        );
    }

    #[test]
    fn no_duplicate_users() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(10, 5_000))
            .unwrap()
            .generate();
        let cfg = SelectionConfig::scaled(10, 80);
        let picked = select_users_for_annotation(&corpus.users, &cfg).unwrap();
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), picked.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(11, 5_000))
            .unwrap()
            .generate();
        let cfg = SelectionConfig::scaled(11, 60);
        let a = select_users_for_annotation(&corpus.users, &cfg).unwrap();
        let b = select_users_for_annotation(&corpus.users, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn selected_users_more_active_than_pool() {
        let corpus = CorpusGenerator::new(CorpusConfig::small(12, 8_000))
            .unwrap()
            .generate();
        let cfg = SelectionConfig::scaled(12, 100);
        let picked = select_users_for_annotation(&corpus.users, &cfg).unwrap();
        let pool_mean = corpus.posts.len() as f64 / corpus.users.len() as f64;
        let sel_mean = selected_post_total(&corpus.users, &picked) as f64 / picked.len() as f64;
        assert!(
            sel_mean > pool_mean * 2.0,
            "selection must favour active users (pool {pool_mean:.2}, selected {sel_mean:.2})"
        );
    }
}
