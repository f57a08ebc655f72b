//! User-disjoint splits and the benchmark's windowed task extraction.
//!
//! The paper (§III): "we randomly divide all users into training set (80 %),
//! validation set (10 %), and test set (10 %) to ensure that the users from
//! the training set and test set are entirely disjoint to prevent data
//! leakage risks", and "we mainly focus on the analysis of user sequential
//! posts within a specific time window (... the stable version has 5 window
//! elements)". [`UserWindow`] is that task instance: a user's last `W`
//! posts, their timestamps, and the user-level label (latest post's level).

use serde::{Deserialize, Serialize};

use crate::record::{Rsd15k, UserRecord};
use crate::window_store::WindowBuffer;
use rsd_common::rng::{shuffle, stream_rng};
use rsd_common::{Result, RsdError, Timestamp};
use rsd_corpus::{RiskLevel, UserId};

/// Split proportions and seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitConfig {
    /// Seed for the user shuffle.
    pub seed: u64,
    /// Train fraction (paper: 0.8).
    pub train: f64,
    /// Validation fraction (paper: 0.1); the remainder is test.
    pub valid: f64,
    /// Sequential window size (paper's stable version: 5).
    pub window: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            seed: 0,
            train: 0.8,
            valid: 0.1,
            window: 5,
        }
    }
}

/// One task instance: a user's recent posting window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserWindow {
    /// The user.
    pub user: UserId,
    /// Indices into `Rsd15k::posts` of the last `≤ window` posts,
    /// chronological.
    pub post_indices: Vec<usize>,
    /// Timestamps of those posts.
    pub timestamps: Vec<Timestamp>,
    /// The user-level label: risk level of the latest post.
    pub label: RiskLevel,
}

/// A user-disjoint train/valid/test partition of windowed task instances.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSplits {
    /// Training instances.
    pub train: Vec<UserWindow>,
    /// Validation instances.
    pub valid: Vec<UserWindow>,
    /// Test instances.
    pub test: Vec<UserWindow>,
    /// The configuration that produced the split.
    pub config: SplitConfig,
}

impl DatasetSplits {
    /// Create splits from a dataset.
    pub fn new(dataset: &Rsd15k, cfg: SplitConfig) -> Result<Self> {
        if !(0.0..1.0).contains(&cfg.train) || !(0.0..1.0).contains(&cfg.valid) {
            return Err(RsdError::config(
                "train/valid",
                "fractions must be in [0,1)",
            ));
        }
        if cfg.train + cfg.valid >= 1.0 {
            return Err(RsdError::config(
                "train+valid",
                "must leave room for the test set",
            ));
        }
        if cfg.window == 0 {
            return Err(RsdError::config("window", "must be positive"));
        }
        if dataset.n_users() < 3 {
            return Err(RsdError::data("need at least 3 users to split"));
        }

        let mut order: Vec<usize> = (0..dataset.n_users()).collect();
        let mut rng = stream_rng(cfg.seed, "splits.users");
        shuffle(&mut rng, &mut order);

        let n = order.len();
        let n_train = ((n as f64) * cfg.train).round() as usize;
        let n_valid = ((n as f64) * cfg.valid).round() as usize;
        let n_train = n_train.clamp(1, n - 2);
        let n_valid = n_valid.clamp(1, n - n_train - 1);

        let window_of = |uidx: usize| -> UserWindow {
            extract_window(dataset, &dataset.users[uidx], cfg.window)
        };

        Ok(DatasetSplits {
            train: order[..n_train].iter().map(|&u| window_of(u)).collect(),
            valid: order[n_train..n_train + n_valid]
                .iter()
                .map(|&u| window_of(u))
                .collect(),
            test: order[n_train + n_valid..]
                .iter()
                .map(|&u| window_of(u))
                .collect(),
            config: cfg,
        })
    }

    /// Total instances across splits.
    pub fn total(&self) -> usize {
        self.train.len() + self.valid.len() + self.test.len()
    }

    /// Check user-disjointness (used by property tests).
    pub fn is_user_disjoint(&self) -> bool {
        use std::collections::HashSet;
        let ids = |ws: &[UserWindow]| ws.iter().map(|w| w.user).collect::<HashSet<_>>();
        let (tr, va, te) = (ids(&self.train), ids(&self.valid), ids(&self.test));
        tr.is_disjoint(&va) && tr.is_disjoint(&te) && va.is_disjoint(&te)
    }
}

/// Post-level task instances: one window *per post* of the user, each
/// ending at (and labelled by) that post with up to `window − 1` posts of
/// preceding context. `max_per_user` caps the expansion at the user's most
/// recent posts (training-budget control).
///
/// This is the post-level view the dataset's dual annotation granularity
/// supports ("Risk Level: Post, User" in Table II); the benchmark's neural
/// baselines train on it and are *evaluated* on the user-level instance.
pub fn post_level_windows(
    dataset: &Rsd15k,
    user: &UserRecord,
    window: usize,
    max_per_user: usize,
) -> Vec<UserWindow> {
    let n = user.post_indices.len();
    let first = n.saturating_sub(max_per_user.max(1));
    (first..n)
        .map(|end| {
            let start = (end + 1).saturating_sub(window);
            let post_indices: Vec<usize> = user.post_indices[start..=end].to_vec();
            let timestamps: Vec<Timestamp> = post_indices
                .iter()
                .map(|&i| dataset.posts[i].created)
                .collect();
            let label = dataset.posts[user.post_indices[end]].label;
            UserWindow {
                user: user.id,
                post_indices,
                timestamps,
                label,
            }
        })
        .collect()
}

/// User-disjoint k-fold cross-validation: fold `i` holds every user whose
/// shuffled position is ≡ i (mod k) as its test set, with the remainder as
/// training. Complements the paper's fixed 80/10/10 split for studies that
/// need variance estimates.
pub fn kfold(
    dataset: &Rsd15k,
    k: usize,
    window: usize,
    seed: u64,
) -> Result<Vec<(Vec<UserWindow>, Vec<UserWindow>)>> {
    if k < 2 {
        return Err(RsdError::config("k", "need at least 2 folds"));
    }
    if dataset.n_users() < k {
        return Err(RsdError::data(format!(
            "cannot split {} users into {k} folds",
            dataset.n_users()
        )));
    }
    let mut order: Vec<usize> = (0..dataset.n_users()).collect();
    let mut rng = stream_rng(seed, "splits.kfold");
    shuffle(&mut rng, &mut order);

    let mut folds = Vec::with_capacity(k);
    for fold in 0..k {
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (pos, &uidx) in order.iter().enumerate() {
            let w = extract_window(dataset, &dataset.users[uidx], window);
            if pos % k == fold {
                test.push(w);
            } else {
                train.push(w);
            }
        }
        folds.push((train, test));
    }
    Ok(folds)
}

/// Chronological (leakage-free) partition: users whose *final* post falls
/// at or before `cutoff` form the training side; users whose final post is
/// later form the evaluation side. No training label postdates any test
/// context — the "partitioned according to temporal constraints" setting
/// the paper's preprocessing describes for time-series analyses.
pub fn temporal_partition(
    dataset: &Rsd15k,
    cutoff: Timestamp,
    window: usize,
) -> Result<(Vec<UserWindow>, Vec<UserWindow>)> {
    if window == 0 {
        return Err(RsdError::config("window", "must be positive"));
    }
    let mut early = Vec::new();
    let mut late = Vec::new();
    for user in &dataset.users {
        let w = extract_window(dataset, user, window);
        let last = *w.timestamps.last().expect("non-empty window");
        if last <= cutoff {
            early.push(w);
        } else {
            late.push(w);
        }
    }
    if early.is_empty() || late.is_empty() {
        return Err(RsdError::data(format!(
            "cutoff {cutoff} leaves an empty side ({} early / {} late)",
            early.len(),
            late.len()
        )));
    }
    Ok((early, late))
}

/// The timestamp below which `frac` of users' final posts fall — a handy
/// way to pick a [`temporal_partition`] cutoff.
pub fn final_post_quantile(dataset: &Rsd15k, frac: f64) -> Timestamp {
    let mut finals: Vec<i64> = dataset
        .users
        .iter()
        .filter_map(|u| u.post_indices.last().map(|&i| dataset.posts[i].created.0))
        .collect();
    finals.sort_unstable();
    if finals.is_empty() {
        return Timestamp(0);
    }
    let idx = (((finals.len() - 1) as f64) * frac.clamp(0.0, 1.0)).round() as usize;
    Timestamp(finals[idx])
}

/// Extract the last `window` posts of a user as a task instance.
///
/// Selection runs through the shared [`WindowBuffer`] — the same
/// incremental top-`W` by `(created, post id)` state the online serving
/// path keys its per-user store on — so the batch benchmark and the
/// service cannot drift. Because the builder sorts each timeline by
/// exactly that key, the buffer's retained set equals the timeline's
/// tail slice byte-for-byte.
pub fn extract_window(dataset: &Rsd15k, user: &UserRecord, window: usize) -> UserWindow {
    let mut buf: WindowBuffer<usize> = WindowBuffer::new(window);
    for &i in &user.post_indices {
        let post = &dataset.posts[i];
        buf.observe(post.created, post.id.0, i);
    }
    window_from_buffer(dataset, user.id, &buf)
}

/// Materialize a [`UserWindow`] from a user's trailing-window buffer
/// (payload = post index). Shared by [`extract_window`] and by tests
/// that rebuild windows from the serving-side store.
pub(crate) fn window_from_buffer(
    dataset: &Rsd15k,
    user: UserId,
    buf: &WindowBuffer<usize>,
) -> UserWindow {
    let post_indices: Vec<usize> = buf.entries().iter().map(|e| e.payload).collect();
    let timestamps: Vec<Timestamp> = buf.timestamps();
    let label = dataset.posts[*post_indices.last().expect("validated: non-empty")].label;
    UserWindow {
        user,
        post_indices,
        timestamps,
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::tiny;
    use crate::{BuildConfig, DatasetBuilder};

    fn built() -> Rsd15k {
        DatasetBuilder::new(BuildConfig::scaled(201, 3_000, 50))
            .build()
            .unwrap()
            .0
    }

    #[test]
    fn proportions_respected() {
        let d = built();
        let s = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        assert_eq!(s.total(), d.n_users());
        let frac = s.train.len() as f64 / s.total() as f64;
        assert!((frac - 0.8).abs() < 0.05, "train fraction {frac}");
        assert!(!s.valid.is_empty());
        assert!(!s.test.is_empty());
    }

    #[test]
    fn user_disjointness_holds() {
        let d = built();
        let s = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        assert!(s.is_user_disjoint());
    }

    #[test]
    fn windows_bounded_and_chronological() {
        let d = built();
        let s = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        for w in s.train.iter().chain(&s.valid).chain(&s.test) {
            assert!(!w.post_indices.is_empty());
            assert!(w.post_indices.len() <= 5);
            for pair in w.timestamps.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
        }
    }

    #[test]
    fn label_matches_latest_post() {
        let d = tiny();
        let w = extract_window(&d, &d.users[0], 5);
        let latest = *d.users[0].post_indices.last().unwrap();
        assert_eq!(w.label, d.posts[latest].label);
        assert_eq!(w.post_indices.len(), 3);
        let w1 = extract_window(&d, &d.users[0], 2);
        assert_eq!(w1.post_indices.len(), 2);
        assert_eq!(w1.label, w.label, "truncation keeps the latest post");
    }

    #[test]
    fn post_level_windows_cover_every_post() {
        let d = tiny();
        let ws = post_level_windows(&d, &d.users[0], 5, 100);
        assert_eq!(ws.len(), 3);
        // Each window ends at, and is labelled by, its own post.
        for (k, w) in ws.iter().enumerate() {
            assert_eq!(*w.post_indices.last().unwrap(), d.users[0].post_indices[k]);
            assert_eq!(
                w.label, d.posts[d.users[0].post_indices[k]].label,
                "window {k} label"
            );
            assert!(w.post_indices.len() <= 5);
        }
        // Context grows with position.
        assert_eq!(ws[0].post_indices.len(), 1);
        assert_eq!(ws[2].post_indices.len(), 3);
        // The final window equals the user-level instance.
        assert_eq!(ws[2], extract_window(&d, &d.users[0], 5));
    }

    #[test]
    fn post_level_windows_respect_cap() {
        let d = tiny();
        let ws = post_level_windows(&d, &d.users[0], 5, 2);
        assert_eq!(ws.len(), 2);
        assert_eq!(
            *ws.last().unwrap(),
            extract_window(&d, &d.users[0], 5),
            "cap keeps the most recent posts"
        );
    }

    #[test]
    fn bad_configs_rejected() {
        let d = tiny();
        let cfg = SplitConfig {
            train: 0.95,
            valid: 0.1,
            ..Default::default()
        };
        assert!(DatasetSplits::new(&d, cfg).is_err());
        let cfg = SplitConfig {
            window: 0,
            ..Default::default()
        };
        assert!(DatasetSplits::new(&d, cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = built();
        let a = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        let b = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        assert_eq!(a.train, b.train);
        let cfg = SplitConfig {
            seed: 99,
            ..Default::default()
        };
        let c = DatasetSplits::new(&d, cfg).unwrap();
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn temporal_partition_is_chronologically_sound() {
        let d = built();
        let cutoff = final_post_quantile(&d, 0.7);
        let (early, late) = temporal_partition(&d, cutoff, 5).unwrap();
        assert_eq!(early.len() + late.len(), d.n_users());
        assert!(!early.is_empty() && !late.is_empty());
        // Every early user's final post precedes every late user's final
        // post boundary: specifically, early finals <= cutoff < late finals.
        for w in &early {
            assert!(*w.timestamps.last().unwrap() <= cutoff);
        }
        for w in &late {
            assert!(*w.timestamps.last().unwrap() > cutoff);
        }
        // Roughly 70% early.
        let frac = early.len() as f64 / d.n_users() as f64;
        assert!((frac - 0.7).abs() < 0.1, "early fraction {frac}");
    }

    #[test]
    fn temporal_partition_rejects_degenerate_cutoffs() {
        let d = built();
        assert!(temporal_partition(&d, Timestamp(i64::MIN), 5).is_err());
        assert!(temporal_partition(&d, Timestamp(i64::MAX), 5).is_err());
        assert!(temporal_partition(&d, final_post_quantile(&d, 0.5), 0).is_err());
    }

    #[test]
    fn kfold_partitions_users_exactly_once() {
        let d = built();
        let folds = kfold(&d, 5, 5, 99).unwrap();
        assert_eq!(folds.len(), 5);
        use std::collections::HashSet;
        let mut seen: HashSet<rsd_corpus::UserId> = HashSet::new();
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), d.n_users());
            let train_ids: HashSet<_> = train.iter().map(|w| w.user).collect();
            for w in test {
                assert!(!train_ids.contains(&w.user), "fold leakage");
                assert!(seen.insert(w.user), "user tested twice across folds");
            }
        }
        assert_eq!(seen.len(), d.n_users(), "every user tested exactly once");
    }

    #[test]
    fn kfold_validation() {
        let d = built();
        assert!(kfold(&d, 1, 5, 0).is_err());
        assert!(kfold(&d, d.n_users() + 1, 5, 0).is_err());
    }

    #[test]
    fn too_few_users_rejected() {
        let mut d = tiny();
        d.users.pop();
        d.posts.truncate(3);
        // (fixture now invalid as a dataset, but splits only look at users)
        assert!(DatasetSplits::new(&d, SplitConfig::default()).is_err());
    }
}
