//! The Table IV data-scale study.
//!
//! "In the small-scale dataset experiment, we used the DeBERTa-Large model
//! to train on 500 annotated data, and adopted techniques such as
//! hyperparameter optimization, data balance sampling, and model
//! adjustment ... In contrast, on the large-scale dataset ... even using
//! the DeBERTa-Base model with fewer parameters and without any
//! hyperparameter adjustment or data balancing, it still achieved ..."
//!
//! [`run_scale_study`] reproduces both arms on one built dataset: a
//! 500-user (paper: the prior work's 500-user scale) subsample with the
//! Large configuration and full optimization, versus the full dataset with
//! the Base configuration and defaults.

use serde::{Deserialize, Serialize};

use crate::plm::{PlmBaseline, PlmConfig};
use crate::trainer::BenchData;
use rsd_common::rng::{shuffle, stream_rng};
use rsd_common::{Result, RsdError};
use rsd_corpus::RiskLevel;
use rsd_dataset::{DatasetSplits, Rsd15k, SplitConfig};

/// One row of Table IV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Data arm label ("500" / "15K").
    pub data: String,
    /// Model arm label ("Large" / "Base").
    pub model: String,
    /// Whether full optimization (tuning + balancing) was applied.
    pub optimized: bool,
    /// Per-class F1, ordered IN / ID / BR / AT.
    pub class_f1: [f64; 4],
    /// Macro F1.
    pub macro_f1: f64,
    /// Accuracy.
    pub accuracy: f64,
    /// Scalar parameter count of the trained model.
    pub params: usize,
}

/// Subsample a dataset to `n_users` (complete timelines kept).
pub(crate) fn subsample_users(dataset: &Rsd15k, n_users: usize, seed: u64) -> Result<Rsd15k> {
    if n_users == 0 || n_users > dataset.n_users() {
        return Err(RsdError::config(
            "n_users",
            format!("must be in 1..={}", dataset.n_users()),
        ));
    }
    let mut order: Vec<usize> = (0..dataset.n_users()).collect();
    let mut rng = stream_rng(seed, "scale.subsample");
    shuffle(&mut rng, &mut order);
    order.truncate(n_users);
    order.sort_unstable();

    let mut posts = Vec::new();
    let mut users = Vec::new();
    for (new_uid, &uidx) in order.iter().enumerate() {
        let user = &dataset.users[uidx];
        let mut indices = Vec::with_capacity(user.post_indices.len());
        for &pidx in &user.post_indices {
            let mut post = dataset.posts[pidx].clone();
            post.id = rsd_corpus::PostId(posts.len() as u32);
            post.user = rsd_corpus::UserId(new_uid as u32);
            indices.push(posts.len());
            posts.push(post);
        }
        users.push(rsd_dataset::UserRecord {
            id: rsd_corpus::UserId(new_uid as u32),
            post_indices: indices,
        });
    }
    let sub = Rsd15k {
        posts,
        users,
        seed: dataset.seed,
    };
    sub.validate()?;
    Ok(sub)
}

/// Run both arms of Table IV. `small_users` is the small arm's user count
/// (paper: 500); configs may be overridden for scaled-down runs.
pub fn run_scale_study(
    dataset: &Rsd15k,
    unlabeled: &[String],
    small_users: usize,
    large_cfg: PlmConfig,
    base_cfg: PlmConfig,
    seed: u64,
) -> Result<Vec<ScaleRow>> {
    // Arm 1: small data, Large model, full optimization.
    let small = subsample_users(dataset, small_users.min(dataset.n_users()), seed)?;
    let small_splits = DatasetSplits::new(
        &small,
        SplitConfig {
            seed,
            ..Default::default()
        },
    )?;
    let small_data = BenchData {
        dataset: &small,
        splits: &small_splits,
        unlabeled,
        seed,
    };
    let large_outcome = PlmBaseline::new(large_cfg).run(&small_data)?;

    // Arm 2: full data, Base model, no optimization.
    let full_splits = DatasetSplits::new(
        dataset,
        SplitConfig {
            seed,
            ..Default::default()
        },
    )?;
    let full_data = BenchData {
        dataset,
        splits: &full_splits,
        unlabeled,
        seed,
    };
    let base_outcome = PlmBaseline::new(base_cfg).run(&full_data)?;

    let row = |label: &str, model: &str, optimized: bool, outcome: &crate::trainer::EvalOutcome| {
        let f1 = |l: RiskLevel| outcome.report.class_f1[l.index()];
        ScaleRow {
            data: label.to_string(),
            model: model.to_string(),
            optimized,
            class_f1: [
                f1(RiskLevel::Indicator),
                f1(RiskLevel::Ideation),
                f1(RiskLevel::Behavior),
                f1(RiskLevel::Attempt),
            ],
            macro_f1: outcome.report.macro_f1,
            accuracy: outcome.report.accuracy,
            params: outcome
                .extra
                .iter()
                .find(|(k, _)| k == "params")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0),
        }
    };

    Ok(vec![
        row(&small_users.to_string(), "Large", true, &large_outcome),
        row("full", "Base", false, &base_outcome),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_dataset::{BuildConfig, DatasetBuilder};

    #[test]
    fn subsample_preserves_structure() {
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(901, 1_500, 30))
            .build()
            .unwrap();
        let sub = subsample_users(&d, 10, 901).unwrap();
        assert_eq!(sub.n_users(), 10);
        sub.validate().unwrap();
        assert!(sub.n_posts() < d.n_posts());
        assert!(subsample_users(&d, 0, 1).is_err());
        assert!(subsample_users(&d, 999, 1).is_err());
    }

    #[test]
    fn subsample_is_deterministic() {
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(902, 1_500, 30))
            .build()
            .unwrap();
        let a = subsample_users(&d, 12, 7).unwrap();
        let b = subsample_users(&d, 12, 7).unwrap();
        assert_eq!(a, b);
        let c = subsample_users(&d, 12, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn scale_study_produces_two_rows() {
        use crate::plm::PlmKind;
        use crate::pretrain::PretrainConfig;
        use crate::trainer::TrainConfig;
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(903, 1_500, 30))
            .build()
            .unwrap();
        let tiny = |balanced: bool| PlmConfig {
            kind: PlmKind::Deberta,
            max_vocab: 200,
            max_tokens: 8,
            window_tokens: 12,
            dim: 8,
            layers: 1,
            heads: 2,
            ffn_dim: 16,
            dropout: 0.0,
            radius: 4,
            pretrain_texts: 0,
            temporal_fusion: true,
            pretrain: PretrainConfig::default(),
            train: TrainConfig {
                epochs: 1,
                batch: 8,
                patience: 0,
                balanced,
                ..Default::default()
            },
        };
        let rows = run_scale_study(&d, &[], 15, tiny(true), tiny(false), 903).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].model, "Large");
        assert!(rows[0].optimized);
        assert_eq!(rows[1].data, "full");
        assert!(!rows[1].optimized);
    }
}
