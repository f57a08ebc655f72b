//! Risk monitor: a downstream-application sketch (paper §V suggests
//! "mental health testing, clinical psychiatric auxiliary treatment").
//!
//! Trains the XGBoost baseline, then streams one held-out user's timeline
//! post by post, re-scoring the risk level after each post and flagging
//! escalations — the early-warning pattern a deployment would use.
//!
//! Run: `cargo run --release --example risk_monitor`

use rsd15k::dataset::splits::post_level_windows;
use rsd15k::features::FeatureExtractor;
use rsd15k::gbdt::{BinnedMatrix, Booster, BoosterConfig};
use rsd15k::prelude::*;

fn main() -> Result<()> {
    let seed = 13;
    let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(seed, 4_000, 80)).build()?;
    let splits = DatasetSplits::new(
        &dataset,
        SplitConfig {
            seed,
            ..Default::default()
        },
    )?;

    // Train on post-level windows of training users.
    let mut train_windows = Vec::new();
    for w in &splits.train {
        let user = dataset.user(w.user).expect("user");
        train_windows.extend(post_level_windows(&dataset, user, 5, 8));
    }
    let extractor = FeatureExtractor::fit(&dataset, &train_windows, 200)?;
    let x: Vec<Vec<f32>> = extractor.transform_all(&dataset, &train_windows);
    let y: Vec<usize> = train_windows.iter().map(|w| w.label.index()).collect();
    let matrix = BinnedMatrix::fit(x, 64)?;
    let booster = Booster::fit(
        &matrix,
        &y,
        None,
        BoosterConfig {
            n_classes: 4,
            n_rounds: 60,
            early_stopping: 0,
            seed,
            ..Default::default()
        },
    )?;

    // Monitor the most active test user.
    let test_user = splits
        .test
        .iter()
        .max_by_key(|w| dataset.user(w.user).map_or(0, |u| u.post_indices.len()))
        .expect("non-empty test split");
    let user = dataset.user(test_user.user).expect("user");
    println!(
        "monitoring user {} ({} posts):\n",
        user.id,
        user.post_indices.len()
    );

    let mut prev_level: Option<RiskLevel> = None;
    for window in post_level_windows(&dataset, user, 5, usize::MAX) {
        let features = extractor.transform(&dataset, &window);
        let probs = booster.predict_proba_row(&features);
        let pred_idx = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let pred = RiskLevel::from_index(pred_idx)?;
        let &last_post = window.post_indices.last().unwrap();
        let t = dataset.posts[last_post].created;
        let escalated = prev_level.is_some_and(|p| pred > p);
        println!(
            "  {t}  predicted {:<9}  p={:.2}  truth {:<9} {}",
            pred.name(),
            probs[pred_idx],
            window.label.name(),
            if escalated {
                "<-- ESCALATION ALERT"
            } else {
                ""
            }
        );
        prev_level = Some(pred);
    }
    Ok(())
}
