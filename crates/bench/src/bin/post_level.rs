//! Post-level risk classification (extension).
//!
//! Table II lists RSD-15K as annotated at both Post and User granularity;
//! the paper benchmarks only the user-level task. This binary evaluates
//! the feature-based model at *post* granularity: every post of every test
//! user is an instance (with its preceding-window context), so the metric
//! covers whole timelines rather than final states.

use rsd_bench::Prepared;
use rsd_corpus::RiskLevel;
use rsd_dataset::splits::post_level_windows;
use rsd_eval::{ClassificationReport, ConfusionMatrix};
use rsd_features::FeatureExtractor;
use rsd_gbdt::{BinnedMatrix, Booster, BoosterConfig};

fn main() {
    let prepared = Prepared::from_env();
    let dataset = &prepared.dataset;
    let splits = &prepared.splits;

    // Train on post-level windows of training users.
    let expand = |windows: &[rsd_dataset::UserWindow], cap: usize| {
        let mut out = Vec::new();
        for w in windows {
            let user = dataset.user(w.user).expect("user");
            out.extend(post_level_windows(dataset, user, splits.config.window, cap));
        }
        out
    };
    let train_windows = expand(&splits.train, 8);
    let test_windows = expand(&splits.test, usize::MAX);

    let extractor = FeatureExtractor::fit(dataset, &train_windows, 300).expect("fit");
    let x_train = extractor.transform_all(dataset, &train_windows);
    let y_train: Vec<usize> = train_windows.iter().map(|w| w.label.index()).collect();
    let x_test = extractor.transform_all(dataset, &test_windows);
    let y_test: Vec<usize> = test_windows.iter().map(|w| w.label.index()).collect();

    let matrix = BinnedMatrix::fit(x_train, 64).expect("bin");
    let test = matrix.transform(x_test).expect("transform");
    let booster = Booster::fit(
        &matrix,
        &y_train,
        None,
        BoosterConfig {
            n_classes: RiskLevel::COUNT,
            n_rounds: 80,
            early_stopping: 0,
            seed: prepared.seed,
            ..Default::default()
        },
    )
    .expect("fit booster");

    let preds = booster.predict(&test);
    let confusion = ConfusionMatrix::from_labels(RiskLevel::COUNT, &y_test, &preds).expect("cm");
    let names: Vec<&str> = RiskLevel::ALL.iter().map(|l| l.name()).collect();
    let report = ClassificationReport::from_confusion("XGBoost(post)", &names, &confusion);

    println!(
        "Post-level risk classification (scale {:?}, seed {}): {} training posts, {} test posts",
        prepared.scale,
        prepared.seed,
        train_windows.len(),
        test_windows.len()
    );
    print!("{report}");
}
