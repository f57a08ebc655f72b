//! Shared supervised training loop for the neural baselines.
//!
//! Single-example tapes with minibatch gradient accumulation, Adam,
//! global-norm clipping, optional class-balanced oversampling (Table IV's
//! "data balance sampling"), and early stopping on validation macro-F1
//! with best-weights restore.

use rand::rngs::StdRng;
use rand::Rng;

use crate::encoding::EncodedWindow;
use rsd_common::rng::{shuffle, stream_rng, weighted_index};
use rsd_common::{Result, RsdError};
use rsd_corpus::RiskLevel;
use rsd_dataset::{DatasetSplits, Rsd15k};
use rsd_eval::{ClassificationReport, ConfusionMatrix};
use rsd_nn::loss::argmax_rows;
use rsd_nn::{Adam, ParamStore, Tape, Var};

/// Everything a baseline needs to train and report.
pub struct BenchData<'a> {
    /// The annotated dataset.
    pub dataset: &'a Rsd15k,
    /// User-disjoint splits with windowed instances.
    pub splits: &'a DatasetSplits,
    /// Cleaned unlabelled texts (the non-annotated pool) for pretraining.
    pub unlabeled: &'a [String],
    /// Seed for all model-side randomness.
    pub seed: u64,
}

/// Result of one baseline run.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Table III-style report (accuracy, macro-F1, per-class F1).
    pub report: ClassificationReport,
    /// The raw confusion matrix on the test split.
    pub confusion: ConfusionMatrix,
    /// Free-form extras (feature importance, rounds, pretrain loss, ...).
    pub extra: Vec<(String, String)>,
}

/// Supervised-loop hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Minibatch size (gradient accumulation count).
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip.
    pub clip: f32,
    /// Early-stopping patience in epochs (0 disables).
    pub patience: usize,
    /// Oversample minority classes to balance training batches.
    pub balanced: bool,
    /// Expand training users into post-level windows (each post labelled,
    /// up to this many most-recent posts per user; 0 keeps only the
    /// user-level instance). The dataset is annotated at both post and
    /// user granularity, so this is extra *labelled* supervision, not
    /// leakage — validation/test stay strictly user-level.
    pub post_level_cap: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch: 16,
            lr: 1e-3,
            clip: 5.0,
            patience: 3,
            balanced: false,
            post_level_cap: 6,
        }
    }
}

/// Expand user-level training windows into post-level windows (see
/// [`TrainConfig::post_level_cap`]). With `cap == 0` the input is returned
/// unchanged.
pub fn augment_train_windows(
    dataset: &Rsd15k,
    train: &[rsd_dataset::UserWindow],
    window: usize,
    cap: usize,
) -> Vec<rsd_dataset::UserWindow> {
    if cap == 0 {
        return train.to_vec();
    }
    let mut out = Vec::new();
    for w in train {
        if let Some(user) = dataset.user(w.user) {
            out.extend(rsd_dataset::splits::post_level_windows(
                dataset, user, window, cap,
            ));
        } else {
            out.push(w.clone());
        }
    }
    out
}

/// A forward-pass builder: constructs the per-example graph and returns
/// 1×C logits. `Sync` because batches fan out across the `rsd-par` pool;
/// each invocation gets its own tape and its own derived RNG.
pub type ForwardFn<'m> =
    dyn Fn(&mut Tape, &ParamStore, &EncodedWindow, &mut StdRng) -> Var + Sync + 'm;

/// Train a classifier with early stopping; the store is left holding the
/// best-validation weights. Returns per-epoch validation macro-F1.
pub fn train_classifier(
    store: &mut ParamStore,
    forward: &ForwardFn<'_>,
    train: &[EncodedWindow],
    valid: &[EncodedWindow],
    cfg: &TrainConfig,
    seed: u64,
) -> Result<Vec<f64>> {
    if train.is_empty() {
        return Err(RsdError::data("train_classifier: empty training set"));
    }
    let mut rng = stream_rng(seed, "trainer.loop");
    let mut opt = Adam::new(cfg.lr);
    let mut history = Vec::new();
    let mut best_f1 = f64::NEG_INFINITY;
    let mut best_store: Option<ParamStore> = None;
    let mut since_best = 0usize;

    // Class weights for balanced oversampling.
    let class_weights: Vec<f64> = if cfg.balanced {
        let labels: Vec<usize> = train.iter().map(|e| e.label).collect();
        rsd_nn::loss::inverse_frequency_weights(&labels, RiskLevel::COUNT)
    } else {
        Vec::new()
    };

    let _train_span = rsd_obs::Span::enter("models.train");
    rsd_obs::stage_register("models.train");
    for epoch in 0..cfg.epochs {
        let _epoch_span = rsd_obs::Span::enter("models.train.epoch");
        // Epoch ordering.
        let order: Vec<usize> = if cfg.balanced {
            let weights: Vec<f64> = train.iter().map(|e| class_weights[e.label]).collect();
            (0..train.len())
                .map(|_| weighted_index(&mut rng, &weights))
                .collect()
        } else {
            let mut idx: Vec<usize> = (0..train.len()).collect();
            shuffle(&mut rng, &mut idx);
            idx
        };

        // Per-batch parallel forward/backward: each example runs on its
        // own tape with an RNG derived from (epoch seed, position), so
        // results don't depend on thread count. Gradients are then
        // harvested in parallel across parameters; each parameter sums
        // its tapes in batch order, then its leaves in node order, before
        // the optimizer step.
        let mut loss_sum = 0.0f64;
        let telemetry = rsd_obs::enabled();
        let epoch_seed = rng.gen::<u64>();
        let mut done = 0usize;
        for batch in order.chunks(cfg.batch.max(1)) {
            let batch_t0 = std::time::Instant::now();
            let mut results: Vec<Option<(Tape, f32)>> = (0..batch.len()).map(|_| None).collect();
            let store_ref: &ParamStore = store;
            let base = done;
            rsd_par::parallel_chunks_mut(&mut results, 1, |start, slot| {
                let example = &train[batch[start]];
                let mut ex_rng = stream_rng(epoch_seed, &format!("trainer.ex.{}", base + start));
                let mut tape = Tape::new();
                let logits = forward(&mut tape, store_ref, example, &mut ex_rng);
                let loss = tape.cross_entropy(logits, &[example.label]);
                let loss_value = tape.value(loss).data[0];
                tape.backward(loss);
                slot[0] = Some((tape, loss_value));
            });
            done += batch.len();
            let tapes: Vec<Tape> = results
                .into_iter()
                .map(|r| {
                    let (tape, loss_value) = r.expect("forward ran");
                    if telemetry {
                        loss_sum += f64::from(loss_value);
                    }
                    tape
                })
                .collect();
            store.accumulate_all(tapes.iter().flat_map(Tape::param_grads));
            store.scale_grads(1.0 / batch.len() as f32);
            store.clip_grad_norm(cfg.clip);
            opt.step(store);
            rsd_obs::latency_ns("models.train.batch", batch_t0.elapsed().as_nanos() as u64);
            rsd_obs::stage_progress("models.train", batch.len() as u64, 0);
        }

        // Validation macro-F1.
        let (f1, accuracy) = if valid.is_empty() {
            (0.0, 0.0)
        } else {
            let _eval_span = rsd_obs::Span::enter("models.train.eval");
            let confusion = evaluate(store, forward, valid, &mut rng)?;
            (confusion.macro_f1(), confusion.accuracy())
        };
        history.push(f1);

        if telemetry {
            rsd_nn::tape::publish_op_times();
            let tag = [("epoch", rsd_obs::Value::Int(epoch as i128))];
            rsd_obs::gauge_tagged("models.train.loss", loss_sum / order.len() as f64, &tag);
            rsd_obs::gauge_tagged("models.train.accuracy", accuracy, &tag);
        }

        if f1 > best_f1 + 1e-9 {
            best_f1 = f1;
            best_store = Some(store.clone());
            since_best = 0;
        } else {
            since_best += 1;
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
        }
    }
    rsd_obs::stage_finish("models.train");
    if let Some(best) = best_store {
        *store = best;
    }
    Ok(history)
}

/// Evaluate a forward function on a set, returning the confusion matrix.
pub fn evaluate(
    store: &ParamStore,
    forward: &ForwardFn<'_>,
    examples: &[EncodedWindow],
    rng: &mut StdRng,
) -> Result<ConfusionMatrix> {
    // Row-parallel inference with per-example derived RNGs (inference
    // forwards rarely draw from them, but dropout-style ops may); the
    // confusion matrix is filled serially in example order.
    let eval_seed = rng.gen::<u64>();
    let mut preds = vec![0usize; examples.len()];
    rsd_par::parallel_chunks_mut(&mut preds, 16, |start, chunk| {
        for (off, pred) in chunk.iter_mut().enumerate() {
            let j = start + off;
            let mut ex_rng = stream_rng(eval_seed, &format!("trainer.eval.{j}"));
            let mut tape = Tape::inference();
            let logits = forward(&mut tape, store, &examples[j], &mut ex_rng);
            *pred = argmax_rows(tape.value(logits))[0];
        }
    });
    let mut confusion = ConfusionMatrix::new(RiskLevel::COUNT);
    for (example, &pred) in examples.iter().zip(&preds) {
        confusion.record(example.label, pred)?;
    }
    Ok(confusion)
}

/// Assemble an [`EvalOutcome`] from a test confusion matrix.
pub(crate) fn outcome_from_confusion(
    name: &str,
    confusion: ConfusionMatrix,
    extra: Vec<(String, String)>,
) -> EvalOutcome {
    let class_names: Vec<&str> = RiskLevel::ALL.iter().map(|l| l.name()).collect();
    EvalOutcome {
        report: ClassificationReport::from_confusion(name, &class_names, &confusion),
        confusion,
        extra,
    }
}

/// Deterministic helper: sample up to `n` texts from the unlabeled pool.
pub(crate) fn sample_pretrain_texts(unlabeled: &[String], n: usize, seed: u64) -> Vec<String> {
    if unlabeled.len() <= n {
        return unlabeled.to_vec();
    }
    let mut rng = stream_rng(seed, "trainer.pretrain_pool");
    let mut idx: Vec<usize> = (0..unlabeled.len()).collect();
    shuffle(&mut rng, &mut idx);
    idx.truncate(n);
    idx.into_iter().map(|i| unlabeled[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::TIME_FEATURE_DIM;

    /// A toy forward that ignores text and learns only the bias (sanity
    /// baseline).
    fn bias_only_forward(
        n_classes: usize,
    ) -> (
        ParamStore,
        impl Fn(&mut Tape, &ParamStore, &EncodedWindow, &mut StdRng) -> Var,
    ) {
        let mut store = ParamStore::new();
        let bias = store.register_zeros("bias", 1, n_classes);
        (
            store,
            move |tape: &mut Tape, store: &ParamStore, _ex: &EncodedWindow, rng: &mut StdRng| {
                let _ = rng.gen::<u32>();
                tape.param(store, bias)
            },
        )
    }

    fn toy_examples(n: usize, skew: bool) -> Vec<EncodedWindow> {
        (0..n)
            .map(|i| {
                let label = if skew {
                    if i % 10 == 0 {
                        1
                    } else {
                        0
                    }
                } else {
                    i % 4
                };
                EncodedWindow {
                    post_tokens: vec![vec![2, 5 + label as u32]],
                    time_feats: vec![[0.0; TIME_FEATURE_DIM]],
                    label,
                }
            })
            .collect()
    }

    #[test]
    fn bias_only_learns_majority_class() {
        let (mut store, forward) = bias_only_forward(4);
        let train = toy_examples(100, true);
        let cfg = TrainConfig {
            epochs: 5,
            patience: 0,
            ..Default::default()
        };
        train_classifier(&mut store, &forward, &train, &train, &cfg, 1).unwrap();
        let mut rng = stream_rng(1, "test");
        let confusion = evaluate(&store, &forward, &train, &mut rng).unwrap();
        // Majority class 0 dominates; a bias-only model predicts it always.
        assert!(confusion.accuracy() > 0.85);
    }

    #[test]
    fn early_stopping_restores_best() {
        let (mut store, forward) = bias_only_forward(4);
        let train = toy_examples(40, false);
        let cfg = TrainConfig {
            epochs: 50,
            patience: 2,
            ..Default::default()
        };
        let history = train_classifier(&mut store, &forward, &train, &train, &cfg, 2).unwrap();
        assert!(history.len() < 50, "patience must stop early");
    }

    #[test]
    fn empty_training_rejected() {
        let (mut store, forward) = bias_only_forward(4);
        assert!(
            train_classifier(&mut store, &forward, &[], &[], &TrainConfig::default(), 3).is_err()
        );
    }

    #[test]
    fn balanced_sampling_counteracts_skew() {
        // With heavy skew, a balanced bias-only model should put
        // non-trivial probability on the minority class — its bias gets
        // as many minority as majority updates.
        let train = toy_examples(200, true);
        let cfg_bal = TrainConfig {
            epochs: 5,
            patience: 0,
            balanced: true,
            ..Default::default()
        };
        let (mut store_bal, forward_bal) = bias_only_forward(4);
        train_classifier(&mut store_bal, &forward_bal, &train, &train, &cfg_bal, 4).unwrap();
        let bias_bal = store_bal.value(rsd_nn::ParamId(0)).data.clone();
        // Balanced: class-1 logit should be close to class-0 logit.
        assert!(
            (bias_bal[0] - bias_bal[1]).abs() < 1.0,
            "balanced training should even out logits: {bias_bal:?}"
        );
    }

    #[test]
    fn augmentation_expands_and_caps() {
        use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, SplitConfig};
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(7007, 1_500, 24))
            .build()
            .unwrap();
        let s = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        let plain = augment_train_windows(&d, &s.train, 5, 0);
        assert_eq!(plain.len(), s.train.len(), "cap 0 = unchanged");
        let expanded = augment_train_windows(&d, &s.train, 5, 4);
        assert!(expanded.len() > s.train.len());
        // Cap respected per user.
        use std::collections::HashMap;
        let mut per_user: HashMap<_, usize> = HashMap::new();
        for w in &expanded {
            *per_user.entry(w.user).or_insert(0) += 1;
        }
        assert!(per_user.values().all(|&c| c <= 4));
        // Every expanded window's label matches its own final post.
        for w in &expanded {
            assert_eq!(w.label, d.posts[*w.post_indices.last().unwrap()].label);
        }
    }

    #[test]
    fn telemetry_emits_loss_and_accuracy_per_epoch() {
        let cfg = TrainConfig {
            epochs: 3,
            patience: 0,
            ..Default::default()
        };
        let train = toy_examples(20, false);
        // `train_classifier` emits its epoch gauges on the calling thread;
        // keep only those, so concurrent tests' records cannot leak in.
        let records: Vec<_> = rsd_obs::capture(|| {
            let (mut store, forward) = bias_only_forward(4);
            train_classifier(&mut store, &forward, &train, &train, &cfg, 9).unwrap();
        })
        .into_iter()
        .filter(|r| r["thread"].as_u64() == Some(rsd_obs::thread_ord()))
        .collect();
        let gauges_named = |name: &str| -> Vec<i128> {
            records
                .iter()
                .filter(|r| r["kind"] == "gauge" && r["label"] == name)
                .map(|r| match &r["epoch"] {
                    rsd_obs::Value::Int(e) => *e,
                    other => panic!("epoch tag missing: {other:?}"),
                })
                .collect()
        };
        assert_eq!(gauges_named("models.train.loss"), vec![0, 1, 2]);
        assert_eq!(gauges_named("models.train.accuracy"), vec![0, 1, 2]);
        // Loss values must be finite and positive (cross-entropy).
        for r in &records {
            if r["label"] == "models.train.loss" {
                match &r["value"] {
                    rsd_obs::Value::Float(v) => assert!(v.is_finite() && *v > 0.0),
                    other => panic!("non-float loss: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pretrain_pool_sampling_bounds() {
        let texts: Vec<String> = (0..100).map(|i| format!("t{i}")).collect();
        let s = sample_pretrain_texts(&texts, 10, 5);
        assert_eq!(s.len(), 10);
        let all = sample_pretrain_texts(&texts, 1000, 5);
        assert_eq!(all.len(), 100);
        let a = sample_pretrain_texts(&texts, 10, 5);
        assert_eq!(s, a, "deterministic");
    }
}
