//! The boosting loop with the softmax multi-class objective.
//!
//! Each round fits one tree per class on the softmax gradients
//! (`g = p_k − 𝟙[y=k]`, `h = p_k (1 − p_k)`), with row subsampling, column
//! subsampling, shrinkage, and early stopping on a validation set.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::data::BinnedMatrix;
use crate::tree::{PackedBins, Tree, TreeConfig};
use rsd_common::rng::{sample_indices, stream_rng};
use rsd_common::{Result, RsdError};

/// Booster hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoosterConfig {
    /// Seed for subsampling.
    pub seed: u64,
    /// Number of classes.
    pub n_classes: usize,
    /// Boosting rounds (upper bound; early stopping may end sooner).
    pub n_rounds: usize,
    /// Shrinkage / learning rate.
    pub learning_rate: f32,
    /// Row subsample fraction per tree.
    pub subsample: f64,
    /// Column subsample fraction per tree.
    pub colsample: f64,
    /// Early-stopping patience in rounds (0 disables).
    pub early_stopping: usize,
    /// Tree growing parameters.
    pub tree: TreeConfig,
}

impl Default for BoosterConfig {
    fn default() -> Self {
        BoosterConfig {
            seed: 0,
            n_classes: 2,
            n_rounds: 100,
            learning_rate: 0.1,
            subsample: 0.8,
            colsample: 0.8,
            early_stopping: 10,
            tree: TreeConfig::default(),
        }
    }
}

/// A fitted multi-class booster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Booster {
    cfg: BoosterConfig,
    /// `trees[round][class]`.
    trees: Vec<Vec<Tree>>,
    n_features: usize,
}

impl Booster {
    /// Train on `train` with labels, optionally early-stopping on a
    /// validation pair.
    pub fn fit(
        train: &BinnedMatrix,
        labels: &[usize],
        valid: Option<(&BinnedMatrix, &[usize])>,
        cfg: BoosterConfig,
    ) -> Result<Booster> {
        if train.len() != labels.len() {
            return Err(RsdError::data("Booster::fit: label count mismatch"));
        }
        if train.is_empty() {
            return Err(RsdError::data("Booster::fit: empty training set"));
        }
        if labels.iter().any(|&l| l >= cfg.n_classes) {
            return Err(RsdError::data("Booster::fit: label out of range"));
        }
        let n = train.len();
        let k = cfg.n_classes;
        let mut rng = stream_rng(cfg.seed, "gbdt.booster");

        // Raw scores per sample per class.
        let mut scores = vec![0.0f32; n * k];
        let mut booster = Booster {
            cfg: cfg.clone(),
            trees: Vec::new(),
            n_features: train.n_features,
        };

        let mut best_valid = f64::INFINITY;
        let mut rounds_since_best = 0usize;
        let mut best_len = 0usize;

        let _fit_span = rsd_obs::Span::enter("gbdt.fit");
        rsd_obs::stage_register("gbdt.fit");
        for _round in 0..cfg.n_rounds {
            let _round_span = rsd_obs::Span::enter("gbdt.fit.round");
            let round_t0 = std::time::Instant::now();
            // Softmax gradients, chunked over whole sample rows (each
            // row's grad/hess cells are written by exactly one chunk).
            let mut grad = vec![0.0f32; n * k];
            let mut hess = vec![0.0f32; n * k];
            rsd_par::parallel_join_mut(&mut grad, &mut hess, 256 * k, |start, gc, hc| {
                let i0 = start / k;
                for (r, (grow, hrow)) in gc.chunks_mut(k).zip(hc.chunks_mut(k)).enumerate() {
                    let i = i0 + r;
                    let probs = softmax(&scores[i * k..(i + 1) * k]);
                    for c in 0..k {
                        let p = probs[c];
                        let y = if labels[i] == c { 1.0 } else { 0.0 };
                        grow[c] = p - y;
                        hrow[c] = (p * (1.0 - p)).max(1e-6);
                    }
                }
            });

            // Row / column subsample for this round.
            let n_rows = ((n as f64) * cfg.subsample).round().max(1.0) as usize;
            let rows = if n_rows < n {
                sample_indices(&mut rng, n, n_rows)
            } else {
                (0..n).collect()
            };
            let n_cols = ((train.n_features as f64) * cfg.colsample).round().max(1.0) as usize;
            let features = if n_cols < train.n_features {
                sample_indices(&mut rng, train.n_features, n_cols)
            } else {
                (0..train.n_features).collect()
            };
            let _ = rng.gen::<u32>(); // decorrelate rounds even at full sample

            // One tree per class; classes are independent given this
            // round's gradients, so they fit in parallel over one packing
            // of the round's feature sample. Score updates then apply per
            // class in order (disjoint score columns).
            let packed = PackedBins::new(train, &features);
            let mut round_trees: Vec<Option<Tree>> = vec![None; k];
            rsd_par::parallel_chunks_mut(&mut round_trees, 1, |start, slot| {
                let c = start;
                let _tree_span = rsd_obs::Span::enter("gbdt.fit.tree");
                let g: Vec<f32> = (0..n).map(|i| grad[i * k + c]).collect();
                let h: Vec<f32> = (0..n).map(|i| hess[i * k + c]).collect();
                slot[0] = Some(Tree::fit_packed(
                    train,
                    &packed,
                    &g,
                    &h,
                    &rows,
                    &cfg.tree,
                    cfg.learning_rate,
                ));
            });
            let round_trees: Vec<Tree> = round_trees
                .into_iter()
                .map(|t| t.expect("tree fit"))
                .collect();
            rsd_par::parallel_chunks_mut(&mut scores, 64 * k, |start, chunk| {
                let i0 = start / k;
                for (r, srow) in chunk.chunks_mut(k).enumerate() {
                    let raw = &train.raw[i0 + r];
                    for (c, tree) in round_trees.iter().enumerate() {
                        srow[c] += tree.predict_row(raw);
                    }
                }
            });
            booster.trees.push(round_trees);
            rsd_obs::latency_ns("gbdt.fit.round", round_t0.elapsed().as_nanos() as u64);
            rsd_obs::stage_progress("gbdt.fit", k as u64, 0);

            // Early stopping on validation log-loss.
            if let Some((vm, vl)) = valid {
                if cfg.early_stopping > 0 {
                    let loss = booster.log_loss(vm, vl)?;
                    rsd_obs::gauge("gbdt.valid_log_loss", loss);
                    if loss < best_valid - 1e-6 {
                        best_valid = loss;
                        rounds_since_best = 0;
                        best_len = booster.trees.len();
                    } else {
                        rounds_since_best += 1;
                        if rounds_since_best >= cfg.early_stopping {
                            booster.trees.truncate(best_len.max(1));
                            break;
                        }
                    }
                }
            }
        }
        rsd_obs::stage_finish("gbdt.fit");
        Ok(booster)
    }

    /// Raw class scores for one feature row.
    pub(crate) fn scores_row(&self, row: &[f32]) -> Vec<f32> {
        let k = self.cfg.n_classes;
        let mut scores = vec![0.0f32; k];
        for round in &self.trees {
            for (c, tree) in round.iter().enumerate() {
                scores[c] += tree.predict_row(row);
            }
        }
        scores
    }

    /// Class probabilities for one row.
    pub fn predict_proba_row(&self, row: &[f32]) -> Vec<f32> {
        softmax(&self.scores_row(row))
    }

    /// Predicted class for one row.
    pub fn predict_row(&self, row: &[f32]) -> usize {
        let scores = self.scores_row(row);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(i, _)| i)
            .expect("non-empty scores")
    }

    /// Predictions for a matrix (row-parallel; each output slot is
    /// written by exactly one chunk).
    pub fn predict(&self, data: &BinnedMatrix) -> Vec<usize> {
        let mut out = vec![0usize; data.len()];
        rsd_par::parallel_chunks_mut(&mut out, 64, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = self.predict_row(&data.raw[start + off]);
            }
        });
        out
    }

    /// Mean multi-class log loss.
    pub fn log_loss(&self, data: &BinnedMatrix, labels: &[usize]) -> Result<f64> {
        if data.len() != labels.len() {
            return Err(RsdError::data("log_loss: label count mismatch"));
        }
        if data.is_empty() {
            return Err(RsdError::data("log_loss: empty data"));
        }
        // Chunked map + in-order fold: the association is fixed by chunk
        // boundaries (row count only), so the loss is thread-count
        // independent.
        let total = rsd_par::parallel_reduce(
            data.len(),
            256,
            |r| {
                let mut part = 0.0f64;
                for i in r {
                    let probs = self.predict_proba_row(&data.raw[i]);
                    part -= f64::from(probs[labels[i]].max(1e-9)).ln();
                }
                part
            },
            |a, b| a + b,
        )
        .unwrap_or(0.0);
        Ok(total / data.len() as f64)
    }

    /// Gain-based feature importance, normalized to sum to 1.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut imp = vec![0.0f64; self.n_features];
        for round in &self.trees {
            for tree in round {
                tree.accumulate_importance(&mut imp);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Boosting rounds actually kept.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }

    /// Persist the fitted ensemble to a JSON model file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let file = std::fs::File::create(path)?;
        let writer = std::io::BufWriter::new(file);
        serde_json::to_writer(writer, self).map_err(|e| RsdError::Serde(e.to_string()))
    }

    /// Load a model saved by [`Booster::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Booster> {
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        serde_json::from_reader(reader).map_err(|e| RsdError::Serde(e.to_string()))
    }
}

fn softmax(xs: &[f32]) -> Vec<f32> {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable 3-class problem in 2D plus a noise feature.
    fn toy(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = stream_rng(seed, "gbdt.toy");
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f32 = rng.gen_range(-1.0..1.0);
            let y: f32 = rng.gen_range(-1.0..1.0);
            let noise: f32 = rng.gen_range(-1.0..1.0);
            let label = if x > 0.2 {
                0
            } else if y > 0.0 {
                1
            } else {
                2
            };
            rows.push(vec![x, y, noise]);
            labels.push(label);
        }
        (rows, labels)
    }

    fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
        pred.iter().zip(truth).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64
    }

    #[test]
    fn learns_separable_classes() {
        let (rows, labels) = toy(400, 1);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 40,
            early_stopping: 0,
            ..Default::default()
        };
        let booster = Booster::fit(&train, &labels, None, cfg).unwrap();
        let acc = accuracy(&booster.predict(&train), &labels);
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (rows, labels) = toy(600, 2);
        let (test_rows, test_labels) = toy(200, 3);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let test = train.transform(test_rows).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 60,
            early_stopping: 0,
            ..Default::default()
        };
        let booster = Booster::fit(&train, &labels, None, cfg).unwrap();
        let acc = accuracy(&booster.predict(&test), &test_labels);
        assert!(acc > 0.9, "test accuracy {acc}");
    }

    #[test]
    fn loss_decreases_with_rounds() {
        let (rows, labels) = toy(300, 4);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let short = Booster::fit(
            &train,
            &labels,
            None,
            BoosterConfig {
                n_classes: 3,
                n_rounds: 2,
                early_stopping: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let long = Booster::fit(
            &train,
            &labels,
            None,
            BoosterConfig {
                n_classes: 3,
                n_rounds: 30,
                early_stopping: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let l_short = short.log_loss(&train, &labels).unwrap();
        let l_long = long.log_loss(&train, &labels).unwrap();
        assert!(l_long < l_short, "loss must decrease: {l_short} → {l_long}");
    }

    #[test]
    fn early_stopping_truncates() {
        let (rows, labels) = toy(300, 5);
        let (vr, vl) = toy(100, 6);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let valid = train.transform(vr).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 200,
            early_stopping: 5,
            ..Default::default()
        };
        let booster = Booster::fit(&train, &labels, Some((&valid, &vl)), cfg).unwrap();
        assert!(
            booster.n_rounds() < 200,
            "early stopping should kick in ({} rounds)",
            booster.n_rounds()
        );
    }

    #[test]
    fn importance_ignores_noise_feature() {
        let (rows, labels) = toy(500, 7);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 30,
            colsample: 1.0,
            early_stopping: 0,
            ..Default::default()
        };
        let booster = Booster::fit(&train, &labels, None, cfg).unwrap();
        let imp = booster.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[2] * 5.0, "x must dominate noise: {imp:?}");
        assert!(imp[1] > imp[2] * 5.0, "y must dominate noise: {imp:?}");
    }

    #[test]
    fn probabilities_are_normalized() {
        let (rows, labels) = toy(200, 8);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 10,
            early_stopping: 0,
            ..Default::default()
        };
        let booster = Booster::fit(&train, &labels, None, cfg).unwrap();
        for row in &train.raw[..10] {
            let p = booster.predict_proba_row(row);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn input_validation() {
        let (rows, mut labels) = toy(10, 9);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        labels.pop();
        assert!(Booster::fit(&train, &labels, None, BoosterConfig::default()).is_err());
        let bad_labels = vec![9usize; 10];
        assert!(Booster::fit(
            &train,
            &bad_labels,
            None,
            BoosterConfig {
                n_classes: 3,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn model_save_load_round_trip() {
        let (rows, labels) = toy(150, 11);
        let train = BinnedMatrix::fit(rows, 64).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 8,
            early_stopping: 0,
            ..Default::default()
        };
        let booster = Booster::fit(&train, &labels, None, cfg).unwrap();
        let path = std::env::temp_dir().join("rsd_gbdt_model_test.json");
        booster.save(&path).unwrap();
        let back = Booster::load(&path).unwrap();
        assert_eq!(back.predict(&train), booster.predict(&train));
        assert_eq!(back.n_rounds(), booster.n_rounds());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = toy(200, 10);
        let train = BinnedMatrix::fit(rows.clone(), 64).unwrap();
        let cfg = BoosterConfig {
            n_classes: 3,
            n_rounds: 10,
            seed: 42,
            early_stopping: 0,
            ..Default::default()
        };
        let a = Booster::fit(&train, &labels, None, cfg.clone()).unwrap();
        let b = Booster::fit(&train, &labels, None, cfg).unwrap();
        assert_eq!(a.predict(&train), b.predict(&train));
    }
}
