//! The inference-only scoring entry point: a fitted artifact with no
//! training tape, reusable scratch buffers, and a micro-batched batch
//! API on the `rsd-par` pool — now routable across three backends.
//!
//! [`ServeModel`] selects the backend via `RSD_SERVE_MODEL`
//! (`gbdt | plm-f32 | plm-int8`, hard-erroring on anything else):
//!
//! * `gbdt` — [`ScoringModel::fit`] is the *exact* training path of the
//!   table-3 XGBoost baseline (same augmentation, TF-IDF fit, binning,
//!   early stopping, seed), factored out of
//!   [`XgboostBaseline::run`](crate::xgboost::XgboostBaseline) so the
//!   batch benchmark and the online serving path share one fitted
//!   artifact. Per-row prediction reads raw feature rows
//!   ([`Booster::predict_row`]), so [`score_windows`] over the test
//!   split is bit-identical to the baseline's `predict` over the binned
//!   test matrix.
//! * `plm-f32` — a trained PLM frozen through [`PlmInferenceModel`],
//!   scored on the tape-free f32 reference path (bit-identical to the
//!   tape).
//! * `plm-int8` — the same frozen artifact on the int8 pair kernels:
//!   the fast path, gated against `plm-f32` by `bench_kernels`'
//!   quality bounds (per-logit error, argmax agreement).
//!
//! [`score_windows`]: ScoringModel::score_windows

use rsd_common::{Result, RsdError, Timestamp};
use rsd_dataset::{Rsd15k, UserWindow};
use rsd_features::{FeatureExtractor, PreparedPost};
use rsd_gbdt::{BinnedMatrix, Booster};

use crate::plm::FittedPlm;
use crate::plm_infer::{PlmInferenceModel, PlmScratch};
use crate::trainer::{augment_train_windows, BenchData};
use crate::xgboost::XgboostConfig;

/// Which scoring backend serves requests (`RSD_SERVE_MODEL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeModel {
    /// The table-3 XGBoost artifact (feature extractor + booster).
    Gbdt,
    /// Frozen PLM on the f32 reference inference path.
    PlmF32,
    /// Frozen PLM on the per-channel int8 fast path.
    PlmInt8,
}

impl ServeModel {
    /// Valid knob spellings, in [`ServeModel`] declaration order.
    pub const CHOICES: &'static [&'static str] = rsd_obs::knob::SERVE_MODELS;

    /// Parse one of the [`Self::CHOICES`] spellings.
    pub fn from_name(name: &str) -> Result<ServeModel> {
        match name {
            "gbdt" => Ok(ServeModel::Gbdt),
            "plm-f32" => Ok(ServeModel::PlmF32),
            "plm-int8" => Ok(ServeModel::PlmInt8),
            other => Err(RsdError::config(
                rsd_obs::knob::SERVE_MODEL.name,
                format!(
                    "unknown model {other:?}; expected one of {}",
                    Self::CHOICES.join(" | ")
                ),
            )),
        }
    }

    /// The canonical knob spelling.
    pub fn name(self) -> &'static str {
        Self::CHOICES[self as usize]
    }

    /// Whether this backend runs the int8 quantized kernels.
    pub fn quantized(self) -> bool {
        self == ServeModel::PlmInt8
    }
}

/// Reusable per-worker scratch for streaming scoring: one feature row
/// for the GBDT backend plus the PLM activation buffers, reused across
/// requests to avoid per-request allocation.
#[derive(Default)]
pub struct ScoreScratch {
    row: Vec<f32>,
    plm: PlmScratch,
}

/// A post as the serving window store holds it, prepared once as it
/// enters: the GBDT backend keeps what its window combiner reads, the PLM
/// backends keep only the text.
#[derive(Debug, Clone)]
pub struct StreamPost(StreamPayload);

#[derive(Debug, Clone)]
enum StreamPayload {
    Prepared(PreparedPost),
    Text(String),
}

enum Backend {
    Gbdt {
        extractor: Box<FeatureExtractor>,
        booster: Booster,
    },
    Plm {
        engine: Box<PlmInferenceModel>,
        quantized: bool,
    },
}

/// A fitted scoring artifact, stripped to what inference needs.
pub struct ScoringModel {
    backend: Backend,
    window: usize,
}

impl ScoringModel {
    /// Fit the GBDT backend on the bench data — the table-3 XGBoost
    /// training path, verbatim: post-level augmentation of the train
    /// split, TF-IDF fit on the augmented windows, 64-bin histograms,
    /// early stopping on the validation split, seed from the bench data.
    pub fn fit(cfg: &XgboostConfig, data: &BenchData<'_>) -> Result<ScoringModel> {
        let mut cfg = cfg.clone();
        cfg.booster.seed = data.seed;

        let train_windows = augment_train_windows(
            data.dataset,
            &data.splits.train,
            data.splits.config.window,
            cfg.post_level_cap,
        );
        let extractor = FeatureExtractor::fit(data.dataset, &train_windows, cfg.max_tfidf)?;
        let valid_windows = &data.splits.valid;
        let table = extractor.prepare_posts(data.dataset, &[&train_windows, valid_windows]);
        let x_train = extractor.transform_windows(data.dataset, &table, &train_windows);
        let y_train: Vec<usize> = train_windows.iter().map(|w| w.label.index()).collect();
        let x_valid = extractor.transform_windows(data.dataset, &table, valid_windows);
        drop(table);
        let y_valid: Vec<usize> = data.splits.valid.iter().map(|w| w.label.index()).collect();

        let train = BinnedMatrix::fit(x_train, 64)?;
        let valid = train.transform(x_valid)?;
        let booster = Booster::fit(&train, &y_train, Some((&valid, &y_valid)), cfg.booster)?;

        Ok(ScoringModel {
            backend: Backend::Gbdt {
                extractor: Box::new(extractor),
                booster,
            },
            window: data.splits.config.window,
        })
    }

    /// Wrap a trained PLM as the serving artifact: freeze its weights
    /// through [`PlmInferenceModel::export`] and score on the f32
    /// reference path or the int8 fast path per `quantized`.
    pub fn from_plm(fitted: &FittedPlm, window: usize, quantized: bool) -> ScoringModel {
        ScoringModel {
            backend: Backend::Plm {
                engine: Box::new(PlmInferenceModel::export(fitted)),
                quantized,
            },
            window,
        }
    }

    /// Which backend this artifact scores with.
    pub fn model(&self) -> ServeModel {
        match &self.backend {
            Backend::Gbdt { .. } => ServeModel::Gbdt,
            Backend::Plm {
                quantized: false, ..
            } => ServeModel::PlmF32,
            Backend::Plm {
                quantized: true, ..
            } => ServeModel::PlmInt8,
        }
    }

    /// The fitted feature extractor (GBDT backend only).
    ///
    /// # Panics
    /// If this artifact scores with the PLM backend.
    pub fn extractor(&self) -> &FeatureExtractor {
        match &self.backend {
            Backend::Gbdt { extractor, .. } => extractor,
            Backend::Plm { .. } => panic!("extractor(): PLM backend has no feature extractor"),
        }
    }

    /// The fitted booster (GBDT backend only).
    ///
    /// # Panics
    /// If this artifact scores with the PLM backend.
    pub fn booster(&self) -> &Booster {
        match &self.backend {
            Backend::Gbdt { booster, .. } => booster,
            Backend::Plm { .. } => panic!("booster(): PLM backend has no booster"),
        }
    }

    /// The frozen PLM inference engine (PLM backends only).
    pub fn plm_engine(&self) -> Option<&PlmInferenceModel> {
        match &self.backend {
            Backend::Gbdt { .. } => None,
            Backend::Plm { engine, .. } => Some(engine.as_ref()),
        }
    }

    /// The window size the model was fitted for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Score a batch of windows, micro-batched on the `rsd-par` pool
    /// with one reused scratch per chunk. Returns predicted class
    /// indices, aligned with `windows`. Per-row work is self-contained,
    /// so results are bit-identical across thread counts and chunk
    /// boundaries — for the GBDT backend also identical to the
    /// baseline's binned-matrix `predict`, which reads the same raw
    /// rows; for the int8 backend identical across batch partitionings
    /// because integer accumulation is exact.
    pub fn score_windows(&self, dataset: &Rsd15k, windows: &[UserWindow]) -> Vec<usize> {
        let mut preds = vec![0usize; windows.len()];
        match &self.backend {
            Backend::Gbdt { extractor, booster } => {
                let table = extractor.prepare_posts(dataset, &[windows]);
                rsd_par::parallel_chunks_mut(&mut preds, 16, |start, chunk| {
                    let mut row = Vec::new();
                    for (slot, w) in chunk.iter_mut().zip(&windows[start..]) {
                        extractor.transform_window_into(dataset, &table, w, &mut row);
                        *slot = booster.predict_row(&row);
                    }
                });
            }
            Backend::Plm { engine, quantized } => {
                rsd_par::parallel_chunks_mut(&mut preds, 16, |start, chunk| {
                    let mut scratch = PlmScratch::default();
                    for (slot, w) in chunk.iter_mut().zip(&windows[start..]) {
                        let encoded = engine.encoder().encode(dataset, w);
                        *slot = engine.score(&encoded, *quantized, &mut scratch);
                    }
                });
            }
        }
        preds
    }

    /// Prepare a post for the serving window store, once, as it enters:
    /// the GBDT backend keeps only what its window combiner reads, the PLM
    /// backends keep only the text.
    pub fn prepare_post(&self, text: &str) -> StreamPost {
        StreamPost(match &self.backend {
            Backend::Gbdt { extractor, .. } => StreamPayload::Prepared(extractor.prepare(text)),
            Backend::Plm { .. } => StreamPayload::Text(text.to_string()),
        })
    }

    /// Score one streaming request: the caller supplies the window
    /// reconstructed from its per-user state (`posts`, prepared by
    /// [`prepare_post`](ScoringModel::prepare_post), and `timestamps`
    /// chronological; `total_posts` = posts ever seen for the user) and a
    /// reusable scratch. Returns the predicted class index.
    ///
    /// # Panics
    /// If a post was prepared by an artifact of the other backend kind.
    pub fn score_stream(
        &self,
        posts: &[&StreamPost],
        timestamps: &[Timestamp],
        total_posts: usize,
        scratch: &mut ScoreScratch,
    ) -> usize {
        match &self.backend {
            Backend::Gbdt { extractor, booster } => {
                let prepared: Vec<&PreparedPost> = posts
                    .iter()
                    .map(|p| match &p.0 {
                        StreamPayload::Prepared(post) => post,
                        StreamPayload::Text(_) => panic!("post prepared by a PLM artifact"),
                    })
                    .collect();
                extractor.combine_into(&prepared, timestamps, total_posts, &mut scratch.row);
                booster.predict_row(&scratch.row)
            }
            Backend::Plm { engine, quantized } => {
                let texts: Vec<&str> = posts
                    .iter()
                    .map(|p| match &p.0 {
                        StreamPayload::Text(text) => text.as_str(),
                        StreamPayload::Prepared(_) => panic!("post prepared by a GBDT artifact"),
                    })
                    .collect();
                let encoded = engine.encode_stream(&texts, timestamps);
                engine.score(&encoded, *quantized, &mut scratch.plm)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plm::{PlmConfig, PlmKind};
    use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, SplitConfig};
    use rsd_gbdt::BoosterConfig;

    fn small_cfg() -> XgboostConfig {
        XgboostConfig {
            max_tfidf: 80,
            post_level_cap: 3,
            booster: BoosterConfig {
                n_classes: 4,
                n_rounds: 12,
                early_stopping: 0,
                ..Default::default()
            },
        }
    }

    /// The window's posts as the serving store would hold them.
    fn stream_posts(model: &ScoringModel, dataset: &Rsd15k, w: &UserWindow) -> Vec<StreamPost> {
        w.post_indices
            .iter()
            .map(|&i| model.prepare_post(&dataset.posts[i].text))
            .collect()
    }

    fn refs(posts: &[StreamPost]) -> Vec<&StreamPost> {
        posts.iter().collect()
    }

    #[test]
    fn serve_model_spellings_round_trip() {
        for (&spelling, model) in ServeModel::CHOICES.iter().zip([
            ServeModel::Gbdt,
            ServeModel::PlmF32,
            ServeModel::PlmInt8,
        ]) {
            assert_eq!(ServeModel::from_name(spelling).unwrap(), model);
            assert_eq!(model.name(), spelling);
        }
        assert!(ServeModel::from_name("xgboost").is_err());
        assert!(ServeModel::PlmInt8.quantized());
        assert!(!ServeModel::PlmF32.quantized());
    }

    #[test]
    fn stream_scoring_matches_batch_scoring() {
        let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(31, 2_000, 40))
            .build()
            .unwrap();
        let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
        let data = BenchData {
            dataset: &dataset,
            splits: &splits,
            unlabeled: &[],
            seed: 31,
        };
        let model = ScoringModel::fit(&small_cfg(), &data).unwrap();
        assert_eq!(model.model(), ServeModel::Gbdt);
        let batch = model.score_windows(&dataset, &splits.test);
        let mut scratch = ScoreScratch::default();
        for (w, &expect) in splits.test.iter().zip(&batch) {
            let posts = stream_posts(&model, &dataset, w);
            let total = dataset.user(w.user).unwrap().post_indices.len();
            let got = model.score_stream(&refs(&posts), &w.timestamps, total, &mut scratch);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn plm_stream_scoring_matches_batch_scoring_both_paths() {
        let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(33, 2_000, 40))
            .build()
            .unwrap();
        let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
        let cfg = PlmConfig {
            max_vocab: 300,
            max_tokens: 10,
            window_tokens: 20,
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            radius: 4,
            ..PlmConfig::base(PlmKind::Deberta)
        };
        let fitted = FittedPlm::synthetic(cfg, 33);
        for quantized in [false, true] {
            let model = ScoringModel::from_plm(&fitted, splits.config.window, quantized);
            assert_eq!(
                model.model(),
                if quantized {
                    ServeModel::PlmInt8
                } else {
                    ServeModel::PlmF32
                }
            );
            let windows = &splits.test[..splits.test.len().min(12)];
            let batch = model.score_windows(&dataset, windows);
            let mut scratch = ScoreScratch::default();
            for (w, &expect) in windows.iter().zip(&batch) {
                let posts = stream_posts(&model, &dataset, w);
                let got = model.score_stream(&refs(&posts), &w.timestamps, 0, &mut scratch);
                assert_eq!(got, expect, "quantized={quantized}");
            }
        }
    }

    #[test]
    fn score_windows_is_thread_count_invariant() {
        let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(32, 2_000, 40))
            .build()
            .unwrap();
        let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
        let data = BenchData {
            dataset: &dataset,
            splits: &splits,
            unlabeled: &[],
            seed: 32,
        };
        let model = ScoringModel::fit(&small_cfg(), &data).unwrap();
        let t1 = rsd_par::with_local_pool(1, || model.score_windows(&dataset, &splits.test));
        let t4 = rsd_par::with_local_pool(4, || model.score_windows(&dataset, &splits.test));
        assert_eq!(t1, t4);
    }
}
