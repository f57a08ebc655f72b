//! The two PLM baselines (paper §III-A4/A5): RoBERTa-style and
//! DeBERTa-style transformer classifiers.
//!
//! Both share the recipe:
//!
//! 1. **Pretrain** the encoder with MLM on the unlabelled pool
//!    ([`crate::pretrain`]) — the stand-in for public checkpoints.
//! 2. **Temporal fusion**: the window's multi-dimensional time encodings
//!    are projected into model space, attention-pooled across the window,
//!    and added to every token embedding of the labelled post (the
//!    "temporal projection layer ... mapped to the same semantic space as
//!    the text representation").
//! 3. **Fine-tune** with a classification head on the `[CLS]` state.
//!
//! The two variants differ exactly where the papers differ: RoBERTa uses
//! learned absolute positions with standard attention; DeBERTa uses
//! relative positions with disentangled content/position attention.

use rand::rngs::StdRng;

use crate::encoding::{EncodedWindow, TaskEncoder, TIME_FEATURE_DIM};
use crate::pretrain::{mlm_pretrain, PretrainConfig};
use crate::trainer::{
    augment_train_windows, evaluate, outcome_from_confusion, sample_pretrain_texts,
    train_classifier, BenchData, EvalOutcome, TrainConfig,
};
use rsd_common::rng::stream_rng;
use rsd_common::Result;
use rsd_corpus::RiskLevel;
use rsd_nn::layers::Linear;
use rsd_nn::matrix::Matrix;
use rsd_nn::transformer::{Encoder, EncoderConfig, MlmHead, PositionMode};
use rsd_nn::{ParamStore, Tape, Var};

/// Which PLM variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlmKind {
    /// Absolute positions + standard attention (RoBERTa-style).
    Roberta,
    /// Relative positions + disentangled attention (DeBERTa-style).
    Deberta,
}

impl PlmKind {
    /// Display name used in Table III.
    pub fn name(self) -> &'static str {
        match self {
            PlmKind::Roberta => "RoBERTa",
            PlmKind::Deberta => "DeBERTa",
        }
    }
}

/// PLM baseline hyperparameters.
#[derive(Debug, Clone)]
pub struct PlmConfig {
    /// Variant.
    pub kind: PlmKind,
    /// Vocabulary cap.
    pub max_vocab: usize,
    /// Token cap per post.
    pub max_tokens: usize,
    /// Total token cap for the concatenated window context fed to the
    /// encoder (≥ `max_tokens`; the latest post always comes first).
    pub window_tokens: usize,
    /// Model width.
    pub dim: usize,
    /// Encoder blocks.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN inner width.
    pub ffn_dim: usize,
    /// Dropout during fine-tuning.
    pub dropout: f32,
    /// Relative-attention radius (DeBERTa only).
    pub radius: usize,
    /// Number of unlabelled texts used for MLM pretraining (0 disables —
    /// the "from scratch" ablation).
    pub pretrain_texts: usize,
    /// Whether to fuse temporal features into the token embeddings (the
    /// ablation for the paper's repeated temporal-fusion claim).
    pub temporal_fusion: bool,
    /// MLM pretraining settings.
    pub pretrain: PretrainConfig,
    /// Fine-tuning loop settings.
    pub train: TrainConfig,
}

impl PlmConfig {
    /// The Table III "Base"-style configuration for a variant.
    pub fn base(kind: PlmKind) -> Self {
        PlmConfig {
            kind,
            max_vocab: 2_000,
            max_tokens: 56,
            window_tokens: 96,
            dim: 48,
            layers: 2,
            heads: 4,
            ffn_dim: 96,
            dropout: 0.1,
            radius: 8,
            pretrain_texts: 3_000,
            temporal_fusion: true,
            pretrain: PretrainConfig::default(),
            train: TrainConfig {
                epochs: 6,
                lr: 1e-3,
                ..Default::default()
            },
        }
    }

    /// The Table IV "Large" configuration: more capacity, tuned schedule.
    pub fn large(kind: PlmKind) -> Self {
        PlmConfig {
            dim: 64,
            layers: 3,
            heads: 4,
            ffn_dim: 128,
            train: TrainConfig {
                epochs: 10,
                lr: 7e-4,
                balanced: true,
                ..Default::default()
            },
            ..Self::base(kind)
        }
    }
}

pub(crate) struct PlmModel {
    pub(crate) encoder: Encoder,
    pub(crate) time_proj: Linear,
    pub(crate) head: Linear,
    temporal_fusion: bool,
    window_tokens_cap: usize,
}

impl PlmModel {
    fn new(store: &mut ParamStore, cfg: &PlmConfig, vocab: usize, rng: &mut StdRng) -> Self {
        let positions = match cfg.kind {
            PlmKind::Roberta => PositionMode::Absolute,
            PlmKind::Deberta => PositionMode::Relative { radius: cfg.radius },
        };
        let enc_cfg = EncoderConfig {
            vocab,
            dim: cfg.dim,
            layers: cfg.layers,
            heads: cfg.heads,
            ffn_dim: cfg.ffn_dim,
            max_len: cfg.max_tokens.max(cfg.window_tokens),
            dropout: cfg.dropout,
            positions,
        };
        PlmModel {
            encoder: Encoder::new(store, "plm.enc", enc_cfg, rng),
            time_proj: Linear::new(store, "plm.time_proj", TIME_FEATURE_DIM, cfg.dim, rng),
            head: Linear::new(store, "plm.head", cfg.dim, RiskLevel::COUNT, rng),
            temporal_fusion: cfg.temporal_fusion,
            window_tokens_cap: cfg.window_tokens,
        }
    }

    /// Temporal fusion vector: project each window post's time encoding,
    /// mean-pool across the window (the attention-pooled multi-scale
    /// summary), returning 1×dim.
    fn time_summary(&self, tape: &mut Tape, store: &ParamStore, example: &EncodedWindow) -> Var {
        let w = example.time_feats.len();
        let data: Vec<f32> = example
            .time_feats
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        let raw = tape.constant(Matrix::from_vec(w, TIME_FEATURE_DIM, data));
        let projected = self.time_proj.forward(tape, store, raw);
        tape.mean_rows(projected)
    }

    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        example: &EncodedWindow,
        rng: &mut StdRng,
    ) -> Var {
        let ids = example.window_tokens(self.window_tokens_cap);
        let ids = ids.as_slice();
        // Broadcast the 1×dim temporal summary to every token row.
        let extra = if self.temporal_fusion {
            let summary = self.time_summary(tape, store, example);
            let ones = tape.constant(Matrix::full(ids.len(), 1, 1.0));
            Some(tape.matmul(ones, summary))
        } else {
            None
        };
        let states = self.encoder.forward(tape, store, ids, extra, rng);
        // Mean pooling over contextual states (more robust than CLS-only
        // for compact encoders).
        let pooled = tape.mean_rows(states);
        self.head.forward(tape, store, pooled)
    }
}

/// The runnable baseline.
pub struct PlmBaseline {
    cfg: PlmConfig,
}

impl PlmBaseline {
    /// Create with configuration.
    pub fn new(cfg: PlmConfig) -> Self {
        PlmBaseline { cfg }
    }

    /// Pretrain (if configured) and fine-tune, returning the trained
    /// artifact instead of discarding it — the inference fast path
    /// ([`crate::plm_infer`]) exports frozen weights from this.
    pub fn fit(&self, data: &BenchData<'_>) -> Result<FittedPlm> {
        let cfg = &self.cfg;
        // Vocabulary from the union of training texts and the pretraining
        // pool (a PLM's vocabulary comes from its pretraining corpus).
        let pool = sample_pretrain_texts(data.unlabeled, cfg.pretrain_texts, data.seed);
        let encoder = if pool.is_empty() {
            TaskEncoder::fit(
                data.dataset,
                &data.splits.train,
                cfg.max_vocab,
                cfg.max_tokens,
            )
        } else {
            let mut texts = pool.clone();
            for w in &data.splits.train {
                for &i in &w.post_indices {
                    texts.push(data.dataset.posts[i].text.clone());
                }
            }
            TaskEncoder::fit_on_texts(&texts, cfg.max_vocab, cfg.max_tokens)
        };

        let mut rng = stream_rng(data.seed, "plm.init");
        let mut store = ParamStore::new();
        let model = PlmModel::new(&mut store, cfg, encoder.vocab.len(), &mut rng);

        // Stage 1: in-domain MLM pretraining.
        let mut extra: Vec<(String, String)> = Vec::new();
        if !pool.is_empty() {
            let mlm_head = MlmHead::new(
                &mut store,
                "plm.mlm",
                cfg.dim,
                encoder.vocab.len(),
                &mut rng,
            );
            let loss = mlm_pretrain(
                &model.encoder,
                &mlm_head,
                &mut store,
                &encoder,
                &pool,
                &cfg.pretrain,
                data.seed,
            )?;
            extra.push(("mlm_texts".to_string(), pool.len().to_string()));
            extra.push(("mlm_final_loss".to_string(), format!("{loss:.4}")));
        } else {
            extra.push(("mlm_texts".to_string(), "0 (from scratch)".to_string()));
        }

        // Stage 2: supervised fine-tuning.
        let train_windows = augment_train_windows(
            data.dataset,
            &data.splits.train,
            data.splits.config.window,
            cfg.train.post_level_cap,
        );
        let train = encoder.encode_all(data.dataset, &train_windows);
        let valid = encoder.encode_all(data.dataset, &data.splits.valid);

        let forward = |tape: &mut Tape,
                       store: &ParamStore,
                       ex: &EncodedWindow,
                       rng: &mut StdRng| model.forward(tape, store, ex, rng);
        let history =
            train_classifier(&mut store, &forward, &train, &valid, &cfg.train, data.seed)?;
        extra.push(("epochs_run".to_string(), history.len().to_string()));

        Ok(FittedPlm {
            cfg: self.cfg.clone(),
            encoder,
            store,
            model,
            extra,
        })
    }

    /// Pretrain (if configured), fine-tune, and evaluate.
    pub fn run(&self, data: &BenchData<'_>) -> Result<EvalOutcome> {
        let fitted = self.fit(data)?;
        let test = fitted.encoder.encode_all(data.dataset, &data.splits.test);

        let model = &fitted.model;
        let forward = |tape: &mut Tape,
                       store: &ParamStore,
                       ex: &EncodedWindow,
                       rng: &mut StdRng| model.forward(tape, store, ex, rng);
        let mut eval_rng = stream_rng(data.seed, "plm.eval");
        let confusion = evaluate(&fitted.store, &forward, &test, &mut eval_rng)?;
        let mut extra = fitted.extra.clone();
        extra.push(("params".to_string(), fitted.store.n_scalars().to_string()));
        Ok(outcome_from_confusion(
            self.cfg.kind.name(),
            confusion,
            extra,
        ))
    }
}

/// A trained PLM kept whole — config, task encoder, parameter store and
/// model structure — so serving can export frozen inference weights
/// from it ([`crate::plm_infer::PlmInferenceModel::export`]).
pub struct FittedPlm {
    /// Hyperparameters the model was built with.
    pub cfg: PlmConfig,
    /// Tokenizer/vocabulary fitted on the training corpus.
    pub encoder: TaskEncoder,
    /// Trained parameters.
    pub store: ParamStore,
    pub(crate) model: PlmModel,
    /// Training-stage diagnostics (mlm loss, epochs run, ...).
    pub extra: Vec<(String, String)>,
}

impl FittedPlm {
    /// A randomly initialised (untrained) PLM over a synthetic
    /// vocabulary of `max_vocab` distinct words. Kernel benches and the
    /// quantization parity tests need the *structure* and realistic
    /// tensor shapes, not a fitted model; weights follow the usual init
    /// distributions from `seed`.
    pub fn synthetic(cfg: PlmConfig, seed: u64) -> FittedPlm {
        let words: Vec<String> = (0..cfg.max_vocab + 100).map(|i| format!("w{i}")).collect();
        let texts: Vec<String> = words.chunks(16).map(|chunk| chunk.join(" ")).collect();
        let encoder = TaskEncoder::fit_on_texts(&texts, cfg.max_vocab, cfg.max_tokens);
        let mut rng = stream_rng(seed, "plm.init");
        let mut store = ParamStore::new();
        let model = PlmModel::new(&mut store, &cfg, encoder.vocab.len(), &mut rng);
        FittedPlm {
            cfg,
            encoder,
            store,
            model,
            extra: Vec::new(),
        }
    }

    /// Reference logits through the full tape stack (`Tape::inference`)
    /// — the status-quo path the inference engines are pinned against.
    pub fn logits_tape(&self, example: &EncodedWindow) -> Vec<f32> {
        let mut tape = Tape::inference();
        // Dropout is identity in inference mode; the rng is never used.
        let mut rng = stream_rng(0, "plm.infer");
        let out = self
            .model
            .forward(&mut tape, &self.store, example, &mut rng);
        tape.value(out).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, SplitConfig};

    fn tiny_cfg(kind: PlmKind) -> PlmConfig {
        PlmConfig {
            kind,
            max_vocab: 300,
            max_tokens: 10,
            window_tokens: 16,
            dim: 8,
            layers: 1,
            heads: 2,
            ffn_dim: 16,
            dropout: 0.0,
            radius: 4,
            pretrain_texts: 20,
            temporal_fusion: true,
            pretrain: PretrainConfig {
                epochs: 1,
                batch: 8,
                ..Default::default()
            },
            train: TrainConfig {
                epochs: 1,
                batch: 8,
                patience: 0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn both_variants_run_end_to_end() {
        let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(803, 1_200, 20))
            .build()
            .unwrap();
        let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
        let unlabeled: Vec<String> = dataset
            .posts
            .iter()
            .take(30)
            .map(|p| p.text.clone())
            .collect();
        let data = BenchData {
            dataset: &dataset,
            splits: &splits,
            unlabeled: &unlabeled,
            seed: 803,
        };
        for kind in [PlmKind::Roberta, PlmKind::Deberta] {
            let outcome = PlmBaseline::new(tiny_cfg(kind)).run(&data).unwrap();
            assert_eq!(outcome.report.model, kind.name());
            assert_eq!(outcome.confusion.total() as usize, splits.test.len());
            assert!(outcome.extra.iter().any(|(k, _)| k == "mlm_final_loss"));
        }
    }

    #[test]
    fn large_config_has_more_capacity_than_base() {
        let base = PlmConfig::base(PlmKind::Deberta);
        let large = PlmConfig::large(PlmKind::Deberta);
        assert!(large.dim > base.dim);
        assert!(large.layers > base.layers);
        assert!(large.train.balanced && !base.train.balanced);
    }

    #[test]
    fn from_scratch_mode_skips_pretraining() {
        let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(804, 1_200, 20))
            .build()
            .unwrap();
        let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
        let data = BenchData {
            dataset: &dataset,
            splits: &splits,
            unlabeled: &[],
            seed: 804,
        };
        let mut cfg = tiny_cfg(PlmKind::Roberta);
        cfg.pretrain_texts = 0;
        let outcome = PlmBaseline::new(cfg).run(&data).unwrap();
        assert!(outcome
            .extra
            .iter()
            .any(|(k, v)| k == "mlm_texts" && v.contains("from scratch")));
    }
}
