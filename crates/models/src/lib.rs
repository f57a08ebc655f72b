#![warn(missing_docs)]

//! The five RSD-15K baselines (paper §III) and their training machinery.
//!
//! | Baseline | Paper §III-A | Here |
//! |---|---|---|
//! | XGBoost | multi-level feature framework + GBDT | [`xgboost`] over `rsd-features` + `rsd-gbdt` |
//! | BiLSTM | time-aware BiLSTM with pre-encoder attention fusion | [`bilstm`] |
//! | HiGRU | hierarchical GRU with time-aware attention | [`higru`] |
//! | RoBERTa | fine-tuned PLM + temporal attention | [`plm`] with absolute positions, MLM-pretrained |
//! | DeBERTa | disentangled attention + relative positions | [`plm`] with relative positions, MLM-pretrained |
//!
//! Shared infrastructure:
//!
//! * [`encoding`] — task encoding: windows → token ids + multi-dimensional
//!   temporal feature vectors (periodic hour/weekday/month encodings,
//!   interval and cumulative features — §III-A2's "three multi-dimensional
//!   encoding strategies").
//! * [`pretrain`] — in-domain masked-language-model pretraining on the
//!   unlabelled pool; this substitutes for public PLM checkpoints and is
//!   what gives the transformer baselines their "pretrained" advantage.
//! * [`trainer`] — the shared supervised loop: Adam, minibatch gradient
//!   accumulation, gradient clipping, early stopping on validation
//!   macro-F1, deterministic seeding.
//! * [`scale`] — the Table IV data-scale study (Large+tuning on 500 users
//!   vs Base+defaults on the full set).
//! * [`scorer`] — the inference-only [`ScoringModel`]: the XGBoost
//!   baseline's fitted extractor + booster with reusable scratch buffers
//!   and a streaming entry point; the artifact `rsd-serve` scores with.

pub mod bilstm;
pub mod encoding;
pub mod higru;
pub mod plm;
pub mod plm_infer;
pub mod pretrain;
pub mod scale;
pub mod scorer;
pub mod trainer;
pub mod xgboost;

pub use bilstm::{BiLstmBaseline, BiLstmConfig};
pub use encoding::{EncodedWindow, TaskEncoder, TIME_FEATURE_DIM};
pub use higru::{HiGruBaseline, HiGruConfig};
pub use plm::{FittedPlm, PlmBaseline, PlmConfig, PlmKind};
pub use plm_infer::{PlmInferenceModel, PlmScratch};
pub use scorer::{ScoreScratch, ScoringModel, ServeModel, StreamPost};
pub use trainer::{BenchData, EvalOutcome, TrainConfig};
pub use xgboost::{XgboostBaseline, XgboostConfig};
