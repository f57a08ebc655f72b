#![warn(missing_docs)]

//! Minimal neural-network substrate for the RSD-15K baselines.
//!
//! The paper fine-tunes RoBERTa/DeBERTa and trains BiLSTM/HiGRU models; in
//! this reproduction those are built from scratch on a small, deterministic
//! f32 stack:
//!
//! * [`matrix`] — a dense row-major matrix with the handful of BLAS-like
//!   kernels training needs (`matmul` in NN/NT/TN layouts, axpy, etc.).
//! * [`tape`] — reverse-mode autodiff over matrices: build a graph per
//!   example, call [`tape::Tape::backward`], read gradients off leaf nodes.
//!   Covers the op set transformers and RNNs need (matmul, broadcasts,
//!   activations, row-softmax with additive masks, layer norm, embedding
//!   gather, column narrow/concat, pooling, dropout).
//! * [`params`] — a parameter store with named registration, gradient
//!   accumulation and serialization.
//! * [`layers`] — Linear / Embedding / LayerNorm modules over the tape.
//! * [`rnn`] — LSTM and GRU cells and bidirectional runners.
//! * [`attention`] — multi-head self-attention, in both the absolute-
//!   position (RoBERTa-style) and disentangled content/position
//!   (DeBERTa-style) variants.
//! * [`transformer`] — pre-norm encoder blocks and the small encoder stack
//!   used by the PLM baselines, plus the MLM pretraining head.
//! * [`optim`] — Adam; [`schedule`] — warmup/decay LR schedules.
//! * [`loss`] — cross-entropy from logits.
//! * [`infer`] — frozen-weight inference: [`infer::InferenceModel`]
//!   snapshots a trained store with no tape or optimizer state, and the
//!   tape-free ops compute through the training forward's own formulas.
//! * [`quant`] — per-channel symmetric int8 quantization and the
//!   i8×i8→i32 GEMM kernels behind the inference fast path.
//!
//! Everything is seed-deterministic and single-threaded (the reproduction
//! environment is a single-core machine); sizes are chosen so the full
//! Table III benchmark trains on CPU in minutes.

pub mod attention;
pub mod infer;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod quant;
pub mod rnn;
pub mod schedule;
pub mod tape;
pub mod transformer;

pub use infer::{FrozenParams, InferenceModel};
pub use matrix::Matrix;
pub use optim::Adam;
pub use params::{GradPart, ParamId, ParamStore};
pub use quant::QuantizedMatrix;
pub use tape::{Tape, Var};
