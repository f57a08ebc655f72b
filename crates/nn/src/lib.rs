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
//!   activations, row softmax, layer norm, embedding gather, column
//!   narrow/concat, pooling, dropout, and whole-block attention and LSTM
//!   ops).
//! * [`params`] — a parameter store with named registration and gradient
//!   accumulation.
//! * [`layers`] — Linear / Embedding / LayerNorm modules over the tape.
//! * [`rnn`] — LSTM and GRU cells run forward or reversed over a sequence.
//! * [`attention`] — multi-head self-attention, with an optional
//!   relative-position table for the disentangled content/position
//!   (DeBERTa-style) scores.
//! * [`transformer`] — pre-norm encoder blocks and the small encoder stack
//!   used by the PLM baselines, plus the MLM pretraining head.
//! * [`optim`] — Adam.
//! * [`loss`] — argmax and class-balancing weights; the cross-entropy
//!   itself is a fused tape op.
//! * [`mathf`] — `tanh` and `exp` for every f32 op that needs them:
//!   ports of glibc 2.36's `tanhf` and `expf`, scalar and 8-lane AVX2.
//! * [`infer`] — tape-free inference ops that compute through the
//!   training forward's own formulas, plus the fast approximate
//!   transcendentals of the int8 path.
//! * [`quant`] — per-channel symmetric int8 quantization and the
//!   i8×i8→i32 GEMM kernels behind the inference fast path.
//!
//! Everything is seed-deterministic. Kernels, gradient harvest and batched
//! scoring fan out on the `rsd-par` pool, and their results are bitwise
//! the same for any thread count; sizes are chosen so the full Table III
//! benchmark trains on CPU in minutes. The f32 path calls no libm
//! transcendental: its `tanh` and `exp` are the [`mathf`] ports, checked
//! on every f32 input against glibc 2.36 on x86-64, so trained bits do
//! not depend on the host's libm or on which of its variants the loader
//! picks. On hosts without FMA, the scalar `expf` port's `mul_add` is a
//! libm `fma` call: exact but slower, as with the portable product
//! kernels.

pub mod attention;
pub mod infer;
pub mod layers;
pub mod loss;
pub mod mathf;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod quant;
pub mod rnn;
pub mod tape;
pub mod transformer;

pub use matrix::Matrix;
pub use optim::Adam;
pub use params::{GradPart, ParamId, ParamStore};
pub use quant::QuantizedWeight;
pub use tape::{Tape, Var};
