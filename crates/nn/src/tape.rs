//! Reverse-mode autodiff over matrices.
//!
//! One [`Tape`] is built per training example: operations append nodes,
//! [`Tape::backward`] runs the reverse sweep, and parameter gradients are
//! harvested with [`Tape::harvest_grads`] (or read with
//! [`Tape::param_grads`]). The op set is what the RNN and transformer
//! baselines run, plus the primitive ops (`narrow_cols`, `transpose`,
//! `softmax_rows`, ...) that the whole-block attention and LSTM ops are
//! checked against bit for bit; every op's backward is verified against
//! finite differences in the test module.
//!
//! With telemetry on, every tape times its forward and backward work by op
//! kind; [`publish_op_times`] adds the totals to the
//! `models.train.op.<kind>.{fwd_ns,bwd_ns}` counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::attention::{attend_backward, attend_heads, Relative};
use crate::matrix::Matrix;
use crate::params::{GradPart, ParamId, ParamStore};
use crate::rnn::{lstm_backward, lstm_forward, Lstm, LstmCache};
use rand::rngs::StdRng;
use rand::Rng;

/// Handle to a tape node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// A constant or parameter. A parameter's first leaf on a tape holds
    /// its copy; later leaves of the same parameter keep an empty value and
    /// `shares` the first one's, each with its own gradient slot.
    Leaf {
        param: Option<ParamId>,
        shares: Option<usize>,
    },
    MatMul(Var, Var),
    Add(Var, Var),
    /// `a` (r×c) plus a 1×c row vector broadcast over rows.
    AddRow(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    Tanh(Var),
    Sigmoid(Var),
    /// GELU; caches the forward pass's tanh term for the backward.
    Gelu {
        x: Var,
        tanh: Vec<f32>,
    },
    /// Row-wise softmax; the node value caches the output.
    SoftmaxRows(Var),
    /// Row-wise layer norm with 1×c gain and bias. Caches inverse std and
    /// the normalized pre-gain activations.
    LayerNorm {
        x: Var,
        gain: Var,
        bias: Var,
        inv_std: Vec<f32>,
        normed: Matrix,
    },
    /// Embedding row gather: `weight` is V×d, value is ids.len()×d.
    Gather {
        weight: Var,
        ids: Vec<u32>,
    },
    ConcatCols(Vec<Var>),
    NarrowCols {
        x: Var,
        start: usize,
        len: usize,
    },
    ConcatRows(Vec<Var>),
    SelectRow {
        x: Var,
        row: usize,
    },
    Transpose(Var),
    MeanRows(Var),
    Dropout {
        x: Var,
        mask: Vec<f32>,
    },
    /// Fused mean cross-entropy over rows of logits; caches row softmax.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Matrix,
    },
    /// All heads of an attention block (see [`Tape::attention`]); caches
    /// each head's softmax probabilities.
    Attention {
        q: Var,
        k: Var,
        v: Var,
        rel: Option<(Var, Var, usize)>,
        probs: Vec<Matrix>,
    },
    /// One LSTM direction (see [`Tape::lstm`]): the sequence, the value
    /// leaves of its weights, their ids, and the forward cache.
    Lstm {
        x: Var,
        weights: [Var; 4],
        ids: [ParamId; 4],
        cache: Box<LstmCache>,
    },
}

/// The op kinds and their counter names, in one list: `Op::kind` and the
/// label tables both follow its order, and the `match` it expands to must
/// name every `Op` variant.
macro_rules! op_kinds {
    ($($variant:ident => $kind:literal),* $(,)?) => {
        impl Op {
            /// Index into the per-kind timing counters.
            fn kind(&self) -> usize {
                enum Kind {
                    $($variant),*
                }
                match self {
                    $(Op::$variant { .. } => Kind::$variant as usize),*
                }
            }
        }
        const N_KINDS: usize = [$($kind),*].len();
        const FWD_NS: [&str; N_KINDS] = [$(concat!("models.train.op.", $kind, ".fwd_ns")),*];
        const BWD_NS: [&str; N_KINDS] = [$(concat!("models.train.op.", $kind, ".bwd_ns")),*];
    };
}

op_kinds!(
    Leaf => "leaf",
    MatMul => "matmul",
    Add => "add",
    AddRow => "add_row",
    Mul => "mul",
    Scale => "scale",
    Tanh => "tanh",
    Sigmoid => "sigmoid",
    Gelu => "gelu",
    SoftmaxRows => "softmax_rows",
    LayerNorm => "layer_norm",
    Gather => "gather",
    ConcatCols => "concat_cols",
    NarrowCols => "narrow_cols",
    ConcatRows => "concat_rows",
    SelectRow => "select_row",
    Transpose => "transpose",
    MeanRows => "mean_rows",
    Dropout => "dropout",
    CrossEntropy => "cross_entropy",
    Attention => "attention",
    Lstm => "lstm",
);

/// Per-kind forward then backward nanoseconds of every dropped timed tape
/// not yet published. Plain statistics that guard no other data, so
/// `Relaxed` suffices.
static OP_NS: [AtomicU64; 2 * N_KINDS] = [const { AtomicU64::new(0) }; 2 * N_KINDS];

/// Add the op-kind times of every tape dropped since the last call to the
/// `models.train.op.<kind>.{fwd_ns,bwd_ns}` counters. Tapes accumulate
/// locally and fold into process-wide totals when dropped, so the
/// registry is touched once per kind here rather than once per op.
pub fn publish_op_times() {
    for (k, total) in OP_NS.iter().enumerate() {
        let ns = total.swap(0, Ordering::Relaxed);
        if ns > 0 {
            let label = if k < N_KINDS {
                FWD_NS[k]
            } else {
                BWD_NS[k - N_KINDS]
            };
            rsd_obs::counter_add(label, ns);
        }
    }
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// The autodiff tape.
pub struct Tape {
    nodes: Vec<Node>,
    /// Training mode (enables dropout).
    pub train: bool,
    /// Node holding each parameter's copy, by `ParamId` index.
    param_nodes: Vec<Option<usize>>,
    /// Forward then backward ns per op kind; `None` unless telemetry was
    /// on when the tape was created.
    op_ns: Option<Box<[u64; 2 * N_KINDS]>>,
}

impl Drop for Tape {
    fn drop(&mut self) {
        if let Some(ns) = &self.op_ns {
            for (total, &v) in OP_NS.iter().zip(ns.iter()) {
                if v > 0 {
                    total.fetch_add(v, Ordering::Relaxed);
                }
            }
        }
    }
}

fn op_timer() -> Option<Box<[u64; 2 * N_KINDS]>> {
    rsd_obs::enabled().then(|| Box::new([0; 2 * N_KINDS]))
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Fresh tape in training mode.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            train: true,
            param_nodes: Vec::new(),
            op_ns: op_timer(),
        }
    }

    /// Fresh tape in inference mode (dropout disabled).
    pub fn inference() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            train: false,
            param_nodes: Vec::new(),
            op_ns: op_timer(),
        }
    }

    /// Forward-timing start for the next op; `None` when telemetry is off.
    fn start(&self) -> Option<Instant> {
        self.op_ns.as_ref().map(|_| Instant::now())
    }

    fn push(&mut self, value: Matrix, op: Op, t0: Option<Instant>) -> Var {
        if let (Some(ns), Some(t0)) = (self.op_ns.as_deref_mut(), t0) {
            ns[op.kind()] += t0.elapsed().as_nanos() as u64;
        }
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Borrow a node's value.
    pub fn value(&self, v: Var) -> &Matrix {
        value_at(&self.nodes, v.0)
    }

    /// A copy of a leaf's gradient after `backward` (a zero matrix if the
    /// leaf received none). Only leaf gradients ([`Tape::constant`],
    /// [`Tape::param`]) survive the sweep: `backward` consumes every
    /// interior node's gradient as it propagates it.
    pub fn grad(&self, v: Var) -> Matrix {
        debug_assert!(
            matches!(self.nodes[v.0].op, Op::Leaf { .. }),
            "Tape::grad: only leaf gradients survive backward"
        );
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => {
                let val = self.value(v);
                Matrix::zeros(val.rows, val.cols)
            }
        }
    }

    /// Shape of a node.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        let m = self.value(v);
        (m.rows, m.cols)
    }

    // ---- graph construction --------------------------------------------

    /// A constant leaf (no parameter attachment).
    pub fn constant(&mut self, value: Matrix) -> Var {
        let t0 = self.start();
        self.push(
            value,
            Op::Leaf {
                param: None,
                shares: None,
            },
            t0,
        )
    }

    /// Leaf a parameter into the graph. The first use of `id` on this tape
    /// copies its value from the store; later uses share that copy, so a
    /// tape must take all its parameters from one store. Every use is its
    /// own leaf with its own gradient, harvested in node order.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let t0 = self.start();
        if self.param_nodes.len() <= id.0 {
            self.param_nodes.resize(id.0 + 1, None);
        }
        let (value, shares) = match self.param_nodes[id.0] {
            Some(first) => (Matrix::default(), Some(first)),
            None => {
                self.param_nodes[id.0] = Some(self.nodes.len());
                (store.value(id).clone(), None)
            }
        };
        self.push(
            value,
            Op::Leaf {
                param: Some(id),
                shares,
            },
            t0,
        )
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.start();
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b), t0)
    }

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.start();
        let (va, vb) = (self.value(a), self.value(b));
        assert!(va.same_shape(vb), "add shape mismatch");
        let mut value = va.clone();
        value.axpy(1.0, vb);
        self.push(value, Op::Add(a, b), t0)
    }

    /// `a + row` with `row` broadcast over `a`'s rows.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let t0 = self.start();
        let (va, vr) = (self.value(a), self.value(row));
        assert_eq!(vr.rows, 1, "add_row: bias must be 1×c");
        assert_eq!(va.cols, vr.cols, "add_row: column mismatch");
        let mut value = va.clone();
        add_row_in_place(&mut value, vr);
        self.push(value, Op::AddRow(a, row), t0)
    }

    /// Elementwise `a * b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.start();
        let (va, vb) = (self.value(a), self.value(b));
        assert!(va.same_shape(vb), "mul shape mismatch");
        let value = Matrix {
            rows: va.rows,
            cols: va.cols,
            data: va.data.iter().zip(&vb.data).map(|(&x, &y)| x * y).collect(),
        };
        self.push(value, Op::Mul(a, b), t0)
    }

    /// `a * c` for scalar `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let t0 = self.start();
        let value = self.value(a).map(|x| x * c);
        self.push(value, Op::Scale(a, c), t0)
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        let t0 = self.start();
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a), t0)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let t0 = self.start();
        let value = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(value, Op::Sigmoid(a), t0)
    }

    /// Elementwise GELU (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let t0 = self.start();
        let x = self.value(a);
        let tanh = x.map(gelu_tanh).data;
        let value = Matrix {
            rows: x.rows,
            cols: x.cols,
            data: x
                .data
                .iter()
                .zip(&tanh)
                .map(|(&x, &t)| gelu_cached(x, t))
                .collect(),
        };
        self.push(value, Op::Gelu { x: a, tanh }, t0)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t0 = self.start();
        let x = self.value(a);
        let mut value = x.clone();
        for r in 0..value.rows {
            softmax_in_place(value.row_mut(r));
        }
        self.push(value, Op::SoftmaxRows(a), t0)
    }

    /// Row-wise layer normalization with learned 1×c gain and bias.
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let t0 = self.start();
        let vx = self.value(x);
        let vg = self.value(gain);
        let vb = self.value(bias);
        assert_eq!(vg.rows, 1, "layer_norm: gain must be 1×c");
        assert_eq!(vb.rows, 1, "layer_norm: bias must be 1×c");
        assert_eq!(vx.cols, vg.cols, "layer_norm: gain width");
        assert_eq!(vx.cols, vb.cols, "layer_norm: bias width");

        let mut normed = Matrix::zeros(vx.rows, vx.cols);
        let mut inv_std = Vec::with_capacity(vx.rows);
        let mut value = Matrix::zeros(vx.rows, vx.cols);
        layer_norm_rows(
            &vx.data,
            vx.cols,
            &vg.data,
            &vb.data,
            &mut value.data,
            Some((&mut normed.data, &mut inv_std)),
        );
        self.push(
            value,
            Op::LayerNorm {
                x,
                gain,
                bias,
                inv_std,
                normed,
            },
            t0,
        )
    }

    /// Gather embedding rows: `weight` (V×d) indexed by `ids`.
    pub fn gather(&mut self, weight: Var, ids: &[u32]) -> Var {
        let t0 = self.start();
        let w = self.value(weight);
        let mut value = Matrix::zeros(ids.len(), w.cols);
        for (r, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < w.rows, "gather: id {id} out of range ({})", w.rows);
            value.row_mut(r).copy_from_slice(w.row(id));
        }
        self.push(
            value,
            Op::Gather {
                weight,
                ids: ids.to_vec(),
            },
            t0,
        )
    }

    /// Concatenate along columns (all same row count).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let t0 = self.start();
        assert!(!parts.is_empty(), "concat_cols: empty");
        let rows = self.value(parts[0]).rows;
        let total: usize = parts.iter().map(|&v| self.value(v).cols).sum();
        let mut value = Matrix::zeros(rows, total);
        let mut offset = 0;
        for &p in parts {
            let m = self.value(p);
            assert_eq!(m.rows, rows, "concat_cols: row mismatch");
            for r in 0..rows {
                value.data[r * total + offset..r * total + offset + m.cols]
                    .copy_from_slice(m.row(r));
            }
            offset += m.cols;
        }
        self.push(value, Op::ConcatCols(parts.to_vec()), t0)
    }

    /// Select a column range.
    pub fn narrow_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let t0 = self.start();
        let m = self.value(x);
        assert!(start + len <= m.cols, "narrow_cols out of range");
        let mut value = Matrix::zeros(m.rows, len);
        for r in 0..m.rows {
            value
                .row_mut(r)
                .copy_from_slice(&m.row(r)[start..start + len]);
        }
        self.push(value, Op::NarrowCols { x, start, len }, t0)
    }

    /// Concatenate along rows (all same column count).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let t0 = self.start();
        assert!(!parts.is_empty(), "concat_rows: empty");
        let cols = self.value(parts[0]).cols;
        let total: usize = parts.iter().map(|&v| self.value(v).rows).sum();
        let mut value = Matrix::zeros(total, cols);
        let mut offset = 0;
        for &p in parts {
            let m = self.value(p);
            assert_eq!(m.cols, cols, "concat_rows: column mismatch");
            value.data[offset * cols..(offset + m.rows) * cols].copy_from_slice(&m.data);
            offset += m.rows;
        }
        self.push(value, Op::ConcatRows(parts.to_vec()), t0)
    }

    /// Select one row as a 1×c matrix (CLS pooling).
    pub fn select_row(&mut self, x: Var, row: usize) -> Var {
        let t0 = self.start();
        let m = self.value(x);
        assert!(row < m.rows, "select_row out of range");
        let value = Matrix::row_vec(m.row(row).to_vec());
        self.push(value, Op::SelectRow { x, row }, t0)
    }

    /// Transposed copy.
    pub fn transpose(&mut self, x: Var) -> Var {
        let t0 = self.start();
        let value = self.value(x).transpose();
        self.push(value, Op::Transpose(x), t0)
    }

    /// Mean over rows → 1×c (mean pooling).
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let t0 = self.start();
        let m = self.value(x);
        let mut value = Matrix::zeros(1, m.cols);
        mean_rows_into(&m.data, m.rows, &mut value.data);
        self.push(value, Op::MeanRows(x), t0)
    }

    /// Inverted dropout with keep-prob scaling. In inference mode or with
    /// `p <= 0` it is the identity and returns `x` itself, adding no node.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut StdRng) -> Var {
        if !self.train || p <= 0.0 {
            return x;
        }
        let t0 = self.start();
        let keep = 1.0 - p;
        let m = self.value(x);
        let mask: Vec<f32> = (0..m.data.len())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let value = Matrix {
            rows: m.rows,
            cols: m.cols,
            data: m.data.iter().zip(&mask).map(|(&v, &k)| v * k).collect(),
        };
        self.push(value, Op::Dropout { x, mask }, t0)
    }

    /// Fused mean cross-entropy over rows of `logits` (n×C) against
    /// per-row target class indices. Returns a 1×1 loss node.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let t0 = self.start();
        let m = self.value(logits);
        assert_eq!(m.rows, targets.len(), "cross_entropy: target count");
        let mut probs = m.clone();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < m.cols, "cross_entropy: target out of range");
            softmax_in_place(probs.row_mut(r));
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len().max(1) as f32;
        self.push(
            Matrix::from_vec(1, 1, vec![loss]),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
            t0,
        )
    }

    /// Multi-head attention over projected `q`, `k`, `v` (each seq×dim,
    /// `heads` column ranges), as one node: the heads' outputs side by
    /// side (seq×dim), before the output projection. `rel` adds DeBERTa's
    /// relative terms from `(qr, kr, radius)`, the relative table through
    /// the query and key projections. The forward value is bitwise that
    /// of the per-head graph of narrows, transposes, matmuls, relative
    /// gathers, adds, scale and softmax (see [`crate::attention::attend`]),
    /// and so are the gradients when the operands are distinct nodes.
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        rel: Option<(Var, Var, usize)>,
        heads: usize,
    ) -> Var {
        let t0 = self.start();
        let rel_vals = rel.map(|(qr, kr, radius)| Relative {
            qr: self.value(qr),
            kr: self.value(kr),
            radius,
        });
        let mut probs = Vec::with_capacity(heads);
        let value = attend_heads(
            self.value(q),
            self.value(k),
            self.value(v),
            rel_vals,
            heads,
            |p| probs.push(p),
        );
        self.push(
            value,
            Op::Attention {
                q,
                k,
                v,
                rel,
                probs,
            },
            t0,
        )
    }

    /// One LSTM direction over `x` (seq×in) as one node, returning the
    /// hidden states (seq×hidden) in sequence order; `reverse` runs the
    /// steps back to front. Forward values, the input gradient and every
    /// weight gradient are bitwise those of the per-step graph (1-row
    /// matmuls, bias rows, gate narrows, elementwise gates, row selects
    /// and a row concat). As there, each step contributes its own weight
    /// gradients, harvested in step order (see [`Tape::param_grads`]).
    pub fn lstm(&mut self, store: &ParamStore, cell: &Lstm, x: Var, reverse: bool) -> Var {
        let ids = [cell.wx.w, cell.wx.b, cell.wh.w, cell.wh.b];
        let weights = ids.map(|id| self.param(store, id));
        let t0 = self.start();
        let (value, cache) = lstm_forward(self.value(x), weights.map(|v| self.value(v)), reverse);
        self.push(
            value,
            Op::Lstm {
                x,
                weights,
                ids,
                cache: Box::new(cache),
            },
            t0,
        )
    }

    // ---- backward --------------------------------------------------------

    /// Run the reverse sweep from `output` (seeded with ∂out/∂out = 1).
    ///
    /// Each interior node's gradient is taken (not copied) when its op
    /// runs, so only leaf gradients survive the sweep; see [`Tape::grad`].
    /// Contributions reach every node in the same order as a plain
    /// node-by-node sweep, so the result is independent of how the sweep
    /// borrows its operands.
    pub fn backward(&mut self, output: Var) {
        let out_val = value_at(&self.nodes, output.0);
        let seed = Matrix::full(out_val.rows, out_val.cols, 1.0);
        add_grad(&mut self.nodes[output.0], seed);
        // Parameters that are matmul right operands, transposed once per
        // sweep: a recurrent graph multiplies by the same weight at every
        // step.
        let mut transposed = HashMap::new();

        for idx in (0..=output.0).rev() {
            let node = &mut self.nodes[idx];
            if matches!(node.op, Op::Leaf { .. }) {
                continue;
            }
            let Some(grad) = node.grad.take() else {
                continue;
            };
            let t0 = self.start();
            // Parents always precede their node, so `parents` holds every
            // operand mutably next to the node itself.
            let (parents, rest) = self.nodes.split_at_mut(idx);
            let node = &mut rest[0];
            backprop(parents, node, grad, &mut transposed);
            if let (Some(ns), Some(t0)) = (self.op_ns.as_deref_mut(), t0) {
                ns[N_KINDS + node.op.kind()] += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Every parameter gradient after `backward`, in node order: each
    /// parameter leaf's matrix, and for each [`Tape::lstm`] node one
    /// rank-1 part per step and weight, steps in processing order.
    pub fn param_grads(&self) -> impl Iterator<Item = (ParamId, GradPart<'_>)> {
        const ONE: &[f32] = &[1.0];
        self.nodes.iter().flat_map(move |node| {
            let leaf = match (&node.op, &node.grad) {
                (
                    Op::Leaf {
                        param: Some(id), ..
                    },
                    Some(g),
                ) => Some((*id, GradPart::Dense(g))),
                _ => None,
            };
            let lstm = match &node.op {
                Op::Lstm { x, ids, cache, .. } if cache.gate_grads.rows > 0 => {
                    Some((value_at(&self.nodes, x.0), ids, cache))
                }
                _ => None,
            };
            let steps = lstm.into_iter().flat_map(move |(xs, ids, cache)| {
                (0..cache.steps()).flat_map(move |s| {
                    let g = cache.gate_grads.row(s);
                    let x = xs.row(cache.row_of(s));
                    let h = cache.h_prev(&node.value, s);
                    [
                        (ids[0], GradPart::Outer { x, g }),
                        (ids[1], GradPart::Outer { x: ONE, g }),
                        (ids[2], GradPart::Outer { x: h, g }),
                        (ids[3], GradPart::Outer { x: ONE, g }),
                    ]
                })
            });
            leaf.into_iter().chain(steps)
        })
    }

    /// After `backward`, push every parameter leaf's gradient into the
    /// store, in node order (see [`ParamStore::accumulate_all`]).
    pub fn harvest_grads(&self, store: &mut ParamStore) {
        store.accumulate_all(self.param_grads());
    }

    /// Number of nodes on the tape (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes were recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A node's value, following a repeated parameter leaf to the node that
/// holds the parameter's copy.
fn value_at(nodes: &[Node], i: usize) -> &Matrix {
    &nodes[value_index(nodes, i)].value
}

/// The index of the node holding node `i`'s value (see [`value_at`]).
fn value_index(nodes: &[Node], i: usize) -> usize {
    match nodes[i].op {
        Op::Leaf {
            shares: Some(src), ..
        } => src,
        _ => i,
    }
}

/// Add a gradient contribution to a node.
fn add_grad(node: &mut Node, g: Matrix) {
    match &mut node.grad {
        Some(existing) => existing.axpy(1.0, &g),
        slot @ None => *slot = Some(g),
    }
}

/// [`add_grad`] from a borrowed contribution, copied only when it is the
/// node's first.
fn add_grad_ref(node: &mut Node, g: &Matrix) {
    match &mut node.grad {
        Some(existing) => existing.axpy(1.0, g),
        slot @ None => *slot = Some(g.clone()),
    }
}

/// Elementwise `grad[i] = f(grad[i], with[i])` in place.
fn scale_by(mut grad: Matrix, with: &[f32], f: impl Fn(f32, f32) -> f32) -> Matrix {
    for (g, &w) in grad.data.iter_mut().zip(with) {
        *g = f(*g, w);
    }
    grad
}

/// Push one node's output gradient `grad` into its operands' gradients.
/// Operands (`parents`, every node before this one) are borrowed, never
/// copied; elementwise backward rules rewrite `grad` in place.
/// `transposed` holds the transposes of parameters already formed in this
/// sweep as matmul right operands, by the index of the node holding the
/// parameter's value.
fn backprop(
    parents: &mut [Node],
    node: &mut Node,
    grad: Matrix,
    transposed: &mut HashMap<usize, Matrix>,
) {
    // The LSTM op keeps its gate gradients for the weight harvest.
    if let Op::Lstm {
        x, weights, cache, ..
    } = &mut node.op
    {
        let dx = lstm_backward(
            cache,
            value_at(parents, weights[0].0),
            value_at(parents, weights[2].0),
            &grad,
        );
        add_grad(&mut parents[x.0], dx);
        return;
    }
    match &node.op {
        Op::Leaf { .. } => {}
        Op::MatMul(a, b) => {
            let src = value_index(parents, b.0);
            let da = if let Op::Leaf { param: Some(_), .. } = parents[src].op {
                let bt = transposed
                    .entry(src)
                    .or_insert_with(|| parents[src].value.transpose());
                grad.matmul_dot4(bt)
            } else {
                grad.matmul_nt(&parents[src].value)
            };
            let db = value_at(parents, a.0).matmul_tn(&grad);
            add_grad(&mut parents[a.0], da);
            add_grad(&mut parents[b.0], db);
        }
        Op::Add(a, b) => {
            add_grad_ref(&mut parents[a.0], &grad);
            add_grad(&mut parents[b.0], grad);
        }
        Op::AddRow(a, row) => {
            let mut drow = Matrix::zeros(1, grad.cols);
            for r in 0..grad.rows {
                for (o, &g) in drow.data.iter_mut().zip(grad.row(r)) {
                    *o += g;
                }
            }
            add_grad(&mut parents[a.0], grad);
            add_grad(&mut parents[row.0], drow);
        }
        Op::Mul(a, b) => {
            let mul = |v: &Matrix| Matrix {
                rows: grad.rows,
                cols: grad.cols,
                data: grad
                    .data
                    .iter()
                    .zip(&v.data)
                    .map(|(&g, &v)| g * v)
                    .collect(),
            };
            let da = mul(value_at(parents, b.0));
            let db = mul(value_at(parents, a.0));
            add_grad(&mut parents[a.0], da);
            add_grad(&mut parents[b.0], db);
        }
        Op::Scale(a, c) => {
            let c = *c;
            let mut da = grad;
            da.data.iter_mut().for_each(|g| *g *= c);
            add_grad(&mut parents[a.0], da);
        }
        Op::Tanh(a) => {
            let da = scale_by(grad, &node.value.data, |g, y| g * (1.0 - y * y));
            add_grad(&mut parents[a.0], da);
        }
        Op::Sigmoid(a) => {
            let da = scale_by(grad, &node.value.data, |g, y| g * y * (1.0 - y));
            add_grad(&mut parents[a.0], da);
        }
        Op::Gelu { x, tanh } => {
            let vx = &value_at(parents, x.0).data;
            let mut da = grad;
            for ((g, &xv), &t) in da.data.iter_mut().zip(vx).zip(tanh) {
                *g *= gelu_grad_cached(xv, t);
            }
            add_grad(&mut parents[x.0], da);
        }
        Op::SoftmaxRows(a) => {
            let mut da = grad;
            softmax_backward(&mut da, &node.value);
            add_grad(&mut parents[a.0], da);
        }
        Op::LayerNorm {
            x,
            gain,
            bias,
            inv_std,
            normed,
        } => {
            let vg = value_at(parents, gain.0);
            let n = grad.cols as f32;
            let mut dgain = Matrix::zeros(1, grad.cols);
            let mut dbias = Matrix::zeros(1, grad.cols);
            let mut dx = Matrix::zeros(grad.rows, grad.cols);
            let mut dn = vec![0.0f32; grad.cols];
            for (r, &istd) in inv_std.iter().enumerate().take(grad.rows) {
                let g_row = grad.row(r);
                let n_row = normed.row(r);
                for c in 0..grad.cols {
                    dgain.data[c] += g_row[c] * n_row[c];
                    dbias.data[c] += g_row[c];
                }
                // dnormed = g * gain
                for ((d, &g), &w) in dn.iter_mut().zip(g_row).zip(&vg.data) {
                    *d = g * w;
                }
                let sum_dn: f32 = dn.iter().sum();
                let sum_dn_n: f32 = dn.iter().zip(n_row).map(|(&d, &m)| d * m).sum();
                for (c, o) in dx.row_mut(r).iter_mut().enumerate() {
                    *o = istd * (dn[c] - sum_dn / n - n_row[c] * sum_dn_n / n);
                }
            }
            add_grad(&mut parents[x.0], dx);
            add_grad(&mut parents[gain.0], dgain);
            add_grad(&mut parents[bias.0], dbias);
        }
        Op::Gather { weight, ids } => {
            let w = value_at(parents, weight.0);
            let mut dw = Matrix::zeros(w.rows, w.cols);
            for (r, &id) in ids.iter().enumerate() {
                let dst = dw.row_mut(id as usize);
                for (o, &g) in dst.iter_mut().zip(grad.row(r)) {
                    *o += g;
                }
            }
            add_grad(&mut parents[weight.0], dw);
        }
        Op::ConcatCols(parts) => {
            let mut offset = 0;
            for p in parts {
                let cols = value_at(parents, p.0).cols;
                let mut dp = Matrix::zeros(grad.rows, cols);
                for r in 0..grad.rows {
                    dp.row_mut(r)
                        .copy_from_slice(&grad.row(r)[offset..offset + cols]);
                }
                offset += cols;
                add_grad(&mut parents[p.0], dp);
            }
        }
        Op::NarrowCols { x, start, len } => {
            let (start, len) = (*start, *len);
            let full = value_at(parents, x.0);
            let mut dx = Matrix::zeros(full.rows, full.cols);
            for r in 0..grad.rows {
                dx.row_mut(r)[start..start + len].copy_from_slice(grad.row(r));
            }
            add_grad(&mut parents[x.0], dx);
        }
        Op::ConcatRows(parts) => {
            let mut offset = 0;
            for p in parts {
                let rows = value_at(parents, p.0).rows;
                let dp = Matrix::from_vec(
                    rows,
                    grad.cols,
                    grad.data[offset * grad.cols..(offset + rows) * grad.cols].to_vec(),
                );
                offset += rows;
                add_grad(&mut parents[p.0], dp);
            }
        }
        Op::SelectRow { x, row } => {
            let full = value_at(parents, x.0);
            let mut dx = Matrix::zeros(full.rows, full.cols);
            dx.row_mut(*row).copy_from_slice(grad.row(0));
            add_grad(&mut parents[x.0], dx);
        }
        Op::Transpose(x) => add_grad(&mut parents[x.0], grad.transpose()),
        Op::MeanRows(x) => {
            let rows = value_at(parents, x.0).rows;
            let scale = 1.0 / rows.max(1) as f32;
            let mut dx = Matrix::zeros(rows, grad.cols);
            for r in 0..rows {
                for (o, &g) in dx.row_mut(r).iter_mut().zip(grad.row(0)) {
                    *o = g * scale;
                }
            }
            add_grad(&mut parents[x.0], dx);
        }
        Op::Dropout { x, mask } => {
            let dx = scale_by(grad, mask, |g, m| g * m);
            add_grad(&mut parents[x.0], dx);
        }
        Op::CrossEntropy {
            logits,
            targets,
            probs,
        } => {
            let upstream = grad.data[0];
            let n = targets.len().max(1) as f32;
            let mut dl = Matrix::zeros(probs.rows, probs.cols);
            for (r, &t) in targets.iter().enumerate() {
                for (c, (o, &p)) in dl.row_mut(r).iter_mut().zip(probs.row(r)).enumerate() {
                    let d = if c == t { p - 1.0 } else { p };
                    *o = d * (upstream / n);
                }
            }
            add_grad(&mut parents[logits.0], dl);
        }
        Op::Attention {
            q,
            k,
            v,
            rel,
            probs,
        } => {
            let rel_vals = rel.map(|(qr, kr, radius)| Relative {
                qr: value_at(parents, qr.0),
                kr: value_at(parents, kr.0),
                radius,
            });
            let [dq, dk, dv, dqr, dkr] = attend_backward(
                value_at(parents, q.0),
                value_at(parents, k.0),
                value_at(parents, v.0),
                rel_vals,
                probs,
                &grad,
            );
            add_grad(&mut parents[q.0], dq);
            add_grad(&mut parents[k.0], dk);
            add_grad(&mut parents[v.0], dv);
            if let Some((qr, kr, _)) = rel {
                add_grad(&mut parents[qr.0], dqr);
                add_grad(&mut parents[kr.0], dkr);
            }
        }
        Op::Lstm { .. } => unreachable!("handled above"),
    }
}

/// Softmax backward in place: each row of `grad` becomes
/// `y * (grad - grad·y)` for the forward output row `y`.
pub(crate) fn softmax_backward(grad: &mut Matrix, y: &Matrix) {
    for r in 0..grad.rows {
        let y_row = y.row(r);
        let g_row = grad.row_mut(r);
        let dot: f32 = g_row.iter().zip(y_row).map(|(&g, &y)| g * y).sum();
        for (g, &y) in g_row.iter_mut().zip(y_row) {
            *g = y * (*g - dot);
        }
    }
}

/// Stable in-place softmax over a slice.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

// ---- forward formulas shared with tape-free inference (`crate::infer`) ----

/// Add a `1×c` bias row to every row of `x`.
pub fn add_row_in_place(x: &mut Matrix, bias: &Matrix) {
    debug_assert_eq!(bias.rows, 1);
    debug_assert_eq!(x.cols, bias.cols);
    for r in 0..x.rows {
        for (o, &b) in x.row_mut(r).iter_mut().zip(&bias.data) {
            *o += b;
        }
    }
}

/// Row-wise layer norm of the row-major, `cols`-wide `x` into `out`:
/// EPS `1e-5`, biased variance, learned `gain`/`bias`. With `cache`,
/// also records the pre-affine normalized values and each row's inverse
/// standard deviation, which the backward pass reads.
pub fn layer_norm_rows(
    x: &[f32],
    cols: usize,
    gain: &[f32],
    bias: &[f32],
    out: &mut [f32],
    mut cache: Option<(&mut [f32], &mut Vec<f32>)>,
) {
    const EPS: f32 = 1e-5;
    for (r, (row, o)) in x
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut(cols))
        .enumerate()
    {
        let mean: f32 = row.iter().sum::<f32>() / cols as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        for (o, &xv) in o.iter_mut().zip(row) {
            *o = (xv - mean) * istd;
        }
        if let Some((normed, inv_std)) = cache.as_mut() {
            normed[r * cols..(r + 1) * cols].copy_from_slice(o);
            inv_std.push(istd);
        }
        for ((o, &g), &b) in o.iter_mut().zip(gain).zip(bias) {
            *o = *o * g + b;
        }
    }
}

/// GELU, tanh approximation.
pub fn gelu_scalar(x: f32) -> f32 {
    gelu_cached(x, gelu_tanh(x))
}

/// Mean over the `rows` rows of the row-major `x` into `out` (`out.len()`
/// columns).
pub fn mean_rows_into(x: &[f32], rows: usize, out: &mut [f32]) {
    let cols = out.len();
    out.fill(0.0);
    for r in 0..rows {
        for (o, &v) in out.iter_mut().zip(&x[r * cols..(r + 1) * cols]) {
            *o += v;
        }
    }
    let n = rows.max(1) as f32;
    for o in out {
        *o /= n;
    }
}

/// `sqrt(2/π)`, the GELU tanh approximation's inner scale.
const GELU_C: f32 = 0.797_884_6;

/// The tanh term of the GELU approximation, `tanh(C·(x + 0.044715·x³))`,
/// shared by the forward value and the derivative.
fn gelu_tanh(x: f32) -> f32 {
    (GELU_C * (x + 0.044715 * x * x * x)).tanh()
}

/// GELU (tanh approximation) from its cached tanh term `t = gelu_tanh(x)`.
fn gelu_cached(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// d/dx of the tanh-approximated GELU from its cached tanh term.
fn gelu_grad_cached(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference check: builds the graph twice per perturbed input
    /// entry and compares ∂loss/∂x with the tape's gradient.
    fn check_grad(build: impl Fn(&mut Tape, Var) -> Var, input: Matrix, tol: f32) {
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.constant(input.clone());
        let out = build(&mut tape, x);
        // Reduce to scalar by summing (seeding with ones does this).
        tape.backward(out);
        let analytic = tape.grad(x);

        // Numeric gradient.
        let eps = 1e-2f32;
        let eval = |m: &Matrix| -> f32 {
            let mut t = Tape::new();
            let v = t.constant(m.clone());
            let o = build(&mut t, v);
            t.value(o).data.iter().sum()
        };
        for i in 0..input.data.len() {
            let mut plus = input.clone();
            plus.data[i] += eps;
            let mut minus = input.clone();
            minus.data[i] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let got = analytic.data[i];
            assert!(
                (numeric - got).abs() < tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: numeric {numeric}, analytic {got}"
            );
        }
    }

    fn test_input() -> Matrix {
        Matrix::from_vec(2, 3, vec![0.5, -1.0, 2.0, 0.1, 0.7, -0.3])
    }

    #[test]
    fn grad_matmul() {
        let w = Matrix::from_vec(3, 2, vec![0.2, -0.4, 1.0, 0.3, -0.6, 0.9]);
        check_grad(
            move |t, x| {
                let w = t.constant(w.clone());
                t.matmul(x, w)
            },
            test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_add_and_mul() {
        let other = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.25]);
        let o2 = other.clone();
        check_grad(
            move |t, x| {
                let o = t.constant(other.clone());
                t.add(x, o)
            },
            test_input(),
            1e-2,
        );
        check_grad(
            move |t, x| {
                let o = t.constant(o2.clone());
                t.mul(x, o)
            },
            test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_add_row() {
        let bias = Matrix::row_vec(vec![0.3, -0.2, 0.8]);
        check_grad(
            move |t, x| {
                let b = t.constant(bias.clone());
                t.add_row(x, b)
            },
            test_input(),
            1e-2,
        );
        // Bias side.
        let base = test_input();
        check_grad(
            move |t, b| {
                let x = t.constant(base.clone());
                t.add_row(x, b)
            },
            Matrix::row_vec(vec![0.3, -0.2, 0.8]),
            1e-2,
        );
    }

    #[test]
    fn grad_activations() {
        check_grad(|t, x| t.tanh(x), test_input(), 2e-2);
        check_grad(|t, x| t.sigmoid(x), test_input(), 2e-2);
        check_grad(|t, x| t.gelu(x), test_input(), 3e-2);
    }

    #[test]
    fn grad_softmax_rows() {
        // Compose with a weighting so the gradient isn't identically zero
        // (softmax rows sum to 1, so a plain sum has zero gradient).
        let weights = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.3, 2.0, -1.0]);
        check_grad(
            move |t, x| {
                let s = t.softmax_rows(x);
                let w = t.constant(weights.clone());
                t.mul(s, w)
            },
            test_input(),
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        let gain = Matrix::row_vec(vec![1.2, 0.8, 1.0]);
        let bias = Matrix::row_vec(vec![0.1, -0.1, 0.0]);
        let weights = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.3, 2.0, -1.0]);
        check_grad(
            move |t, x| {
                let g = t.constant(gain.clone());
                let b = t.constant(bias.clone());
                let ln = t.layer_norm(x, g, b);
                let w = t.constant(weights.clone());
                t.mul(ln, w)
            },
            test_input(),
            5e-2,
        );
    }

    #[test]
    fn grad_gather() {
        check_grad(
            |t, w| t.gather(w, &[2, 0, 2]),
            Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_narrow_select() {
        check_grad(
            |t, x| {
                let a = t.narrow_cols(x, 0, 2);
                let b = t.narrow_cols(x, 1, 2);
                let c = t.concat_cols(&[a, b]);
                t.select_row(c, 1)
            },
            test_input(),
            1e-2,
        );
        check_grad(
            |t, x| {
                let a = t.select_row(x, 0);
                let b = t.select_row(x, 1);
                t.concat_rows(&[a, b])
            },
            test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_transpose_mean() {
        check_grad(|t, x| t.transpose(x), test_input(), 1e-2);
        check_grad(|t, x| t.mean_rows(x), test_input(), 1e-2);
    }

    #[test]
    fn grad_cross_entropy() {
        check_grad(|t, x| t.cross_entropy(x, &[2, 0]), test_input(), 2e-2);
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut tape = Tape::inference();
        let x = tape.constant(test_input());
        let mut rng = StdRng::seed_from_u64(3);
        let y = tape.dropout(x, 0.5, &mut rng);
        assert_eq!(y, x, "inference dropout adds no node");
        let mut tape = Tape::new();
        let x = tape.constant(test_input());
        assert_eq!(tape.dropout(x, 0.0, &mut rng), x, "p = 0 adds no node");
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn dropout_scales_by_keep_prob() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(10, 10, 1.0));
        let mut rng = StdRng::seed_from_u64(4);
        let y = tape.dropout(x, 0.5, &mut rng);
        let vals = &tape.value(y).data;
        assert!(vals.iter().all(|&v| v == 0.0 || v == 2.0));
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!((mean - 1.0).abs() < 0.3, "inverted dropout keeps scale");
    }

    #[test]
    fn cross_entropy_value_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.constant(Matrix::from_vec(1, 3, vec![0.0, 0.0, 0.0]));
        let loss = tape.cross_entropy(logits, &[1]);
        assert!((tape.value(loss).data[0] - 3.0f32.ln()).abs() < 1e-5);
        // More confidence in the target lowers the loss.
        let weak = tape.constant(Matrix::from_vec(1, 2, vec![0.1, 0.0]));
        let strong = tape.constant(Matrix::from_vec(1, 2, vec![5.0, 0.0]));
        let l_weak = tape.cross_entropy(weak, &[0]);
        let l_strong = tape.cross_entropy(strong, &[0]);
        assert!(tape.value(l_strong).data[0] < tape.value(l_weak).data[0]);
    }

    #[test]
    fn param_grads_harvested() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let mut tape = Tape::new();
        let w = tape.param(&store, id);
        let x = tape.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let y = tape.matmul(x, w);
        tape.backward(y);
        tape.harvest_grads(&mut store);
        // dL/dw = xᵀ @ ones(1×2)
        assert_eq!(store.grad(id).data, vec![3.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn op_times_reach_counters_when_telemetry_is_on() {
        // Tapes built by tests running alongside also land in the
        // process-wide totals, so only this tape's own kinds are checked,
        // and only for being counted at all.
        let ns = |label: &str| rsd_obs::registry().counter(label);
        rsd_obs::capture(|| {
            let mut tape = Tape::new();
            assert!(tape.op_ns.is_some());
            let x = tape.constant(test_input());
            let w = tape.constant(Matrix::full(3, 2, 0.5));
            let y = tape.matmul(x, w);
            let z = tape.tanh(y);
            tape.backward(z);
            drop(tape);
            publish_op_times();
            for label in [
                "models.train.op.matmul.fwd_ns",
                "models.train.op.matmul.bwd_ns",
                "models.train.op.tanh.fwd_ns",
                "models.train.op.tanh.bwd_ns",
            ] {
                assert!(ns(label) > 0, "{label} not counted");
            }
        });
    }

    /// The GELU formulas as they stood before the tape cached the tanh
    /// term: the forward and the derivative each evaluate it.
    fn gelu_uncached(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/π)
        0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }

    fn gelu_grad_uncached(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let inner = C * (x + 0.044715 * x * x * x);
        let t = inner.tanh();
        let dinner = C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    }

    #[test]
    fn cached_tanh_gelu_matches_uncached_formulas_bitwise() {
        let mut xs: Vec<f32> = (-4000..=4000).map(|i| i as f32 * 1.7e-3).collect();
        xs.extend([0.0, -0.0, 1e-40, -1e-40, 9.5, -9.5, 30.0, -30.0]);
        let n = xs.len();
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(1, n, xs.clone()));
        let y = tape.gelu(x);
        let up: Vec<f32> = (0..n).map(|i| 0.25 + (i % 7) as f32 * 0.5).collect();
        let w = tape.constant(Matrix::from_vec(1, n, up.clone()));
        let out = tape.mul(y, w);
        tape.backward(out);
        let (value, grad) = (tape.value(y).clone(), tape.grad(x));
        for (i, &xv) in xs.iter().enumerate() {
            assert_eq!(
                value.data[i].to_bits(),
                gelu_uncached(xv).to_bits(),
                "gelu({xv})"
            );
            let want = up[i] * gelu_grad_uncached(xv);
            assert_eq!(grad.data[i].to_bits(), want.to_bits(), "gelu'({xv})");
        }
    }

    #[test]
    fn repeated_params_share_one_copy_with_separate_gradients() {
        let mut store = ParamStore::new();
        let id = store.register("w", Matrix::from_vec(1, 2, vec![2.0, -1.0]));
        let mut tape = Tape::new();
        let w1 = tape.param(&store, id);
        let x = tape.constant(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let w2 = tape.param(&store, id);
        assert_eq!(tape.value(w2), store.value(id));
        assert_eq!(tape.shape(w2), (1, 2));
        let a = tape.mul(w1, x);
        let b = tape.mul(w2, w2);
        let y = tape.add(a, b);
        tape.backward(y);
        // d/dw1 = x; d/dw2 = 2·w (both uses of w2 feed one leaf).
        assert_eq!(tape.grad(w1).data, vec![3.0, 4.0]);
        assert_eq!(tape.grad(w2).data, vec![4.0, -2.0]);
        let grads: Vec<_> = tape
            .param_grads()
            .map(|(p, g)| match g {
                GradPart::Dense(g) => (p, g.data.clone()),
                GradPart::Outer { .. } => unreachable!("no lstm on this tape"),
            })
            .collect();
        assert_eq!(grads, vec![(id, vec![3.0, 4.0]), (id, vec![4.0, -2.0])]);
        tape.harvest_grads(&mut store);
        assert_eq!(store.grad(id).data, vec![7.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_across_paths() {
        // y = x + x → dy/dx = 2
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(1, 1, vec![5.0]));
        let y = tape.add(x, x);
        tape.backward(y);
        assert_eq!(tape.grad(x).data, vec![2.0]);
    }
}
