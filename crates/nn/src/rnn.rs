//! Recurrent cells: LSTM and GRU, each run forward or reversed over a
//! sequence.
//!
//! Cells operate on single-sequence matrices (seq_len × dim). An [`Lstm`]
//! direction is one [`Tape::lstm`] node with a hand-written backward; a
//! [`Gru`] builds one tape node chain per time step. The BiLSTM baseline
//! runs one [`Lstm`] forward and backward; HiGRU stacks two [`Gru`] levels
//! (token-level and post-level).

use rand::rngs::StdRng;

use crate::layers::Linear;
use crate::mathf;
use crate::matrix::{dot4_into, matmul_into, Matrix};
use crate::params::ParamStore;
use crate::tape::{sigmoid_in_place, Tape, Var};

/// LSTM cell parameters (fused gate projection: `[i f g o]`).
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input projection (in → 4·hidden).
    pub wx: Linear,
    /// Recurrent projection (hidden → 4·hidden).
    pub wh: Linear,
    /// Hidden width.
    pub hidden: usize,
}

impl Lstm {
    /// Register an LSTM cell.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> Self {
        Lstm {
            wx: Linear::new(store, &format!("{name}.wx"), input, 4 * hidden, rng),
            wh: Linear::new(store, &format!("{name}.wh"), hidden, 4 * hidden, rng),
            hidden,
        }
    }

    /// Run over a sequence (seq×in), returning per-step hidden states
    /// (seq×hidden). `reverse` processes the sequence back-to-front but
    /// returns outputs in original order. The whole direction is one
    /// [`Tape::lstm`] node.
    pub fn run(&self, tape: &mut Tape, store: &ParamStore, sequence: Var, reverse: bool) -> Var {
        tape.lstm(store, self, sequence, reverse)
    }
}

/// What one [`Tape::lstm`] node keeps from its forward pass for the
/// backward pass and its weight gradients. Steps are indexed in
/// processing order; [`LstmCache::row_of`] maps a step to its row.
#[derive(Debug)]
pub(crate) struct LstmCache {
    reverse: bool,
    /// Post-activation gates `[i f g o]`, one 4·hidden row per step.
    acts: Matrix,
    /// Cell state after each step.
    cells: Matrix,
    /// `tanh` of each cell state.
    tanh_cells: Matrix,
    /// Gate pre-activation gradients, one 4·hidden row per step; 0×0
    /// until the backward pass has run.
    pub(crate) gate_grads: Matrix,
    /// The zero initial hidden and cell state.
    zeros: Vec<f32>,
}

impl LstmCache {
    /// Number of steps.
    pub(crate) fn steps(&self) -> usize {
        self.acts.rows
    }

    /// Sequence row that step `s` reads and writes.
    pub(crate) fn row_of(&self, s: usize) -> usize {
        if self.reverse {
            self.steps() - 1 - s
        } else {
            s
        }
    }

    /// Hidden state entering step `s`, given the node's output `out`.
    pub(crate) fn h_prev<'a>(&'a self, out: &'a Matrix, s: usize) -> &'a [f32] {
        match s {
            0 => &self.zeros,
            _ => out.row(self.row_of(s - 1)),
        }
    }

    fn c_prev(&self, s: usize) -> &[f32] {
        match s {
            0 => &self.zeros,
            _ => self.cells.row(s - 1),
        }
    }
}

/// One LSTM direction over `x` (seq×in): the input projection as one
/// seq×4H GEMM, then per step one `h·Wh` GEMV and the gate math. Values
/// are bit-identical to the per-step graph of 1-row matmuls, bias rows,
/// gate narrows and elementwise nodes (same kernels, same order).
/// Returns the hidden states in sequence order and the cache.
pub(crate) fn lstm_forward(
    x: &Matrix,
    [wx, bx, wh, bh]: [&Matrix; 4],
    reverse: bool,
) -> (Matrix, LstmCache) {
    let (n, hidden) = (x.rows, wh.rows);
    let gw = 4 * hidden;
    assert!(wx.cols == gw && wh.cols == gw, "lstm: gate width");
    assert!(
        bx.data.len() == gw && bh.data.len() == gw,
        "lstm: bias width"
    );
    let mut gx = x.matmul(wx);
    for r in 0..n {
        for (o, &b) in gx.row_mut(r).iter_mut().zip(&bx.data) {
            *o += b;
        }
    }
    let mut out = Matrix::zeros(n, hidden);
    let mut cache = LstmCache {
        reverse,
        acts: Matrix::zeros(n, gw),
        cells: Matrix::zeros(n, hidden),
        tanh_cells: Matrix::zeros(n, hidden),
        gate_grads: Matrix::default(),
        zeros: vec![0.0; hidden],
    };
    let mut gh = vec![0.0f32; gw];
    let mut h = vec![0.0f32; hidden];
    for s in 0..n {
        let t = cache.row_of(s);
        matmul_into(&h, &wh.data, &mut gh);
        let acts = cache.acts.row_mut(s);
        for (j, a) in acts.iter_mut().enumerate() {
            *a = gx.get(t, j) + (gh[j] + bh.data[j]);
        }
        // Gates i, f and o are sigmoids, the candidate g a tanh.
        let (if_gates, go) = acts.split_at_mut(2 * hidden);
        let (g_gate, o_gate) = go.split_at_mut(hidden);
        sigmoid_in_place(if_gates);
        mathf::tanh_slice(g_gate);
        sigmoid_in_place(o_gate);
        let (prev, rest) = cache.cells.data.split_at_mut(s * hidden);
        let c_prev = if s == 0 {
            &cache.zeros[..]
        } else {
            &prev[(s - 1) * hidden..]
        };
        let acts = cache.acts.row(s);
        for j in 0..hidden {
            let (i, f, g) = (acts[j], acts[hidden + j], acts[2 * hidden + j]);
            rest[j] = f * c_prev[j] + i * g;
        }
        let tc = cache.tanh_cells.row_mut(s);
        tc.copy_from_slice(&rest[..hidden]);
        mathf::tanh_slice(tc);
        for ((h, &o), &tc) in h.iter_mut().zip(&acts[3 * hidden..]).zip(&*tc) {
            *h = o * tc;
        }
        out.row_mut(t).copy_from_slice(&h);
    }
    (out, cache)
}

/// Backpropagation through time for [`lstm_forward`]: from the output
/// gradient `g_out` (seq×hidden), store each step's gate gradient in the
/// cache and return the input gradient.
/// Every product and sum is the per-step graph's, in its reverse-sweep
/// order. The graph's zero-padded gate narrows and row selects also added
/// `+0.0` to the gate and input gradients, turning `-0.0` into `+0.0`;
/// that is left out, as every consumer treats both zeros alike: the
/// `dot4` products of `matmul_nt` never sum to `-0.0`, and
/// [`crate::params::GradPart::Outer`] maps a zero factor to `+0.0`.
pub(crate) fn lstm_backward(
    cache: &mut LstmCache,
    wx: &Matrix,
    wh: &Matrix,
    g_out: &Matrix,
) -> Matrix {
    let (n, hidden) = (cache.steps(), cache.zeros.len());
    let mut gg = Matrix::zeros(n, 4 * hidden);
    let mut dh = vec![0.0f32; hidden];
    let mut dc = vec![0.0f32; hidden];
    let wht = wh.transpose();
    for s in (0..n).rev() {
        let last = s + 1 == n;
        let (acts, tc, c_prev) = (cache.acts.row(s), cache.tanh_cells.row(s), cache.c_prev(s));
        let gout = g_out.row(cache.row_of(s));
        let grow = gg.row_mut(s);
        for j in 0..hidden {
            let (i, f, g, o) = (
                acts[j],
                acts[hidden + j],
                acts[2 * hidden + j],
                acts[3 * hidden + j],
            );
            let gh = if last { gout[j] } else { gout[j] + dh[j] };
            let d_o = gh * tc[j];
            let d_c = gh * o * (1.0 - tc[j] * tc[j]);
            let gc = if last { d_c } else { dc[j] + d_c };
            let (d_i, d_f, d_g) = (gc * g, gc * c_prev[j], gc * i);
            dc[j] = gc * f;
            grow[j] = d_i * i * (1.0 - i);
            grow[hidden + j] = d_f * f * (1.0 - f);
            grow[2 * hidden + j] = d_g * (1.0 - g * g);
            grow[3 * hidden + j] = d_o * o * (1.0 - o);
        }
        if s > 0 {
            dot4_into(grow, 4 * hidden, &wht.data, hidden, &mut dh);
        }
    }
    let by_step = gg.matmul_nt(wx);
    let mut dx = Matrix::zeros(n, wx.rows);
    for s in 0..n {
        dx.row_mut(cache.row_of(s)).copy_from_slice(by_step.row(s));
    }
    cache.gate_grads = gg;
    dx
}

/// GRU cell parameters (fused `[z r]` projections plus candidate).
#[derive(Debug, Clone)]
pub struct Gru {
    /// Input projection for the update/reset gates (in → 2·hidden).
    pub wx_zr: Linear,
    /// Recurrent projection for the gates (hidden → 2·hidden).
    pub wh_zr: Linear,
    /// Input projection for the candidate (in → hidden).
    pub wx_n: Linear,
    /// Recurrent projection for the candidate (hidden → hidden).
    pub wh_n: Linear,
    /// Hidden width.
    pub hidden: usize,
}

impl Gru {
    /// Register a GRU cell.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input: usize,
        hidden: usize,
        rng: &mut StdRng,
    ) -> Self {
        Gru {
            wx_zr: Linear::new(store, &format!("{name}.wx_zr"), input, 2 * hidden, rng),
            wh_zr: Linear::new(store, &format!("{name}.wh_zr"), hidden, 2 * hidden, rng),
            wx_n: Linear::new(store, &format!("{name}.wx_n"), input, hidden, rng),
            wh_n: Linear::new(store, &format!("{name}.wh_n"), hidden, hidden, rng),
            hidden,
        }
    }

    /// One step: `h → h'` for an input row `x` (1×in).
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        let gx = self.wx_zr.forward(tape, store, x);
        let gh = self.wh_zr.forward(tape, store, h);
        let gates = tape.add(gx, gh);
        let hsz = self.hidden;
        let z = tape.narrow_cols(gates, 0, hsz);
        let r = tape.narrow_cols(gates, hsz, hsz);
        let z = tape.sigmoid(z);
        let r = tape.sigmoid(r);
        let rh = tape.mul(r, h);
        let nx = self.wx_n.forward(tape, store, x);
        let nh = self.wh_n.forward(tape, store, rh);
        let n_pre = tape.add(nx, nh);
        let n = tape.tanh(n_pre);
        // h' = (1 − z)·h + z·n = h − z·h + z·n
        let zh = tape.mul(z, h);
        let zn = tape.mul(z, n);
        let neg_zh = tape.scale(zh, -1.0);
        let partial = tape.add(h, neg_zh);
        tape.add(partial, zn)
    }

    /// Run over a sequence (seq×in) → per-step hidden states (seq×hidden).
    pub fn run(&self, tape: &mut Tape, store: &ParamStore, sequence: Var, reverse: bool) -> Var {
        let (seq_len, _) = tape.shape(sequence);
        let zeros = crate::matrix::Matrix::zeros(1, self.hidden);
        let mut h = tape.constant(zeros);
        let mut outputs: Vec<Var> = vec![h; seq_len];
        let order: Vec<usize> = if reverse {
            (0..seq_len).rev().collect()
        } else {
            (0..seq_len).collect()
        };
        for t in order {
            let x = tape.select_row(sequence, t);
            h = self.step(tape, store, x, h);
            outputs[t] = h;
        }
        tape.concat_rows(&outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::Adam;
    use rand::SeedableRng;

    fn seq(data: Vec<f32>, dim: usize) -> Matrix {
        let rows = data.len() / dim;
        Matrix::from_vec(rows, dim, data)
    }

    #[test]
    fn lstm_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 3, 5, &mut rng);
        let mut tape = Tape::new();
        let s = tape.constant(seq(vec![0.1; 12], 3));
        let out = lstm.run(&mut tape, &store, s, false);
        assert_eq!(tape.shape(out), (4, 5));
    }

    #[test]
    fn gru_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let s = tape.constant(seq(vec![0.1; 9], 3));
        let out = gru.run(&mut tape, &store, s, false);
        assert_eq!(tape.shape(out), (3, 4));
    }

    #[test]
    fn reverse_changes_state_order() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 1, 3, &mut rng);
        let mut tape = Tape::new();
        let s = tape.constant(seq(vec![1.0, -1.0, 0.5], 1));
        let fwd = gru.run(&mut tape, &store, s, false);
        let bwd = gru.run(&mut tape, &store, s, true);
        // Forward's first state only saw x0; backward's first state saw all.
        assert_ne!(tape.value(fwd).row(0), tape.value(bwd).row(0));
    }

    /// Finite-difference check of d(sum of outputs)/d(input) through a
    /// full recurrent run — catches any backward-pass error in the cell
    /// compositions.
    fn check_rnn_grad(run: impl Fn(&mut Tape, Var) -> Var, input: Matrix, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.constant(input.clone());
        let out = run(&mut tape, x);
        tape.backward(out);
        let analytic = tape.grad(x);

        let eps = 1e-2f32;
        let eval = |m: &Matrix| -> f32 {
            let mut t = Tape::new();
            let v = t.constant(m.clone());
            let o = run(&mut t, v);
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
                "rnn grad mismatch at {i}: numeric {numeric}, analytic {got}"
            );
        }
    }

    #[test]
    fn lstm_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 3, &mut rng);
        let input = seq(vec![0.3, -0.5, 0.8, 0.1, -0.2, 0.6], 2);
        check_rnn_grad(move |tape, x| lstm.run(tape, &store, x, false), input, 5e-2);
    }

    #[test]
    fn gru_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 2, 3, &mut rng);
        let input = seq(vec![0.3, -0.5, 0.8, 0.1, -0.2, 0.6], 2);
        check_rnn_grad(move |tape, x| gru.run(tape, &store, x, true), input, 5e-2);
    }

    #[test]
    fn lstm_learns_sequence_order() {
        // Task: classify whether the bigger input comes first.
        // Sequences [1,0] → class 0, [0,1] → class 1. An order-blind model
        // cannot separate these (identical bags).
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 2, &mut rng);
        let mut opt = Adam::new(0.02);
        let data = [
            (vec![1.0f32, 0.0], 0usize),
            (vec![0.0, 1.0], 1),
            (vec![0.9, 0.1], 0),
            (vec![0.1, 0.9], 1),
        ];
        for _ in 0..150 {
            for (x, y) in &data {
                let mut tape = Tape::new();
                let s = tape.constant(seq(x.clone(), 1));
                let hs = lstm.run(&mut tape, &store, s, false);
                let last = tape.select_row(hs, 1);
                let logits = head.forward(&mut tape, &store, last);
                let loss = tape.cross_entropy(logits, &[*y]);
                tape.backward(loss);
                tape.harvest_grads(&mut store);
                opt.step(&mut store);
            }
        }
        let mut correct = 0;
        for (x, y) in &data {
            let mut tape = Tape::inference();
            let s = tape.constant(seq(x.clone(), 1));
            let hs = lstm.run(&mut tape, &store, s, false);
            let last = tape.select_row(hs, 1);
            let logits = head.forward(&mut tape, &store, last);
            let pred = crate::loss::argmax_rows(tape.value(logits))[0];
            if pred == *y {
                correct += 1;
            }
        }
        assert_eq!(correct, 4, "LSTM must learn order discrimination");
    }

    #[test]
    fn gru_learns_sequence_order() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, "g", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 2, &mut rng);
        let mut opt = Adam::new(0.02);
        let data = [(vec![1.0f32, 0.0], 0usize), (vec![0.0, 1.0], 1)];
        for _ in 0..200 {
            for (x, y) in &data {
                let mut tape = Tape::new();
                let s = tape.constant(seq(x.clone(), 1));
                let hs = gru.run(&mut tape, &store, s, false);
                let last = tape.select_row(hs, 1);
                let logits = head.forward(&mut tape, &store, last);
                let loss = tape.cross_entropy(logits, &[*y]);
                tape.backward(loss);
                tape.harvest_grads(&mut store);
                opt.step(&mut store);
            }
        }
        for (x, y) in &data {
            let mut tape = Tape::inference();
            let s = tape.constant(seq(x.clone(), 1));
            let hs = gru.run(&mut tape, &store, s, false);
            let last = tape.select_row(hs, 1);
            let logits = head.forward(&mut tape, &store, last);
            assert_eq!(crate::loss::argmax_rows(tape.value(logits))[0], *y);
        }
    }
}
