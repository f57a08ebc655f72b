//! Multi-head self-attention, with absolute positions left to the caller
//! (RoBERTa-style) or disentangled content/position scores over a
//! relative-position table (DeBERTa-style).
//!
//! It operates on a single sequence (seq_len × dim) and splits heads by
//! column ranges. With a relative table it implements the DeBERTa
//! scoring decomposition
//!
//! ```text
//! score(i,j) = Qc_i·Kc_j  +  Qc_i·Kr_{δ(i,j)}  +  Kc_j·Qr_{δ(j,i)}
//! ```
//!
//! with `δ` the clamped relative offset and `Kr`/`Qr` projections of a
//! learned relative-position embedding table — the paper's "debiased
//! attention mechanism and relative position encoding" (§III-A5).

use rand::rngs::StdRng;

use crate::layers::{Embedding, Linear};
use crate::matrix::Matrix;
use crate::params::ParamStore;
use crate::tape::{softmax_backward, softmax_in_place, Tape, Var};

/// Multi-head self-attention. Without a relative table, absolute
/// positions are the caller's (position embeddings added to the input);
/// with one, the scores are DeBERTa's disentangled content/position sum.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection (shared by content and relative positions).
    pub wq: Linear,
    /// Key projection (shared by content and relative positions).
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Relative-position embedding table ((2·radius+1) × dim), if any.
    pub rel: Option<Embedding>,
    /// Maximum relative distance (0 without a table).
    pub radius: usize,
    /// Number of heads.
    pub n_heads: usize,
    /// Model width.
    pub dim: usize,
}

impl MultiHeadAttention {
    /// Register an attention block. `dim` must be divisible by `n_heads`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        n_heads: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert_eq!(dim % n_heads, 0, "dim must divide by heads");
        MultiHeadAttention {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, rng),
            rel: None,
            radius: 0,
            n_heads,
            dim,
        }
    }

    /// Register a disentangled attention block: [`MultiHeadAttention::new`]
    /// plus a relative-position table for offsets up to `radius`,
    /// registered after the four projections.
    pub fn relative(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        n_heads: usize,
        radius: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut attn = Self::new(store, name, dim, n_heads, rng);
        attn.rel = Some(Embedding::new(
            store,
            &format!("{name}.rel"),
            2 * radius + 1,
            dim,
            rng,
        ));
        attn.radius = radius;
        attn
    }

    /// Self-attention over `x` (seq×dim).
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let q = self.wq.forward(tape, store, x);
        let k = self.wk.forward(tape, store, x);
        let v = self.wv.forward(tape, store, x);
        // The relative table goes through the content projections
        // (DeBERTa shares them between content and position).
        let rel = self.rel.as_ref().map(|table| {
            let all_rel: Vec<u32> = (0..table.vocab as u32).collect();
            let rel_rows = table.forward(tape, store, &all_rel);
            let qr = self.wq.forward(tape, store, rel_rows);
            let kr = self.wk.forward(tape, store, rel_rows);
            (qr, kr, self.radius)
        });
        let ctx = tape.attention(q, k, v, rel, self.n_heads);
        self.wo.forward(tape, store, ctx)
    }
}

/// The relative-position inputs of disentangled attention: the relative
/// table projected through the query and key projections, each
/// (2·radius+1)×dim.
#[derive(Debug, Clone, Copy)]
pub struct Relative<'a> {
    /// `wq(rel_table)`.
    pub qr: &'a Matrix,
    /// `wk(rel_table)`.
    pub kr: &'a Matrix,
    /// Maximum relative distance.
    pub radius: usize,
}

/// The score scale: `1/√d` per head, or `1/√(3d)` when the three
/// disentangled terms are summed.
fn score_scale(head_dim: usize, relative: bool) -> f32 {
    if relative {
        1.0 / (3.0 * head_dim as f32).sqrt()
    } else {
        1.0 / (head_dim as f32).sqrt()
    }
}

/// Columns `start..start + len` of `m` as their own matrix.
fn head_cols(m: &Matrix, start: usize, len: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows, len);
    for r in 0..m.rows {
        out.row_mut(r)
            .copy_from_slice(&m.row(r)[start..start + len]);
    }
    out
}

/// Write `part` into columns `start..` of `m`.
fn set_head_cols(m: &mut Matrix, start: usize, part: &Matrix) {
    for r in 0..part.rows {
        m.row_mut(r)[start..start + part.cols].copy_from_slice(part.row(r));
    }
}

/// Query `i` reads column `clamp(j - i + radius, 0, 2·radius)` of its
/// c2p row for key `j`, and key `j` reads column `2·radius` minus that of
/// its p2c row. The clamp splits the keys into three runs: `..lo` reads
/// column 0, `lo..hi` column `j - i + radius`, and `hi..` column
/// `2·radius`. Returns `(lo, hi)`.
#[inline]
fn rel_runs(i: usize, n: usize, radius: usize) -> (usize, usize) {
    (i.saturating_sub(radius), (i + radius + 1).min(n))
}

/// Multi-head scaled dot-product attention over projected `q`, `k`, `v`
/// (each seq×dim, heads split by column ranges), returning the heads'
/// outputs side by side (seq×dim), before the output projection.
///
/// With `rel`, each head's scores are DeBERTa's
/// `(c2c + c2p) + p2c`: `q_i·k_j`, plus `q_i·kr` and `k_j·qr` at the
/// clamped relative offset. Every value is computed with the same kernels,
/// in the same order, as the node-by-node graph of narrowed, transposed,
/// gathered and added per-head matrices it replaces, so training through
/// [`Tape::attention`] and tape-free inference give the same bits.
pub fn attend(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    rel: Option<Relative<'_>>,
    heads: usize,
) -> Matrix {
    attend_heads(q, k, v, rel, heads, |_| {})
}

/// [`attend`], handing each head's softmax probabilities (seq×seq) to
/// `keep` once its output is written.
pub(crate) fn attend_heads(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    rel: Option<Relative<'_>>,
    heads: usize,
    mut keep: impl FnMut(Matrix),
) -> Matrix {
    let (n, dim) = (q.rows, q.cols);
    assert!(dim % heads == 0, "attention: dim must divide by heads");
    assert!(k.rows == n && v.rows == n, "attention: row mismatch");
    assert!(k.cols == dim && v.cols == dim, "attention: width mismatch");
    if let Some(rel) = rel {
        let shape = (2 * rel.radius + 1, dim);
        assert_eq!((rel.qr.rows, rel.qr.cols), shape, "attention: qr shape");
        assert_eq!((rel.kr.rows, rel.kr.cols), shape, "attention: kr shape");
    }
    let hd = dim / heads;
    let scale = score_scale(hd, rel.is_some());
    let mut ctx = Matrix::zeros(n, dim);
    for h in 0..heads {
        let start = h * hd;
        let qh = head_cols(q, start, hd);
        let kh = head_cols(k, start, hd);
        let mut scores = qh.matmul(&kh.transpose());
        if let Some(rel) = rel {
            let r = rel.radius;
            let c2p = qh.matmul(&head_cols(rel.kr, start, hd).transpose());
            let p2c = kh.matmul(&head_cols(rel.qr, start, hd).transpose());
            let (w, p) = (2 * r + 1, &p2c.data);
            for i in 0..n {
                let (lo, hi) = rel_runs(i, n, r);
                let c2p_row = c2p.row(i);
                let row = scores.row_mut(i);
                for (j, s) in row[..lo].iter_mut().enumerate() {
                    *s = (*s + c2p_row[0]) + p[j * w + 2 * r];
                }
                for (j, s) in row.iter_mut().enumerate().take(hi).skip(lo) {
                    *s = (*s + c2p_row[j + r - i]) + p[j * w + i + r - j];
                }
                for (j, s) in row.iter_mut().enumerate().skip(hi) {
                    *s = (*s + c2p_row[2 * r]) + p[j * w];
                }
            }
        }
        for i in 0..n {
            let row = scores.row_mut(i);
            for s in row.iter_mut() {
                *s *= scale;
            }
            softmax_in_place(row);
        }
        set_head_cols(&mut ctx, start, &scores.matmul(&head_cols(v, start, hd)));
        keep(scores);
    }
    ctx
}

/// Gradients of [`attend`] with respect to `q`, `k`, `v` and, with
/// `rel`, `qr` and `kr`, from the output gradient `g_ctx` and each head's
/// cached probabilities. Each head's terms are the node-by-node graph's
/// (same kernels, same order); a result spanning several heads then
/// gets `+ 0.0` everywhere, as the graph's zero-padded per-head
/// contributions gave it, so a lone `-0.0` becomes `+0.0`.
pub(crate) fn attend_backward(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    rel: Option<Relative<'_>>,
    probs: &[Matrix],
    g_ctx: &Matrix,
) -> [Matrix; 5] {
    let (n, dim, heads) = (q.rows, q.cols, probs.len());
    let hd = dim / heads;
    let scale = score_scale(hd, rel.is_some());
    let zeros = || Matrix::zeros(n, dim);
    let (mut dq, mut dk, mut dv) = (zeros(), zeros(), zeros());
    let rel_shape = rel.map_or((0, 0), |r| (r.qr.rows, dim));
    let mut dqr = Matrix::zeros(rel_shape.0, rel_shape.1);
    let mut dkr = Matrix::zeros(rel_shape.0, rel_shape.1);
    for (h, attn) in probs.iter().enumerate() {
        let start = h * hd;
        let qh = head_cols(q, start, hd);
        let kh = head_cols(k, start, hd);
        let (qt, kt) = (qh.transpose(), kh.transpose());
        let g_out = head_cols(g_ctx, start, hd);
        let mut gs = g_out.matmul_nt(&head_cols(v, start, hd));
        set_head_cols(&mut dv, start, &attn.matmul_tn(&g_out));
        softmax_backward(&mut gs, attn);
        for g in &mut gs.data {
            *g *= scale;
        }
        let mut dqh = gs.matmul_nt(&kt);
        let mut dkh = qt.matmul(&gs).transpose();
        if let Some(rel) = rel {
            let r = rel.radius;
            let w = 2 * r + 1;
            // The transposes of the two relative gathers, summed per cell
            // in ascending key (c2p) and ascending query (p2c) order.
            let mut dc2p = Matrix::zeros(n, w);
            let mut dp2c = Matrix::zeros(n, w);
            for i in 0..n {
                let (lo, hi) = rel_runs(i, n, r);
                let g = gs.row(i);
                let d = dc2p.row_mut(i);
                for &v in &g[..lo] {
                    d[0] += v;
                }
                for (o, &v) in d[lo + r - i..].iter_mut().zip(&g[lo..hi]) {
                    *o += v;
                }
                for &v in &g[hi..] {
                    d[2 * r] += v;
                }
                let p = &mut dp2c.data;
                for (j, &v) in g.iter().enumerate().take(lo) {
                    p[j * w + 2 * r] += v;
                }
                for (j, &v) in g.iter().enumerate().take(hi).skip(lo) {
                    p[j * w + i + r - j] += v;
                }
                for (j, &v) in g.iter().enumerate().skip(hi) {
                    p[j * w] += v;
                }
            }
            let krt = head_cols(rel.kr, start, hd).transpose();
            let qrt = head_cols(rel.qr, start, hd).transpose();
            dqh.axpy(1.0, &dc2p.matmul_nt(&krt));
            dkh.axpy(1.0, &dp2c.matmul_nt(&qrt));
            set_head_cols(&mut dkr, start, &qt.matmul(&dc2p).transpose());
            set_head_cols(&mut dqr, start, &kt.matmul(&dp2c).transpose());
        }
        set_head_cols(&mut dq, start, &dqh);
        set_head_cols(&mut dk, start, &dkh);
    }
    let mut grads = [dq, dk, dv, dqr, dkr];
    if heads > 1 {
        for g in &mut grads {
            g.data.iter_mut().for_each(|x| *x += 0.0);
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn input(seq: usize, dim: usize) -> Matrix {
        Matrix::from_vec(
            seq,
            dim,
            (0..seq * dim)
                .map(|i| ((i * 7 % 13) as f32) * 0.1 - 0.6)
                .collect(),
        )
    }

    #[test]
    fn mha_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(input(5, 8));
        let y = attn.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (5, 8));
    }

    #[test]
    fn disentangled_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::relative(&mut store, "d", 8, 2, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(input(6, 8));
        let y = attn.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (6, 8));
    }

    #[test]
    #[should_panic(expected = "dim must divide")]
    fn rejects_indivisible_heads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        MultiHeadAttention::new(&mut store, "a", 9, 2, &mut rng);
    }

    #[test]
    fn absolute_attention_is_permutation_blind_without_positions() {
        // Plain self-attention is permutation-equivariant: permuting input
        // rows permutes output rows identically. (This is exactly why
        // positional information must be injected.)
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, "a", 4, 1, &mut rng);
        let x = input(3, 4);
        let mut permuted = x.clone();
        // Swap rows 0 and 2.
        for c in 0..4 {
            let tmp = permuted.get(0, c);
            permuted.set(0, c, permuted.get(2, c));
            permuted.set(2, c, tmp);
        }
        let run = |m: Matrix| {
            let mut tape = Tape::inference();
            let v = tape.constant(m);
            let y = attn.forward(&mut tape, &store, v);
            tape.value(y).clone()
        };
        let y1 = run(x);
        let y2 = run(permuted);
        for c in 0..4 {
            assert!((y1.get(0, c) - y2.get(2, c)).abs() < 1e-5);
            assert!((y1.get(1, c) - y2.get(1, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn disentangled_attention_is_position_sensitive() {
        // A relative table embeds positions directly in the scores, so
        // permutation equivariance must break.
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::relative(&mut store, "d", 4, 1, 3, &mut rng);
        let x = input(3, 4);
        let mut permuted = x.clone();
        for c in 0..4 {
            let tmp = permuted.get(0, c);
            permuted.set(0, c, permuted.get(2, c));
            permuted.set(2, c, tmp);
        }
        let run = |m: Matrix| {
            let mut tape = Tape::inference();
            let v = tape.constant(m);
            let y = attn.forward(&mut tape, &store, v);
            tape.value(y).clone()
        };
        let y1 = run(x);
        let y2 = run(permuted);
        let mut max_diff = 0.0f32;
        for c in 0..4 {
            max_diff = max_diff.max((y1.get(0, c) - y2.get(2, c)).abs());
        }
        assert!(
            max_diff > 1e-4,
            "relative positions must break permutation equivariance"
        );
    }

    #[test]
    fn attention_gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::relative(&mut store, "d", 8, 2, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(input(4, 8));
        let y = attn.forward(&mut tape, &store, x);
        let loss = tape.mean_rows(y);
        tape.backward(loss);
        tape.harvest_grads(&mut store);
        for id in store.ids() {
            assert!(
                store.grad(id).frobenius() > 0.0,
                "no gradient reached {}",
                store.name(id)
            );
        }
    }
}
