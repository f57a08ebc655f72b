//! Frozen-weight PLM inference: the tape-free f32 reference engine and
//! the per-channel int8 fast path.
//!
//! [`PlmInferenceModel::export`] copies the weights of a trained
//! [`FittedPlm`] out of its parameter store through the model's own
//! layer handles — weights only, no tape, no optimizer state — and
//! precomputes everything inference can hoist: the DeBERTa relative
//! tables projected through the shared content projections, and the
//! int8 codes of every linear and attention-projection weight and of
//! those relative tables. Each quantized tensor is held once, in the
//! pair panel its kernel reads ([`rsd_nn::quant::QuantizedWeight`],
//! `RelCodes`).
//!
//! Two execution paths share the export:
//!
//! * **f32** ([`PlmInferenceModel::logits_f32`]) replicates the tape's
//!   forward arithmetic op for op — same kernels, same accumulation
//!   order — so its logits are *bit-identical* to `Tape::inference` on
//!   the same weights (pinned by tests). It is the quality reference
//!   the int8 path is gated against.
//! * **int8** ([`PlmInferenceModel::logits_i8`]) quantizes activations
//!   dynamically per row and runs every product — projections, FFN,
//!   attention scores, relative scores, attention×value — on one route:
//!   the left operand packed into pair words by
//!   [`rsd_nn::quant::pack_pairs`], the right one laid out as a panel by
//!   [`rsd_nn::quant::pack_panel`], both swept by the i8×i8→i32 pair
//!   kernels. Softmax and GELU use fast polynomial transcendentals.
//!   Integer accumulation is exact, so results are bitwise reproducible
//!   across hosts, thread counts and batch partitionings.
//!
//! Batched scoring fans windows out on the rsd-par pool with one
//! scratch per chunk, mirroring the GBDT scorer; per-window results
//! never depend on the partitioning.

use rsd_common::Timestamp;
use rsd_corpus::RiskLevel;
use rsd_nn::attention::{attend, Relative};
use rsd_nn::infer;
use rsd_nn::layers::{LayerNorm, Linear};
use rsd_nn::loss::argmax;
use rsd_nn::matrix::Matrix;
use rsd_nn::quant::{
    gemv2_i8_pairs, gemv_i8_pairs, pack_pairs, pack_panel, qgemm_nt, quantize_row_i8, softmax_q7,
    QuantizedWeight,
};
use rsd_nn::ParamStore;

use crate::encoding::{time_vector, EncodedWindow, TaskEncoder, TIME_FEATURE_DIM};
use crate::plm::{FittedPlm, PlmKind};

/// One linear layer's frozen f32 weights (`in × out` plus `1 × out`
/// bias, the [`rsd_nn::layers::Linear`] layout).
#[derive(Debug, Clone)]
struct LinW {
    w: Matrix,
    b: Matrix,
}

impl LinW {
    fn from(store: &ParamStore, layer: &Linear) -> LinW {
        LinW {
            w: store.value(layer.w).clone(),
            b: store.value(layer.b).clone(),
        }
    }
}

/// A [`LayerNorm`]'s frozen gain and bias.
fn ln_weights(store: &ParamStore, ln: &LayerNorm) -> (Matrix, Matrix) {
    (store.value(ln.gain).clone(), store.value(ln.bias).clone())
}

/// DeBERTa relative-position machinery, projected once at export time:
/// the tape recomputes `wq(rel)` / `wk(rel)` every forward, but they
/// depend only on weights.
#[derive(Debug, Clone)]
struct RelW {
    /// `wq(rel_table)` — (2r+1) × dim.
    qr: Matrix,
    /// `wk(rel_table)` — (2r+1) × dim.
    kr: Matrix,
    qr_q: RelCodes,
    kr_q: RelCodes,
}

/// A projected relative table quantized per row and held as one
/// [`pack_panel`] panel per head, the layout [`gemv_i8_pairs`] sweeps.
#[derive(Debug, Clone)]
struct RelCodes {
    /// One scale per table row (over the full `dim`).
    scales: Vec<f32>,
    /// Head-major: `heads` panels of `⌈hd/2⌉ × 2·(2r+1)` bytes.
    panels: Vec<i8>,
}

impl RelCodes {
    fn quantize(m: &Matrix, heads: usize, hd: usize) -> RelCodes {
        let mut codes = vec![0i8; m.rows * m.cols];
        let scales = (0..m.rows)
            .map(|r| quantize_row_i8(m.row(r), &mut codes[r * m.cols..(r + 1) * m.cols]))
            .collect();
        let block = hd.div_ceil(2) * 2 * m.rows;
        let mut panels = vec![0i8; heads * block];
        for (h, panel) in panels.chunks_exact_mut(block).enumerate() {
            pack_panel(&codes[h * hd..], m.cols, hd, m.rows, panel);
        }
        RelCodes { scales, panels }
    }
}

/// One encoder block's frozen weights, f32 and int8 views side by side.
#[derive(Debug, Clone)]
struct BlockW {
    ln1_g: Matrix,
    ln1_b: Matrix,
    wq: LinW,
    wk: LinW,
    wv: LinW,
    wo: LinW,
    rel: Option<RelW>,
    ln2_g: Matrix,
    ln2_b: Matrix,
    ffn1: LinW,
    ffn2: LinW,
    q_wq: QuantizedWeight,
    q_wk: QuantizedWeight,
    q_wv: QuantizedWeight,
    q_wo: QuantizedWeight,
    q_ffn1: QuantizedWeight,
    q_ffn2: QuantizedWeight,
}

/// Reusable per-thread buffers for the int8 path: steady-state scoring
/// allocates nothing.
#[derive(Debug, Default)]
pub struct PlmScratch {
    x: Vec<f32>,
    normed: Vec<f32>,
    xq: Vec<i8>,
    xs: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    qq: Vec<i8>,
    qs: Vec<f32>,
    kq: Vec<i8>,
    ks: Vec<f32>,
    vt: Vec<f32>,
    vtq: Vec<i8>,
    vts: Vec<f32>,
    scores: Vec<f32>,
    attn_q: Vec<i8>,
    attn_s: Vec<f32>,
    ctx: Vec<f32>,
    stage: Vec<f32>,
    hbuf: Vec<f32>,
    hq: Vec<i8>,
    hs: Vec<f32>,
    c2p: Vec<f32>,
    p2c: Vec<f32>,
    p2c_lo: Vec<f32>,
    p2c_hi: Vec<f32>,
    kt_pairs: Vec<i8>,
    av_pairs: Vec<i8>,
    qpair: Vec<i32>,
    acc32: Vec<i32>,
    row_tmp: Vec<f32>,
    traw: Vec<f32>,
    trawq: Vec<i8>,
    traws: Vec<f32>,
    tproj: Vec<f32>,
}

fn grow<T: Clone + Default>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    }
}

/// Frozen PLM inference artifact: task encoder, f32 weights and
/// per-channel int8 views, servable without any training machinery.
#[derive(Debug, Clone)]
pub struct PlmInferenceModel {
    kind: PlmKind,
    dim: usize,
    heads: usize,
    radius: usize,
    window_tokens: usize,
    temporal_fusion: bool,
    encoder: TaskEncoder,
    tok: Matrix,
    pos: Option<Matrix>,
    blocks: Vec<BlockW>,
    ln_f_g: Matrix,
    ln_f_b: Matrix,
    time: LinW,
    time_q: QuantizedWeight,
    head: LinW,
    head_q: QuantizedWeight,
    n_scalars: usize,
}

impl PlmInferenceModel {
    /// Export frozen inference weights from a trained PLM.
    pub fn export(fitted: &FittedPlm) -> PlmInferenceModel {
        let cfg = &fitted.cfg;
        let store = &fitted.store;
        let enc = &fitted.model.encoder;
        let tok = store.value(enc.token_emb.table).clone();
        let pos = enc.pos_emb.as_ref().map(|p| store.value(p.table).clone());
        let blocks = enc
            .blocks
            .iter()
            .map(|blk| {
                let attn = &blk.attn;
                let wq = LinW::from(store, &attn.wq);
                let wk = LinW::from(store, &attn.wk);
                let rel = attn.rel.as_ref().map(|table| {
                    let table = store.value(table.table);
                    // The tape gathers the full table (ids 0..2r) and
                    // runs it through the shared projections every
                    // forward; both depend only on weights, so hoist.
                    let qr = infer::linear(table, &wq.w, &wq.b);
                    let kr = infer::linear(table, &wk.w, &wk.b);
                    let hd = cfg.dim / cfg.heads;
                    RelW {
                        qr_q: RelCodes::quantize(&qr, cfg.heads, hd),
                        kr_q: RelCodes::quantize(&kr, cfg.heads, hd),
                        qr,
                        kr,
                    }
                });
                let wv = LinW::from(store, &attn.wv);
                let wo = LinW::from(store, &attn.wo);
                let ffn1 = LinW::from(store, &blk.ffn1);
                let ffn2 = LinW::from(store, &blk.ffn2);
                let (ln1_g, ln1_b) = ln_weights(store, &blk.ln1);
                let (ln2_g, ln2_b) = ln_weights(store, &blk.ln2);
                BlockW {
                    ln1_g,
                    ln1_b,
                    q_wq: QuantizedWeight::from_weight(&wq.w),
                    q_wk: QuantizedWeight::from_weight(&wk.w),
                    q_wv: QuantizedWeight::from_weight(&wv.w),
                    q_wo: QuantizedWeight::from_weight(&wo.w),
                    q_ffn1: QuantizedWeight::from_weight(&ffn1.w),
                    q_ffn2: QuantizedWeight::from_weight(&ffn2.w),
                    wq,
                    wk,
                    wv,
                    wo,
                    rel,
                    ln2_g,
                    ln2_b,
                    ffn1,
                    ffn2,
                }
            })
            .collect();
        let (ln_f_g, ln_f_b) = ln_weights(store, &enc.final_ln);
        let time = LinW::from(store, &fitted.model.time_proj);
        let head = LinW::from(store, &fitted.model.head);
        PlmInferenceModel {
            kind: cfg.kind,
            dim: cfg.dim,
            heads: cfg.heads,
            radius: cfg.radius,
            window_tokens: cfg.window_tokens,
            temporal_fusion: cfg.temporal_fusion,
            encoder: fitted.encoder.clone(),
            tok,
            pos,
            blocks,
            ln_f_g,
            ln_f_b,
            time_q: QuantizedWeight::from_weight(&time.w),
            time,
            head_q: QuantizedWeight::from_weight(&head.w),
            head,
            n_scalars: store.n_scalars(),
        }
    }

    /// Variant this model was exported from.
    pub fn kind(&self) -> PlmKind {
        self.kind
    }

    /// Task encoder (tokenizer + vocabulary) fitted at training time.
    pub fn encoder(&self) -> &TaskEncoder {
        &self.encoder
    }

    /// Total scalar parameter count of the frozen snapshot.
    pub fn n_scalars(&self) -> usize {
        self.n_scalars
    }

    /// Build an [`EncodedWindow`] from a streaming window of raw texts
    /// and their (chronological) timestamps — the serving-path
    /// equivalent of [`TaskEncoder::encode`].
    pub fn encode_stream(&self, texts: &[&str], timestamps: &[Timestamp]) -> EncodedWindow {
        debug_assert_eq!(texts.len(), timestamps.len());
        EncodedWindow {
            post_tokens: texts.iter().map(|t| self.encoder.encode_text(t)).collect(),
            time_feats: (0..texts.len())
                .map(|k| time_vector(timestamps, k))
                .collect(),
            label: 0,
        }
    }

    /// Logits for one window: the f32 reference or the int8 fast path.
    pub fn logits(
        &self,
        example: &EncodedWindow,
        quantized: bool,
        scratch: &mut PlmScratch,
    ) -> [f32; RiskLevel::COUNT] {
        if quantized {
            self.logits_i8(example, scratch)
        } else {
            self.logits_f32(example)
        }
    }

    /// Predicted class for one window.
    pub fn score(
        &self,
        example: &EncodedWindow,
        quantized: bool,
        scratch: &mut PlmScratch,
    ) -> usize {
        argmax(&self.logits(example, quantized, scratch))
    }

    /// Score a batch of windows on the rsd-par pool (grain 16, one
    /// scratch per chunk — the GBDT scorer's pattern). Per-window
    /// results are pure functions of the window, so thread counts and
    /// partitionings cannot change them.
    pub fn score_windows(&self, examples: &[EncodedWindow], quantized: bool) -> Vec<usize> {
        let mut preds = vec![0usize; examples.len()];
        rsd_par::parallel_chunks_mut(&mut preds, 16, |start, chunk| {
            let mut scratch = PlmScratch::default();
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = self.score(&examples[start + off], quantized, &mut scratch);
            }
        });
        preds
    }

    // ---- f32 reference path ----------------------------------------------
    //
    // A line-for-line transcription of `PlmModel::forward` +
    // `Encoder::forward` off the tape: every op maps to the same Matrix
    // kernel (or the same scalar loop) the tape op runs, in the same
    // order, and attention calls the tape's own forward
    // (`rsd_nn::attention::attend`), so the result is bit-identical to
    // `Tape::inference`.

    fn time_summary_f32(&self, example: &EncodedWindow) -> Matrix {
        let w = example.time_feats.len();
        let data: Vec<f32> = example
            .time_feats
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        let raw = Matrix::from_vec(w, TIME_FEATURE_DIM, data);
        let projected = infer::linear(&raw, &self.time.w, &self.time.b);
        infer::mean_rows(&projected)
    }

    /// Tape-free f32 logits, bit-identical to the tape forward.
    pub fn logits_f32(&self, example: &EncodedWindow) -> [f32; RiskLevel::COUNT] {
        let ids = example.window_tokens(self.window_tokens);
        let seq = ids.len();
        let mut x = Matrix::zeros(seq, self.dim);
        for (r, &id) in ids.iter().enumerate() {
            x.row_mut(r).copy_from_slice(self.tok.row(id as usize));
        }
        if let Some(pos) = &self.pos {
            let mut p = Matrix::zeros(seq, self.dim);
            for r in 0..seq {
                p.row_mut(r).copy_from_slice(pos.row(r));
            }
            x.axpy(1.0, &p);
        }
        if self.temporal_fusion {
            let summary = self.time_summary_f32(example);
            let ones = Matrix::full(seq, 1, 1.0);
            let extra = ones.matmul(&summary);
            x.axpy(1.0, &extra);
        }
        let mut h = x;
        for blk in &self.blocks {
            h = self.block_f32(blk, h);
        }
        let hn = infer::layer_norm(&h, &self.ln_f_g, &self.ln_f_b);
        let pooled = infer::mean_rows(&hn);
        let logits = infer::linear(&pooled, &self.head.w, &self.head.b);
        let mut out = [0.0f32; RiskLevel::COUNT];
        out.copy_from_slice(logits.row(0));
        out
    }

    fn block_f32(&self, blk: &BlockW, x: Matrix) -> Matrix {
        let normed = infer::layer_norm(&x, &blk.ln1_g, &blk.ln1_b);
        let q = infer::linear(&normed, &blk.wq.w, &blk.wq.b);
        let k = infer::linear(&normed, &blk.wk.w, &blk.wk.b);
        let v = infer::linear(&normed, &blk.wv.w, &blk.wv.b);
        let rel = blk.rel.as_ref().map(|rel| Relative {
            qr: &rel.qr,
            kr: &rel.kr,
            radius: self.radius,
        });
        let ctx = attend(&q, &k, &v, rel, self.heads);
        let attn_out = infer::linear(&ctx, &blk.wo.w, &blk.wo.b);
        let mut x = x;
        x.axpy(1.0, &attn_out);
        let normed = infer::layer_norm(&x, &blk.ln2_g, &blk.ln2_b);
        let h = infer::linear(&normed, &blk.ffn1.w, &blk.ffn1.b);
        let h = infer::gelu(&h);
        let h = infer::linear(&h, &blk.ffn2.w, &blk.ffn2.b);
        x.axpy(1.0, &h);
        x
    }

    // ---- int8 fast path --------------------------------------------------

    /// Int8 logits: per-row dynamic activation quantization, every GEMM
    /// on the i8×i8→i32 kernels, fast polynomial softmax/GELU. Bitwise
    /// deterministic across thread counts and batch partitionings.
    pub fn logits_i8(
        &self,
        example: &EncodedWindow,
        s: &mut PlmScratch,
    ) -> [f32; RiskLevel::COUNT] {
        let ids = example.window_tokens(self.window_tokens);
        let (seq, dim, ffn) = (ids.len(), self.dim, self.blocks[0].q_ffn1.outputs());
        grow(&mut s.x, seq * dim);
        grow(&mut s.normed, seq * dim);
        grow(&mut s.xq, seq * dim.max(ffn));
        grow(&mut s.xs, seq);
        grow(&mut s.q, seq * dim);
        grow(&mut s.k, seq * dim);
        grow(&mut s.v, seq * dim);
        grow(&mut s.qq, seq * dim);
        grow(&mut s.qs, seq);
        grow(&mut s.kq, seq * dim);
        grow(&mut s.ks, seq);
        grow(&mut s.vt, dim * seq);
        grow(&mut s.vtq, dim * seq);
        grow(&mut s.vts, dim);
        grow(&mut s.scores, seq * seq);
        grow(&mut s.attn_q, seq * seq);
        grow(&mut s.attn_s, seq);
        grow(&mut s.ctx, seq * dim);
        grow(&mut s.stage, seq * dim.max(ffn));
        grow(&mut s.hbuf, seq * ffn);
        grow(&mut s.hq, seq * ffn);
        grow(&mut s.hs, seq);
        grow(&mut s.row_tmp, dim.max(TIME_FEATURE_DIM));
        let w_rel = 2 * self.radius + 1;
        grow(&mut s.c2p, seq * w_rel);
        grow(&mut s.p2c, seq * w_rel);
        grow(&mut s.p2c_lo, seq);
        grow(&mut s.p2c_hi, seq);
        let hd = dim / self.heads;
        let pairs = hd.div_ceil(2);
        let spairs = seq.div_ceil(2);
        grow(&mut s.kt_pairs, self.heads * pairs * 2 * seq);
        grow(&mut s.av_pairs, spairs * 2 * hd);
        grow(&mut s.qpair, pairs.max(2 * spairs));
        grow(&mut s.acc32, seq.max(w_rel).max(2 * hd));

        // Embeddings stay f32: a table lookup is a row copy, not a GEMM,
        // so quantizing it would add error without shaving a single
        // multiply.
        for (r, &id) in ids.iter().enumerate() {
            s.x[r * dim..(r + 1) * dim].copy_from_slice(self.tok.row(id as usize));
        }
        if let Some(pos) = &self.pos {
            for r in 0..seq {
                for (o, &p) in s.x[r * dim..(r + 1) * dim].iter_mut().zip(pos.row(r)) {
                    *o += p;
                }
            }
        }
        if self.temporal_fusion {
            self.time_summary_i8(example, s);
            for r in 0..seq {
                for (o, &p) in s.x[r * dim..(r + 1) * dim]
                    .iter_mut()
                    .zip(&s.row_tmp[..dim])
                {
                    *o += p;
                }
            }
        }

        for bi in 0..self.blocks.len() {
            self.block_i8(bi, seq, s);
        }

        // Final layer norm, mean pooling, classification head.
        infer::layer_norm_rows(
            &s.x[..seq * dim],
            dim,
            &self.ln_f_g.data,
            &self.ln_f_b.data,
            &mut s.normed[..seq * dim],
            None,
        );
        infer::mean_rows_into(&s.normed[..seq * dim], seq, &mut s.row_tmp[..dim]);
        s.xs[0] = quantize_row_i8(&s.row_tmp[..dim], &mut s.xq[..dim]);
        let mut logits = [0.0f32; RiskLevel::COUNT];
        qgemm_nt(
            &s.xq[..dim],
            &s.xs[..1],
            1,
            dim,
            &self.head_q,
            Some(&self.head.b.data),
            &mut logits,
        );
        logits
    }

    /// Temporal summary on the int8 kernels; result left in
    /// `s.row_tmp[..dim]`.
    fn time_summary_i8(&self, example: &EncodedWindow, s: &mut PlmScratch) {
        let (w, dim) = (example.time_feats.len(), self.dim);
        grow(&mut s.traw, w * TIME_FEATURE_DIM);
        grow(&mut s.trawq, w * TIME_FEATURE_DIM);
        grow(&mut s.traws, w);
        grow(&mut s.tproj, w * dim);
        for (r, feats) in example.time_feats.iter().enumerate() {
            s.traw[r * TIME_FEATURE_DIM..(r + 1) * TIME_FEATURE_DIM].copy_from_slice(feats);
            s.traws[r] = quantize_row_i8(
                &s.traw[r * TIME_FEATURE_DIM..(r + 1) * TIME_FEATURE_DIM],
                &mut s.trawq[r * TIME_FEATURE_DIM..(r + 1) * TIME_FEATURE_DIM],
            );
        }
        qgemm_nt(
            &s.trawq[..w * TIME_FEATURE_DIM],
            &s.traws[..w],
            w,
            TIME_FEATURE_DIM,
            &self.time_q,
            Some(&self.time.b.data),
            &mut s.tproj[..w * dim],
        );
        infer::mean_rows_into(&s.tproj[..w * dim], w, &mut s.row_tmp[..dim]);
    }

    fn block_i8(&self, bi: usize, seq: usize, s: &mut PlmScratch) {
        let blk = &self.blocks[bi];
        let (dim, heads) = (self.dim, self.heads);
        let hd = dim / heads;
        let ffn = blk.q_ffn1.outputs();

        // ln1 + fused q/k/v projections from one activation quantization.
        infer::layer_norm_rows(
            &s.x[..seq * dim],
            dim,
            &blk.ln1_g.data,
            &blk.ln1_b.data,
            &mut s.normed[..seq * dim],
            None,
        );
        for r in 0..seq {
            s.xs[r] = quantize_row_i8(
                &s.normed[r * dim..(r + 1) * dim],
                &mut s.xq[r * dim..(r + 1) * dim],
            );
        }
        qgemm_nt(
            &s.xq[..seq * dim],
            &s.xs[..seq],
            seq,
            dim,
            &blk.q_wq,
            Some(&blk.wq.b.data),
            &mut s.q[..seq * dim],
        );
        qgemm_nt(
            &s.xq[..seq * dim],
            &s.xs[..seq],
            seq,
            dim,
            &blk.q_wk,
            Some(&blk.wk.b.data),
            &mut s.k[..seq * dim],
        );
        qgemm_nt(
            &s.xq[..seq * dim],
            &s.xs[..seq],
            seq,
            dim,
            &blk.q_wv,
            Some(&blk.wv.b.data),
            &mut s.v[..seq * dim],
        );

        // Re-quantize q/k rows for the score microkernels and lay V out
        // channel-major (quantized per channel) for attention × value.
        for r in 0..seq {
            s.qs[r] = quantize_row_i8(
                &s.q[r * dim..(r + 1) * dim],
                &mut s.qq[r * dim..(r + 1) * dim],
            );
            s.ks[r] = quantize_row_i8(
                &s.k[r * dim..(r + 1) * dim],
                &mut s.kq[r * dim..(r + 1) * dim],
            );
        }
        for d in 0..dim {
            for j in 0..seq {
                s.vt[d * seq + j] = s.v[j * dim + d];
            }
            s.vts[d] = quantize_row_i8(
                &s.vt[d * seq..(d + 1) * seq],
                &mut s.vtq[d * seq..(d + 1) * seq],
            );
        }

        let scale = match self.kind {
            PlmKind::Roberta => 1.0 / (hd as f32).sqrt(),
            PlmKind::Deberta => 1.0 / (3.0 * hd as f32).sqrt(),
        };
        let (radius, w_rel) = (self.radius, 2 * self.radius + 1);
        // Head dims are far below a SIMD register, so per-(i,j) dots
        // would run scalar. Instead pack the short head axis into i16
        // pairs and sweep the *long* axis (seq or 2r+1) with
        // `gemv_i8_pairs`: vectorized over outputs rather than the
        // contraction. Each head's keys become one panel per forward.
        let pairs = hd.div_ceil(2);
        let kt_block = pairs * 2 * seq;
        for h in 0..heads {
            let panel = &mut s.kt_pairs[h * kt_block..(h + 1) * kt_block];
            pack_panel(&s.kq[h * hd..seq * dim], dim, hd, seq, panel);
        }
        for h in 0..heads {
            let start = h * hd;
            let rel_block = pairs * 2 * w_rel;
            if let Some(rel) = &blk.rel {
                // c2p/p2c "full" components against the export-time
                // pair-interleaved relative projections. The attention
                // scale folds into the dequant factors here and in the
                // base loop below, so no separate scaling pass runs
                // over the seq × seq score matrix.
                for i in 0..seq {
                    pack_pairs(
                        &s.qq[i * dim + start..i * dim + start + hd],
                        &mut s.qpair[..pairs],
                    );
                    gemv_i8_pairs(
                        &s.qpair[..pairs],
                        &rel.kr_q.panels[h * rel_block..(h + 1) * rel_block],
                        w_rel,
                        &mut s.acc32,
                    );
                    let f = s.qs[i] * scale;
                    for c in 0..w_rel {
                        s.c2p[i * w_rel + c] = f * rel.kr_q.scales[c] * s.acc32[c] as f32;
                    }
                }
                for j in 0..seq {
                    pack_pairs(
                        &s.kq[j * dim + start..j * dim + start + hd],
                        &mut s.qpair[..pairs],
                    );
                    gemv_i8_pairs(
                        &s.qpair[..pairs],
                        &rel.qr_q.panels[h * rel_block..(h + 1) * rel_block],
                        w_rel,
                        &mut s.acc32,
                    );
                    let f = s.ks[j] * scale;
                    for c in 0..w_rel {
                        s.p2c[j * w_rel + c] = f * rel.qr_q.scales[c] * s.acc32[c] as f32;
                    }
                }
                // Outside the relative window the clamped p2c index is
                // constant; gather both edge columns once so the score
                // loop runs clamp- and branch-free.
                for j in 0..seq {
                    s.p2c_lo[j] = s.p2c[j * w_rel];
                    s.p2c_hi[j] = s.p2c[j * w_rel + 2 * radius];
                }
            }
            for i in 0..seq {
                pack_pairs(
                    &s.qq[i * dim + start..i * dim + start + hd],
                    &mut s.qpair[..pairs],
                );
                gemv_i8_pairs(
                    &s.qpair[..pairs],
                    &s.kt_pairs[h * kt_block..(h + 1) * kt_block],
                    seq,
                    &mut s.acc32,
                );
                let sq = s.qs[i] * scale;
                let row = &mut s.scores[i * seq..(i + 1) * seq];
                for ((r, &k), &a) in row.iter_mut().zip(&s.ks).zip(&s.acc32) {
                    *r = sq * k * a as f32;
                }
                if blk.rel.is_some() {
                    // clamp(j − i + r, 0, 2r) splits into three
                    // clamp-free runs around the window [i−r, i+r].
                    let lo = i.saturating_sub(radius);
                    let hi = (i + radius).min(seq - 1);
                    let c2p_row = &s.c2p[i * w_rel..(i + 1) * w_rel];
                    let (c0, c2r) = (c2p_row[0], c2p_row[2 * radius]);
                    for (r, &p) in row[..lo].iter_mut().zip(&s.p2c_hi) {
                        *r += c0 + p;
                    }
                    for j in lo..=hi {
                        row[j] += c2p_row[j + radius - i] + s.p2c[j * w_rel + (i + radius - j)];
                    }
                    for (r, &p) in row[hi + 1..].iter_mut().zip(&s.p2c_lo[hi + 1..]) {
                        *r += c2r + p;
                    }
                }
                s.attn_s[i] = softmax_q7(
                    &s.scores[i * seq..(i + 1) * seq],
                    &mut s.attn_q[i * seq..(i + 1) * seq],
                );
            }
            // attention × value as a pair-packed GEMM over `seq`:
            // interleave the head's V channels by seq-pair once, then
            // sweep two attention rows at a time so every panel load is
            // amortized. Integer sums are exactly the per-(i, d) dots.
            let spairs = seq.div_ceil(2);
            pack_panel(
                &s.vtq[start * seq..],
                seq,
                seq,
                hd,
                &mut s.av_pairs[..spairs * 2 * hd],
            );
            let mut i = 0;
            while i + 2 <= seq {
                let (p0, p1) = s.qpair.split_at_mut(spairs);
                pack_pairs(&s.attn_q[i * seq..(i + 1) * seq], &mut p0[..spairs]);
                pack_pairs(&s.attn_q[(i + 1) * seq..(i + 2) * seq], &mut p1[..spairs]);
                let (a0, a1) = s.acc32.split_at_mut(hd);
                gemv2_i8_pairs(
                    &p0[..spairs],
                    &p1[..spairs],
                    &s.av_pairs,
                    hd,
                    a0,
                    &mut a1[..hd],
                );
                for d in 0..hd {
                    let sv = s.vts[start + d];
                    s.ctx[i * dim + start + d] = s.attn_s[i] * sv * a0[d] as f32;
                    s.ctx[(i + 1) * dim + start + d] = s.attn_s[i + 1] * sv * a1[d] as f32;
                }
                i += 2;
            }
            if i < seq {
                pack_pairs(&s.attn_q[i * seq..(i + 1) * seq], &mut s.qpair[..spairs]);
                gemv_i8_pairs(&s.qpair[..spairs], &s.av_pairs, hd, &mut s.acc32);
                for d in 0..hd {
                    s.ctx[i * dim + start + d] = s.attn_s[i] * s.vts[start + d] * s.acc32[d] as f32;
                }
            }
        }

        // Output projection + residual.
        for r in 0..seq {
            s.xs[r] = quantize_row_i8(
                &s.ctx[r * dim..(r + 1) * dim],
                &mut s.xq[r * dim..(r + 1) * dim],
            );
        }
        qgemm_nt(
            &s.xq[..seq * dim],
            &s.xs[..seq],
            seq,
            dim,
            &blk.q_wo,
            Some(&blk.wo.b.data),
            &mut s.stage[..seq * dim],
        );
        for (o, &a) in s.x[..seq * dim].iter_mut().zip(&s.stage[..seq * dim]) {
            *o += a;
        }

        // ln2 + FFN with fast GELU.
        infer::layer_norm_rows(
            &s.x[..seq * dim],
            dim,
            &blk.ln2_g.data,
            &blk.ln2_b.data,
            &mut s.normed[..seq * dim],
            None,
        );
        for r in 0..seq {
            s.xs[r] = quantize_row_i8(
                &s.normed[r * dim..(r + 1) * dim],
                &mut s.xq[r * dim..(r + 1) * dim],
            );
        }
        qgemm_nt(
            &s.xq[..seq * dim],
            &s.xs[..seq],
            seq,
            dim,
            &blk.q_ffn1,
            Some(&blk.ffn1.b.data),
            &mut s.hbuf[..seq * ffn],
        );
        infer::gelu_fast_slice(&mut s.hbuf[..seq * ffn]);
        for r in 0..seq {
            s.hs[r] = quantize_row_i8(
                &s.hbuf[r * ffn..(r + 1) * ffn],
                &mut s.hq[r * ffn..(r + 1) * ffn],
            );
        }
        qgemm_nt(
            &s.hq[..seq * ffn],
            &s.hs[..seq],
            seq,
            ffn,
            &blk.q_ffn2,
            Some(&blk.ffn2.b.data),
            &mut s.stage[..seq * dim],
        );
        for (o, &a) in s.x[..seq * dim].iter_mut().zip(&s.stage[..seq * dim]) {
            *o += a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plm::{PlmConfig, PlmKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_cfg(kind: PlmKind) -> PlmConfig {
        PlmConfig {
            max_vocab: 300,
            max_tokens: 12,
            window_tokens: 24,
            dim: 16,
            layers: 2,
            heads: 2,
            ffn_dim: 32,
            dropout: 0.1, // identity at inference; must not perturb parity
            radius: 4,
            ..PlmConfig::base(kind)
        }
    }

    fn synthetic_window(vocab: usize, posts: usize, tokens: usize, seed: u64) -> EncodedWindow {
        let mut rng = StdRng::seed_from_u64(seed);
        EncodedWindow {
            post_tokens: (0..posts)
                .map(|_| {
                    (0..tokens)
                        .map(|_| rng.gen_range(0..vocab as u32))
                        .collect()
                })
                .collect(),
            time_feats: (0..posts)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0f32..1.5)))
                .collect(),
            label: 0,
        }
    }

    #[test]
    fn f32_engine_is_bitwise_identical_to_tape() {
        for kind in [PlmKind::Roberta, PlmKind::Deberta] {
            let fitted = FittedPlm::synthetic(tiny_cfg(kind), 42);
            let model = PlmInferenceModel::export(&fitted);
            let vocab = fitted.encoder.vocab.len();
            for (posts, tokens, seed) in [(1, 1, 1), (2, 5, 2), (5, 12, 3), (5, 12, 4)] {
                let w = synthetic_window(vocab, posts, tokens, seed);
                let tape_logits = fitted.logits_tape(&w);
                let fast = model.logits_f32(&w);
                assert_eq!(
                    tape_logits.len(),
                    fast.len(),
                    "{kind:?} logit width mismatch"
                );
                for (i, (&a, &b)) in tape_logits.iter().zip(&fast).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{kind:?} posts={posts} logit {i}: tape {a} vs f32 engine {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn int8_logits_track_f32_within_epsilon() {
        for kind in [PlmKind::Roberta, PlmKind::Deberta] {
            let fitted = FittedPlm::synthetic(tiny_cfg(kind), 43);
            let model = PlmInferenceModel::export(&fitted);
            let vocab = fitted.encoder.vocab.len();
            let mut scratch = PlmScratch::default();
            let mut agree = 0usize;
            let n = 40;
            let mut max_err = 0.0f32;
            for seed in 0..n {
                let w = synthetic_window(vocab, 1 + (seed as usize % 5), 10, 100 + seed);
                let f = model.logits_f32(&w);
                let q = model.logits_i8(&w, &mut scratch);
                for (a, b) in f.iter().zip(&q) {
                    max_err = max_err.max((a - b).abs());
                }
                if argmax(&f) == argmax(&q) {
                    agree += 1;
                }
            }
            assert!(max_err < 0.1, "{kind:?}: max logit err {max_err}");
            assert!(
                agree * 100 >= n as usize * 95,
                "{kind:?}: agreement {agree}/{n}"
            );
        }
    }

    #[test]
    fn int8_scoring_is_bitwise_deterministic_across_threads_and_batches() {
        let fitted = FittedPlm::synthetic(tiny_cfg(PlmKind::Deberta), 44);
        let model = PlmInferenceModel::export(&fitted);
        let vocab = fitted.encoder.vocab.len();
        let windows: Vec<EncodedWindow> = (0..37)
            .map(|i| synthetic_window(vocab, 1 + i % 5, 11, 500 + i as u64))
            .collect();

        let serial = rsd_par::run_serial(|| model.score_windows(&windows, true));
        for threads in [1, 2, 4] {
            let pooled = rsd_par::with_local_pool(threads, || model.score_windows(&windows, true));
            assert_eq!(serial, pooled, "threads={threads}");
        }
        // Batch partitioning: one window at a time must match the batch.
        let mut scratch = PlmScratch::default();
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(serial[i], model.score(w, true, &mut scratch), "window {i}");
        }
        // And raw logits are bitwise stable call-to-call.
        let a = model.logits_i8(&windows[0], &mut scratch);
        let b = model.logits_i8(&windows[0], &mut scratch);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn stream_encoding_matches_batch_encoding_shape() {
        let fitted = FittedPlm::synthetic(tiny_cfg(PlmKind::Roberta), 45);
        let model = PlmInferenceModel::export(&fitted);
        let stamps: Vec<Timestamp> = (0..3)
            .map(|i| Timestamp::from_ymd_hms(2020, 6, 1 + i, 12, 0, 0).unwrap())
            .collect();
        let w = model.encode_stream(&["w1 w2 w3", "w4 w5", "w6"], &stamps);
        assert_eq!(w.post_tokens.len(), 3);
        assert_eq!(w.time_feats.len(), 3);
        // CLS prefix on every post.
        for toks in &w.post_tokens {
            assert_eq!(toks[0], rsd_text::SpecialToken::Cls.id());
        }
        let mut scratch = PlmScratch::default();
        let f = model.logits(&w, false, &mut scratch);
        let q = model.logits(&w, true, &mut scratch);
        assert!(f.iter().all(|v| v.is_finite()));
        assert!(q.iter().all(|v| v.is_finite()));
    }
}
