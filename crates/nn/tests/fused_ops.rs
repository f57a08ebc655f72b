//! The whole-block tape ops against the graphs they replace.
//!
//! `Tape::attention` and `Tape::lstm` each stand for a graph of primitive
//! tape ops: per-head narrows, transposes, matmuls, relative gathers,
//! adds, scale and softmax, and per-step 1-row matmuls, bias rows, gate
//! narrows and elementwise gates. This file builds those graphs from the
//! primitive ops as a reference and checks that the fused ops give the
//! same bits: forward values, every leaf gradient and every harvested
//! parameter gradient, signed zeros included, serially and on a 4-thread
//! pool.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsd_nn::attention::MultiHeadAttention;
use rsd_nn::layers::Linear;
use rsd_nn::matrix::Matrix;
use rsd_nn::rnn::Lstm;
use rsd_nn::{ParamStore, Tape, Var};

/// Deterministic values with `+0.0` and `-0.0` mixed in.
fn values(rows: usize, cols: usize, salt: f32) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| match i % 9 {
            4 => -0.0,
            7 => 0.0,
            _ => ((i as f32 + salt) * 0.618).sin() * (1.0 + salt * 0.1),
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// An upstream gradient: values, signed zeros, and whole rows of `-0.0`.
fn upstream(rows: usize, cols: usize, salt: f32) -> Matrix {
    let mut m = values(rows, cols, salt);
    for r in (1..rows).step_by(3) {
        m.row_mut(r).fill(-0.0);
    }
    m
}

fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "{what}: shape"
    );
    for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: fused {g} vs graph {w}"
        );
    }
}

/// Run `check` serially and on a 4-thread pool.
fn both_pools(check: impl Fn()) {
    rsd_par::run_serial(&check);
    rsd_par::with_local_pool(4, &check);
}

// ---- reference graphs ----------------------------------------------------

/// The relative-position gather from primitive ops: from `x` (n×w,
/// w = 2·radius+1) build the n×n matrix `out[i][j] = x[i][clamp(j-i+r)]`,
/// or `x[j][clamp(i-j+r)]` when `transposed`. `x` is flattened column by
/// column with narrows and a row concat, and each output column is one
/// `gather`. The gathers are built last column first, so the reverse
/// sweep sums each cell's gradient in ascending output order from `+0.0`,
/// as the relative scatter does.
fn relative_gather(t: &mut Tape, x: Var, radius: usize, transposed: bool) -> Var {
    let (n, w) = t.shape(x);
    assert_eq!(w, 2 * radius + 1);
    let cols: Vec<Var> = (0..w).map(|c| t.narrow_cols(x, c, 1)).collect();
    let flat = t.concat_rows(&cols);
    let clamp = |a: usize, b: usize| (a + radius).saturating_sub(b).min(2 * radius);
    let mut out = vec![flat; n];
    for j in (0..n).rev() {
        let ids: Vec<u32> = (0..n)
            .map(|i| {
                let (row, c) = if transposed {
                    (j, clamp(i, j))
                } else {
                    (i, clamp(j, i))
                };
                (c * n + row) as u32
            })
            .collect();
        out[j] = t.gather(flat, &ids);
    }
    t.concat_cols(&out)
}

/// The per-head attention graph: absolute when `rel` is `None`, else
/// DeBERTa's disentangled scores.
fn reference_attention(
    t: &mut Tape,
    q: Var,
    k: Var,
    v: Var,
    rel: Option<(Var, Var, usize)>,
    heads: usize,
) -> Var {
    let dim = t.shape(q).1;
    let hd = dim / heads;
    let scale = match rel {
        None => 1.0 / (hd as f32).sqrt(),
        Some(_) => 1.0 / (3.0 * hd as f32).sqrt(),
    };
    let mut outs = Vec::with_capacity(heads);
    for h in 0..heads {
        let start = h * hd;
        let qh = t.narrow_cols(q, start, hd);
        let kh = t.narrow_cols(k, start, hd);
        let vh = t.narrow_cols(v, start, hd);
        let scores = match rel {
            None => {
                let kt = t.transpose(kh);
                t.matmul(qh, kt)
            }
            Some((qr, kr, radius)) => {
                let qrh = t.narrow_cols(qr, start, hd);
                let krh = t.narrow_cols(kr, start, hd);
                let kt = t.transpose(kh);
                let c2c = t.matmul(qh, kt);
                let krt = t.transpose(krh);
                let c2p_full = t.matmul(qh, krt);
                let c2p = relative_gather(t, c2p_full, radius, false);
                let qrt = t.transpose(qrh);
                let p2c_full = t.matmul(kh, qrt);
                let p2c = relative_gather(t, p2c_full, radius, true);
                let sum1 = t.add(c2c, c2p);
                t.add(sum1, p2c)
            }
        };
        let scaled = t.scale(scores, scale);
        let attn = t.softmax_rows(scaled);
        outs.push(t.matmul(attn, vh));
    }
    t.concat_cols(&outs)
}

/// One LSTM step graph: `(h, c) → (h', c')`.
fn lstm_step(t: &mut Tape, store: &ParamStore, l: &Lstm, x: Var, h: Var, c: Var) -> (Var, Var) {
    let gx = l.wx.forward(t, store, x);
    let gh = l.wh.forward(t, store, h);
    let gates = t.add(gx, gh);
    let hsz = l.hidden;
    let i = t.narrow_cols(gates, 0, hsz);
    let f = t.narrow_cols(gates, hsz, hsz);
    let g = t.narrow_cols(gates, 2 * hsz, hsz);
    let o = t.narrow_cols(gates, 3 * hsz, hsz);
    let i = t.sigmoid(i);
    let f = t.sigmoid(f);
    let g = t.tanh(g);
    let o = t.sigmoid(o);
    let fc = t.mul(f, c);
    let ig = t.mul(i, g);
    let c_next = t.add(fc, ig);
    let tc = t.tanh(c_next);
    let h_next = t.mul(o, tc);
    (h_next, c_next)
}

/// One LSTM direction as a graph of steps over row selects, with a row
/// concat of the hidden states in sequence order.
fn reference_lstm(t: &mut Tape, store: &ParamStore, l: &Lstm, seq: Var, reverse: bool) -> Var {
    let n = t.shape(seq).0;
    let mut h = t.constant(Matrix::zeros(1, l.hidden));
    let mut c = t.constant(Matrix::zeros(1, l.hidden));
    let mut outputs = vec![h; n];
    let order: Vec<usize> = if reverse {
        (0..n).rev().collect()
    } else {
        (0..n).collect()
    };
    for s in order {
        let x = t.select_row(seq, s);
        (h, c) = lstm_step(t, store, l, x, h, c);
        outputs[s] = h;
    }
    t.concat_rows(&outputs)
}

// ---- attention -------------------------------------------------------------

/// `m` times `f`.
fn times(mut m: Matrix, f: f32) -> Matrix {
    m.data.iter_mut().for_each(|v| *v *= f);
    m
}

/// Fused vs reference attention from constant leaves, with an upstream
/// gradient carrying signed zeros. Each shape runs twice: with ordinary
/// magnitudes, and with tiny ones whose gradient products underflow to
/// signed zeros, so the sign of every zero gradient is checked too.
fn check_attention_leaves(n: usize, heads: usize, hd: usize, radius: Option<usize>) {
    for (qk, v_scale) in [(1.0, 1.0), (1e-20, 1e-30)] {
        check_attention_at(n, heads, hd, radius, qk, v_scale);
    }
}

fn check_attention_at(
    n: usize,
    heads: usize,
    hd: usize,
    radius: Option<usize>,
    qk: f32,
    v_scale: f32,
) {
    let dim = heads * hd;
    let what = format!("n={n} heads={heads} hd={hd} radius={radius:?} scale={qk:e}");
    let up = upstream(n, dim, 0.7);
    let run = |fused: bool| {
        let mut t = Tape::new();
        let q = t.constant(times(values(n, dim, 1.0), qk));
        let k = t.constant(times(values(n, dim, 2.0), qk));
        let v = t.constant(times(values(n, dim, 3.0), v_scale));
        let rel = radius.map(|r| {
            let qr = t.constant(times(values(2 * r + 1, dim, 4.0), qk));
            let kr = t.constant(times(values(2 * r + 1, dim, 5.0), qk));
            (qr, kr, r)
        });
        let out = if fused {
            t.attention(q, k, v, rel, heads)
        } else {
            reference_attention(&mut t, q, k, v, rel, heads)
        };
        let w = t.constant(up.clone());
        let loss = t.mul(out, w);
        t.backward(loss);
        let mut leaves = vec![t.value(out).clone(), t.grad(q), t.grad(k), t.grad(v)];
        if let Some((qr, kr, _)) = rel {
            leaves.extend([t.grad(qr), t.grad(kr)]);
        }
        leaves
    };
    both_pools(|| {
        let (fused, graph) = (run(true), run(false));
        for (i, (f, g)) in fused.iter().zip(&graph).enumerate() {
            let name = ["value", "dq", "dk", "dv", "dqr", "dkr"][i];
            assert_bits(f, g, &format!("{what} {name}"));
        }
    });
}

#[test]
fn absolute_attention_matches_graph() {
    for (n, heads, hd) in [
        (1, 1, 12),
        (1, 4, 12),
        (7, 4, 12),
        (9, 2, 5),
        (6, 3, 7),
        (4, 1, 3),
    ] {
        check_attention_leaves(n, heads, hd, None);
    }
}

#[test]
fn disentangled_attention_matches_graph() {
    for (n, heads, hd, radius) in [
        (1, 1, 12, 0),
        (1, 2, 12, 3),
        (7, 4, 12, 2),
        (6, 2, 12, 8),
        (5, 3, 7, 5),
        (9, 2, 5, 1),
        (10, 4, 3, 0),
    ] {
        check_attention_leaves(n, heads, hd, Some(radius));
    }
}

/// The attention blocks end to end: projections, the fused op and the
/// output projection, with every parameter gradient harvested into a
/// store whose accumulated gradients already hold signed zeros.
#[test]
fn attention_blocks_harvest_the_graphs_parameter_gradients() {
    for relative in [false, true] {
        for (n, dim, heads, radius) in [(1, 12, 2, 2), (8, 24, 2, 3), (5, 21, 3, 9)] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut store = ParamStore::new();
            let a = if relative {
                MultiHeadAttention::relative(&mut store, "d", dim, heads, radius, &mut rng)
            } else {
                MultiHeadAttention::new(&mut store, "a", dim, heads, &mut rng)
            };
            seed_signed_zero_grads(&mut store);
            let x = values(n, dim, 6.0);
            let up = upstream(n, dim, 0.3);
            let run = |fused: bool| {
                let mut store = store.clone();
                let mut t = Tape::new();
                let xv = t.constant(x.clone());
                let out = if fused {
                    a.forward(&mut t, &store, xv)
                } else {
                    let q = a.wq.forward(&mut t, &store, xv);
                    let k = a.wk.forward(&mut t, &store, xv);
                    let v = a.wv.forward(&mut t, &store, xv);
                    let rel = a.rel.as_ref().map(|table| {
                        let ids: Vec<u32> = (0..(2 * radius + 1) as u32).collect();
                        let rows = table.forward(&mut t, &store, &ids);
                        let qr = a.wq.forward(&mut t, &store, rows);
                        let kr = a.wk.forward(&mut t, &store, rows);
                        (qr, kr, radius)
                    });
                    let ctx = reference_attention(&mut t, q, k, v, rel, heads);
                    a.wo.forward(&mut t, &store, ctx)
                };
                let w = t.constant(up.clone());
                let loss = t.mul(out, w);
                t.backward(loss);
                t.harvest_grads(&mut store);
                (t.value(out).clone(), t.grad(xv), store)
            };
            both_pools(|| {
                let what = format!("relative={relative} n={n} dim={dim} heads={heads}");
                let (fused, graph) = (run(true), run(false));
                assert_bits(&fused.0, &graph.0, &format!("{what} value"));
                assert_bits(&fused.1, &graph.1, &format!("{what} dx"));
                for id in graph.2.ids() {
                    let name = format!("{what} grad {}", graph.2.name(id));
                    assert_bits(fused.2.grad(id), graph.2.grad(id), &name);
                }
            });
        }
    }
}

/// Make every accumulated gradient `-0.0` or `+0.0` (alternating), so a
/// harvest that adds `+0.0` where the graph added nothing, or the reverse,
/// shows in the bits.
fn seed_signed_zero_grads(store: &mut ParamStore) {
    // Fresh gradients are +0.0, and +0.0 · -1 = -0.0.
    store.scale_grads(-1.0);
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        let g = store.grad(id);
        let flip = Matrix::from_vec(
            g.rows,
            g.cols,
            (0..g.data.len())
                .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                .collect(),
        );
        // -0.0 + +0.0 = +0.0 on even entries; -0.0 + -0.0 stays -0.0.
        store.accumulate(id, &flip);
    }
}

// ---- LSTM ------------------------------------------------------------------

/// Fused vs reference LSTM: each direction alone and both sharing one
/// cell as the BiLSTM does, harvested into a store with signed-zero
/// gradients.
fn check_lstm(n: usize, input: usize, hidden: usize) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, "l", input, hidden, &mut rng);
    // Non-zero biases so the gate math sees every term.
    let head = Linear::new(&mut store, "head", 2 * hidden, 3, &mut rng);
    let mut biased = store.clone();
    for id in [lstm.wx.b, lstm.wh.b] {
        let b = biased.value(id).clone();
        *biased.value_mut(id) = values(b.rows, b.cols, 9.0);
    }
    seed_signed_zero_grads(&mut biased);
    let seq = values(n, input, 8.0);
    for dirs in [&[false][..], &[true], &[false, true]] {
        let run = |fused: bool| {
            let mut store = biased.clone();
            let mut t = Tape::new();
            let s = t.constant(seq.clone());
            let outs: Vec<Var> = dirs
                .iter()
                .map(|&rev| {
                    if fused {
                        lstm.run(&mut t, &store, s, rev)
                    } else {
                        reference_lstm(&mut t, &store, &lstm, s, rev)
                    }
                })
                .collect();
            let states = if outs.len() == 2 {
                t.concat_cols(&outs)
            } else {
                outs[0]
            };
            let w = t.constant(upstream(n, hidden * outs.len(), 0.9));
            let weighted = t.mul(states, w);
            let loss = if outs.len() == 2 {
                // Through a head too, as the BiLSTM baseline does.
                let pooled = t.mean_rows(weighted);
                head.forward(&mut t, &store, pooled)
            } else {
                weighted
            };
            t.backward(loss);
            t.harvest_grads(&mut store);
            (t.value(states).clone(), t.grad(s), store)
        };
        both_pools(|| {
            let what = format!("n={n} in={input} hidden={hidden} dirs={dirs:?}");
            let (fused, graph) = (run(true), run(false));
            assert_bits(&fused.0, &graph.0, &format!("{what} value"));
            assert_bits(&fused.1, &graph.1, &format!("{what} dx"));
            for id in graph.2.ids() {
                let name = format!("{what} grad {}", graph.2.name(id));
                assert_bits(fused.2.grad(id), graph.2.grad(id), &name);
            }
        });
    }
}

#[test]
fn lstm_matches_step_graph() {
    for (n, input, hidden) in [(1, 3, 4), (2, 5, 3), (7, 6, 5), (12, 8, 8)] {
        check_lstm(n, input, hidden);
    }
}

/// An LSTM output that receives no gradient contributes nothing, as the
/// step graph's untouched leaves did.
#[test]
fn unused_lstm_harvests_nothing() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, "l", 3, 4, &mut rng);
    let mut t = Tape::new();
    let s = t.constant(values(5, 3, 1.0));
    let _unused = lstm.run(&mut t, &store, s, false);
    let other = t.constant(values(1, 2, 2.0));
    let loss = t.tanh(other);
    t.backward(loss);
    assert_eq!(t.param_grads().count(), 0);
}
