//! Kernel speedup artifact: times the blocked `rsd-par` kernels against
//! the pre-optimization reference implementations and writes
//! `BENCH_kernels.json` at the workspace root, or to the path given as
//! its one optional argument (`bench_kernels [OUT]`).
//!
//! Four workload families:
//!
//! * dense matmul at 128/256/512 dims — [`reference::matmul`] (the
//!   seed's zero-branch scalar kernel) vs the new blocked kernel,
//!   serially and on a 4-thread local pool;
//! * the products at the DeBERTa training shapes — `matmul`, `matmul_nt`
//!   and `matmul_tn` on the detected f32 tier vs the portable scalar
//!   kernel, with a bitwise check against the portable kernel;
//! * `tanh` and `exp` per element — libm, the scalar glibc ports and the
//!   slice functions on the detected tier, with a bitwise check;
//! * a table3-scale GBDT tree fit — a verbatim re-creation of the seed's
//!   row-major (`Vec<Vec<u16>>`) histogram split search vs the new
//!   column-major gathered [`Tree::fit`];
//! * the same tree fit on sparse data (most cells in one bin) over a
//!   shuffled row subsample and a column subsample, as the XGBoost
//!   baseline's booster rounds see it;
//! * a full [`Booster::fit`] plus a byte-identity check of its
//!   predictions across serial / 1-thread / 4-thread execution;
//! * PLM inference at paper scale — the training tape, the tape-free f32
//!   engine, and the per-channel int8 fast path, batched and single-post,
//!   with the quantization quality gates ([`QUANT_EPS`],
//!   [`QUANT_MIN_AGREE`], [`QUANT_MIN_SPEEDUP`]) asserted in-process.
//!
//! On a single-core host the pool cannot add wall-clock speedup; the
//! honest headline number is the kernel-level speedup vs the reference
//! implementations, which threading multiplies on multi-core hosts.

use std::time::Instant;

use rsd_bench::reference;
use rsd_common::rng::{sample_indices, stream_rng};
use rsd_gbdt::tree::TreeConfig;
use rsd_gbdt::{BinnedMatrix, Booster, BoosterConfig, Tree};
use rsd_models::{
    EncodedWindow, FittedPlm, PlmConfig, PlmInferenceModel, PlmKind, PlmScratch, TIME_FEATURE_DIM,
};
use rsd_nn::loss::argmax;
use rsd_nn::mathf;
use rsd_nn::matrix::{F32Tier, Matrix};

const REPS: usize = 9;
/// Quality gate: max per-logit |int8 − f32| on every window.
const QUANT_EPS: f64 = 0.1;
/// Quality gate: min argmax agreement of int8 with f32, percent.
const QUANT_MIN_AGREE: f64 = 99.0;
/// Speed gate: min serial int8-over-f32 batch speedup.
const QUANT_MIN_SPEEDUP: f64 = 2.0;

/// Best-of-`REPS` wall-clock in milliseconds.
fn time_best<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn pseudo_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 ^ salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            ((h % 1000) as f32) / 500.0 - 1.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|v| v.to_bits()).collect()
}

fn matmul_rows() -> Vec<serde_json::Value> {
    [128usize, 256, 512]
        .iter()
        .map(|&dim| {
            let a = pseudo_matrix(dim, dim, 1);
            let b = pseudo_matrix(dim, dim, 2);
            let reference_ms = time_best(|| reference::matmul(&a, &b));
            let serial_ms = time_best(|| rsd_par::run_serial(|| a.matmul(&b)));
            let pool4_ms = time_best(|| rsd_par::with_local_pool(4, || a.matmul(&b)));
            let ser = rsd_par::run_serial(|| a.matmul(&b));
            let par = rsd_par::with_local_pool(4, || a.matmul(&b));
            let rf = reference::matmul(&a, &b);
            let row = serde_json::json!({
                "dim": dim,
                "reference_ms": reference_ms,
                "serial_ms": serial_ms,
                "pool4_ms": pool4_ms,
                "speedup_serial_vs_reference": reference_ms / serial_ms,
                "speedup_pool4_vs_reference": reference_ms / pool4_ms,
                "bitwise_serial_eq_pool4": bits(&ser) == bits(&par),
                "close_to_reference": ser
                    .data
                    .iter()
                    .zip(&rf.data)
                    .all(|(x, y)| (x - y).abs() <= 1e-3 * (1.0 + y.abs()))
            });
            println!(
                "matmul {dim:>4}: reference {reference_ms:8.2} ms | serial {serial_ms:8.2} ms \
                 ({:.2}x) | pool4 {pool4_ms:8.2} ms ({:.2}x)",
                reference_ms / serial_ms,
                reference_ms / pool4_ms
            );
            row
        })
        .collect()
}

/// Mean microseconds per call of `f`, best of `REPS` batches of `iters`.
fn time_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    time_best(|| (0..iters).map(|_| std::hint::black_box(f())).count()) * 1e3 / iters as f64
}

/// `out = m×k · k×n` products at the DeBERTa training shapes (dim 48,
/// 4 heads of 12, 96 tokens): the linear layers' `x·W`, `g·Wᵀ` and
/// `xᵀ·g`, and the per-head attention products.
fn backward_rows() -> Vec<serde_json::Value> {
    let tier = F32Tier::detect();
    let portable = F32Tier::Portable;
    [
        (96usize, 48usize, 48usize),
        (96, 48, 96),
        (96, 96, 48),
        (96, 12, 96),
        (96, 96, 12),
    ]
    .iter()
    .map(|&(m, k, n)| {
        let iters = (2_000_000 / (m * k * n)).max(10);
        // NN: (m×k)·(k×n); NT: (m×k)·(n×k)ᵀ; TN: (k×m)ᵀ·(k×n).
        let a = pseudo_matrix(m, k, 3);
        let b = pseudo_matrix(n, k, 4);
        let at = pseudo_matrix(k, m, 5);
        let bn = pseudo_matrix(k, n, 6);
        let serial = |f: &dyn Fn() -> Matrix| time_us(iters, || rsd_par::run_serial(f));
        let nt_us = serial(&|| a.matmul_nt(&b));
        let nt_portable_us = serial(&|| a.matmul_dot4_on(portable, &b.transpose()));
        let tn_us = serial(&|| at.matmul_tn(&bn));
        let tn_portable_us = serial(&|| at.matmul_tn_on(portable, &bn));
        let nn_us = serial(&|| a.matmul(&bn));
        let nn_portable_us = serial(&|| a.matmul_on(portable, &bn));
        let nt_bitwise =
            bits(&a.matmul_nt(&b)) == bits(&a.matmul_dot4_on(portable, &b.transpose()));
        let tn_bitwise = bits(&at.matmul_tn(&bn)) == bits(&at.matmul_tn_on(portable, &bn));
        let nn_bitwise = bits(&a.matmul(&bn)) == bits(&a.matmul_on(portable, &bn));
        println!(
            "product {m:>3}x{k:>3}·{k:>3}x{n:>3} [{}]: nt {nt_us:7.2} us (portable \
                 {nt_portable_us:7.2}) | tn {tn_us:7.2} us (portable {tn_portable_us:7.2}) \
                 | nn {nn_us:7.2} us (portable {nn_portable_us:7.2}) | bitwise nt \
                 {nt_bitwise} tn {tn_bitwise} nn {nn_bitwise}",
            tier.name()
        );
        serde_json::json!({
            "shape": format!("{m}x{k}·{k}x{n}"),
            "f32_tier": tier.name(),
            "nt_us": nt_us,
            "nt_portable_us": nt_portable_us,
            "tn_us": tn_us,
            "tn_portable_us": tn_portable_us,
            "nn_us": nn_us,
            "nn_portable_us": nn_portable_us,
            "nt_bitwise_eq_portable": nt_bitwise,
            "tn_bitwise_eq_portable": tn_bitwise,
            "nn_bitwise_eq_portable": nn_bitwise
        })
    })
    .collect()
}

/// Nanoseconds per element of `tanh` and `exp` over 4,096 inputs in the
/// range GELU (tanh) and softmax (exp) feed them: this host's libm, the
/// scalar glibc ports in `rsd_nn::mathf`, and the slice functions on the
/// detected tier, with a bitwise check of the slices against libm.
fn transcendental_rows() -> Vec<serde_json::Value> {
    type Scalar = fn(f32) -> f32;
    type Slice = fn(F32Tier, &mut [f32]);
    const N: usize = 4096;
    let tier = F32Tier::detect();
    let cases: [(&str, f32, f32, Scalar, Scalar, Slice); 2] = [
        (
            "tanh",
            -4.0,
            4.0,
            f32::tanh,
            mathf::tanh,
            mathf::tanh_slice_on,
        ),
        ("exp", -20.0, 0.0, f32::exp, mathf::exp, mathf::exp_slice_on),
    ];
    cases
        .into_iter()
        .map(|(name, lo, hi, libm, port, slice_on)| {
            let xs: Vec<f32> = (0..N)
                .map(|i| lo + (hi - lo) * ((i * 2_654_435_761) % N) as f32 / N as f32)
                .collect();
            let mut ys = xs.clone();
            let mut ns = |f: &dyn Fn(&mut [f32])| {
                time_best(|| {
                    ys.copy_from_slice(&xs);
                    f(&mut ys);
                }) * 1e6
                    / N as f64
            };
            let libm_ns = ns(&|ys| ys.iter_mut().for_each(|v| *v = libm(*v)));
            let port_ns = ns(&|ys| ys.iter_mut().for_each(|v| *v = port(*v)));
            let slice_ns = ns(&|ys| slice_on(tier, ys));
            let mut got = xs.clone();
            slice_on(tier, &mut got);
            let bitwise = got
                .iter()
                .zip(&xs)
                .all(|(g, &x)| g.to_bits() == libm(x).to_bits());
            println!(
                "transcendental {name:>4} [{}]: libm {libm_ns:5.2} ns | port {port_ns:5.2} ns \
                 | slice {slice_ns:5.2} ns per element | slice bitwise libm {bitwise}",
                tier.name()
            );
            serde_json::json!({
                "function": name,
                "f32_tier": tier.name(),
                "libm_ns_per_elem": libm_ns,
                "port_ns_per_elem": port_ns,
                "slice_ns_per_elem": slice_ns,
                "slice_bitwise_eq_libm": bitwise
            })
        })
        .collect()
}

fn gbdt_data(n_rows: usize, n_features: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    (0..n_rows)
        .map(|i| {
            let row: Vec<f32> = (0..n_features)
                .map(|f| {
                    let h = ((i * n_features + f) as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(13);
                    ((h % 1000) as f32) / 500.0 - 1.0
                })
                .collect();
            let label = ((row[0] > 0.0) as usize) * 2 + ((row[1] > 0.0) as usize);
            (row, label)
        })
        .unzip()
}

/// The seed's tree grower, verbatim in structure: row-major nested bins,
/// per-feature histogram built by `bins[i][f]` pointer-chasing, serial
/// split scan, partition, recurse. Returns the node count so the
/// optimizer can't discard the work.
#[allow(clippy::too_many_arguments)]
fn reference_grow(
    bins: &[Vec<u16>],
    n_bins: &[usize],
    grad: &[f32],
    hess: &[f32],
    rows: &[usize],
    features: &[usize],
    cfg: &TreeConfig,
    depth: usize,
) -> usize {
    let g_total: f32 = rows.iter().map(|&i| grad[i]).sum();
    let h_total: f32 = rows.iter().map(|&i| hess[i]).sum();
    if depth >= cfg.max_depth || rows.len() < 2 {
        return 1;
    }
    let parent_score = g_total * g_total / (h_total + cfg.lambda);
    let mut best: Option<(f32, usize, u16)> = None;
    for &f in features {
        let nb = n_bins[f];
        if nb < 2 {
            continue;
        }
        let mut hist_g = vec![0.0f32; nb];
        let mut hist_h = vec![0.0f32; nb];
        for &i in rows {
            let b = bins[i][f] as usize;
            hist_g[b] += grad[i];
            hist_h[b] += hess[i];
        }
        let mut gl = 0.0f32;
        let mut hl = 0.0f32;
        for b in 0..nb - 1 {
            gl += hist_g[b];
            hl += hist_h[b];
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) - parent_score)
                - cfg.gamma;
            if gain > 0.0 && best.is_none_or(|(bg, _, _)| gain > bg) {
                best = Some((gain, f, b as u16));
            }
        }
    }
    let Some((_, feature, bin)) = best else {
        return 1;
    };
    let (left, right): (Vec<usize>, Vec<usize>) =
        rows.iter().partition(|&&i| bins[i][feature] <= bin);
    1 + reference_grow(bins, n_bins, grad, hess, &left, features, cfg, depth + 1)
        + reference_grow(bins, n_bins, grad, hess, &right, features, cfg, depth + 1)
}

fn gbdt_section() -> serde_json::Value {
    // Table-3 order of magnitude for the XGBoost arm: thousands of users,
    // tens of engineered features, four risk levels.
    let (n_rows, n_features) = (15_000usize, 48usize);
    let (rows, labels) = gbdt_data(n_rows, n_features);
    let data = BinnedMatrix::fit(rows, 64).unwrap();

    // Row-major copy exactly as the seed stored it.
    let row_major: Vec<Vec<u16>> = (0..n_rows)
        .map(|i| (0..n_features).map(|f| data.bin(i, f)).collect())
        .collect();
    let n_bins: Vec<usize> = (0..n_features).map(|f| data.cuts.n_bins(f)).collect();

    let grad: Vec<f32> = labels
        .iter()
        .map(|&l| if l == 0 { -0.75 } else { 0.25 })
        .collect();
    let hess = vec![0.1875f32; n_rows];
    let idx: Vec<usize> = (0..n_rows).collect();
    let feats: Vec<usize> = (0..n_features).collect();
    let cfg = TreeConfig {
        max_depth: 6,
        ..Default::default()
    };

    let reference_ms =
        time_best(|| reference_grow(&row_major, &n_bins, &grad, &hess, &idx, &feats, &cfg, 0));
    let serial_ms = time_best(|| {
        rsd_par::run_serial(|| Tree::fit(&data, &grad, &hess, &idx, &feats, &cfg, 0.3))
    });
    let pool4_ms = time_best(|| {
        rsd_par::with_local_pool(4, || {
            Tree::fit(&data, &grad, &hess, &idx, &feats, &cfg, 0.3)
        })
    });
    println!(
        "gbdt tree fit ({n_rows}x{n_features}): reference {reference_ms:8.2} ms | serial \
         {serial_ms:8.2} ms ({:.2}x) | pool4 {pool4_ms:8.2} ms ({:.2}x)",
        reference_ms / serial_ms,
        reference_ms / pool4_ms
    );
    let sparse = sparse_tree_fit(n_rows, n_features, &cfg);

    let boost_cfg = BoosterConfig {
        n_classes: 4,
        n_rounds: 8,
        early_stopping: 0,
        ..Default::default()
    };
    let fit = || {
        let b = Booster::fit(&data, &labels, None, boost_cfg.clone()).unwrap();
        b.predict(&data)
    };
    let booster_serial_ms = time_best(|| rsd_par::run_serial(fit));
    let booster_pool4_ms = time_best(|| rsd_par::with_local_pool(4, fit));
    let p_serial = rsd_par::run_serial(fit);
    let p_one = rsd_par::with_local_pool(1, fit);
    let p_four = rsd_par::with_local_pool(4, fit);
    let deterministic = p_serial == p_one && p_serial == p_four;
    println!(
        "gbdt booster fit (8 rounds x 4 classes): serial {booster_serial_ms:8.2} ms | pool4 \
         {booster_pool4_ms:8.2} ms | deterministic across thread counts: {deterministic}"
    );

    serde_json::json!({
        "n_rows": n_rows,
        "n_features": n_features,
        "n_classes": 4,
        "tree_fit": serde_json::json!({
            "reference_ms": reference_ms,
            "serial_ms": serial_ms,
            "pool4_ms": pool4_ms,
            "speedup_serial_vs_reference": reference_ms / serial_ms,
            "speedup_pool4_vs_reference": reference_ms / pool4_ms
        }),
        "sparse_tree_fit": sparse,
        "booster_fit": serde_json::json!({
            "n_rounds": 8,
            "serial_ms": booster_serial_ms,
            "pool4_ms": booster_pool4_ms
        }),
        "deterministic_across_thread_counts": deterministic
    })
}

/// Serial [`Tree::fit`] on data shaped like the XGBoost baseline's matrix:
/// 85% of cells are 0.0 (one bin per feature), and the tree sees a shuffled
/// 80% row subsample and an 80% column subsample, as one booster round
/// does. Consecutive rows then mostly hit the same histogram bin, which the
/// dense case above never shows.
fn sparse_tree_fit(n_rows: usize, n_features: usize, cfg: &TreeConfig) -> serde_json::Value {
    let rows: Vec<Vec<f32>> = (0..n_rows)
        .map(|i| {
            (0..n_features)
                .map(|f| {
                    let h = ((i * n_features + f) as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(29);
                    if h % 100 < 85 {
                        0.0
                    } else {
                        ((h / 100 % 1000) as f32 + 1.0) / 1000.0
                    }
                })
                .collect()
        })
        .collect();
    let grad: Vec<f32> = rows
        .iter()
        .map(|r| if r[0] + r[1] > 0.5 { -0.75 } else { 0.25 })
        .collect();
    let hess = vec![0.1875f32; n_rows];
    let data = BinnedMatrix::fit(rows, 64).unwrap();
    let top_bin_share = (0..n_features)
        .map(|f| {
            let mut counts = vec![0usize; data.cuts.n_bins(f)];
            for &b in data.feature_bins(f) {
                counts[usize::from(b)] += 1;
            }
            counts.into_iter().max().unwrap_or(0)
        })
        .sum::<usize>() as f64
        / (n_rows * n_features) as f64;
    let mut rng = stream_rng(7, "bench_kernels.gbdt.sparse");
    let idx = sample_indices(&mut rng, n_rows, n_rows * 4 / 5);
    let feats = sample_indices(&mut rng, n_features, n_features * 4 / 5);
    let serial_ms = time_best(|| {
        rsd_par::run_serial(|| Tree::fit(&data, &grad, &hess, &idx, &feats, cfg, 0.3))
    });
    println!(
        "gbdt sparse tree fit ({n_rows}x{n_features}, {:.0}% of cells in their feature's top \
         bin, 0.8 row/col subsample): serial {serial_ms:8.2} ms",
        top_bin_share * 100.0
    );
    serde_json::json!({
        "top_bin_share": top_bin_share,
        "row_subsample": 0.8,
        "colsample": 0.8,
        "serial_ms": serial_ms
    })
}

/// Deterministic pseudo-random encoded window (no RNG dependency so the
/// artifact is reproducible byte-for-byte across hosts).
fn pseudo_window(vocab: usize, posts: usize, tokens: usize, salt: u64) -> EncodedWindow {
    let hash = |i: u64| {
        (i ^ salt)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(21)
    };
    EncodedWindow {
        post_tokens: (0..posts)
            .map(|p| {
                (0..tokens)
                    .map(|t| (hash((p * tokens + t) as u64) % vocab as u64) as u32)
                    .collect()
            })
            .collect(),
        time_feats: (0..posts)
            .map(|p| {
                std::array::from_fn(|d| {
                    let h = hash((100_000 + p * TIME_FEATURE_DIM + d) as u64);
                    ((h % 1000) as f32) / 500.0 - 1.0
                })
            })
            .collect(),
        label: 0,
    }
}

fn inference_section() -> serde_json::Value {
    // A paper-scale DeBERTa-like PLM with seed-deterministic synthetic
    // weights: the int8-vs-f32 contrast depends on shapes, not on what
    // the weights converged to, and synthetic export keeps the artifact
    // reproducible without a training run.
    let cfg = PlmConfig::base(PlmKind::Deberta);
    let (dim, layers) = (cfg.dim, cfg.layers);
    let fitted = FittedPlm::synthetic(cfg.clone(), 7);
    let engine = PlmInferenceModel::export(&fitted);
    let vocab = fitted.encoder.vocab.len();

    let batch: Vec<EncodedWindow> = (0..64)
        .map(|i| pseudo_window(vocab, 5, cfg.max_tokens, 1_000 + i))
        .collect();
    let single = pseudo_window(vocab, 1, cfg.max_tokens, 77);

    // Serial batch timings: tape (the status-quo training-graph forward),
    // the tape-free f32 engine, and the int8 fast path.
    let tape_batch_ms = time_best(|| {
        rsd_par::run_serial(|| batch.iter().map(|w| fitted.logits_tape(w)[0]).sum::<f32>())
    });
    let f32_batch_ms = time_best(|| {
        rsd_par::run_serial(|| batch.iter().map(|w| engine.logits_f32(w)[0]).sum::<f32>())
    });
    let mut scratch = PlmScratch::default();
    let int8_batch_ms = time_best(|| {
        rsd_par::run_serial(|| {
            batch
                .iter()
                .map(|w| engine.logits_i8(w, &mut scratch)[0])
                .sum::<f32>()
        })
    });
    // Micro-batched scoring on a 4-thread pool, the serving shape.
    let f32_pool4_ms =
        time_best(|| rsd_par::with_local_pool(4, || engine.score_windows(&batch, false)));
    let int8_pool4_ms =
        time_best(|| rsd_par::with_local_pool(4, || engine.score_windows(&batch, true)));

    // Single-post latency (the streaming request shape), averaged over a
    // fixed iteration count so sub-millisecond work still times stably.
    const SINGLE_ITERS: usize = 100;
    let single_f32_ms = time_best(|| {
        (0..SINGLE_ITERS)
            .map(|_| engine.logits_f32(&single)[0])
            .sum::<f32>()
    }) / SINGLE_ITERS as f64;
    let single_int8_ms = time_best(|| {
        (0..SINGLE_ITERS)
            .map(|_| engine.logits_i8(&single, &mut scratch)[0])
            .sum::<f32>()
    }) / SINGLE_ITERS as f64;

    // Quality gate over a larger window pool than the timed batch, so one
    // disagreement costs 0.25 points, not 1.6.
    let quality: Vec<EncodedWindow> = (0..400)
        .map(|i| pseudo_window(vocab, 1 + (i as usize % 5), cfg.max_tokens, 50_000 + i))
        .collect();
    let mut agree = 0usize;
    let mut within_eps = 0usize;
    let mut max_abs_diff = 0.0f32;
    for w in &quality {
        let f = engine.logits_f32(w);
        let q = engine.logits_i8(w, &mut scratch);
        let worst = f
            .iter()
            .zip(&q)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        max_abs_diff = max_abs_diff.max(worst);
        if worst <= QUANT_EPS as f32 {
            within_eps += 1;
        }
        if argmax(&f) == argmax(&q) {
            agree += 1;
        }
    }
    let agreement_percent = agree as f64 * 100.0 / quality.len() as f64;
    let within_eps_percent = within_eps as f64 * 100.0 / quality.len() as f64;

    // Bitwise determinism of the int8 path across pool shapes: integer
    // accumulation makes this exact, so it is asserted, not reported.
    let serial_preds = rsd_par::run_serial(|| engine.score_windows(&batch, true));
    let pool_preds = rsd_par::with_local_pool(4, || engine.score_windows(&batch, true));
    assert_eq!(
        serial_preds, pool_preds,
        "int8 scoring must not depend on the pool"
    );

    let int8_speedup_vs_f32 = f32_batch_ms / int8_batch_ms;
    let int8_speedup_vs_tape = tape_batch_ms / int8_batch_ms;
    let n = batch.len() as f64;
    println!(
        "plm inference (dim {dim}, {layers} layers, {} windows): tape {tape_batch_ms:8.2} ms | \
         f32 {f32_batch_ms:8.2} ms | int8 {int8_batch_ms:8.2} ms ({int8_speedup_vs_f32:.2}x f32, \
         {int8_speedup_vs_tape:.2}x tape)",
        batch.len()
    );
    println!(
        "plm quality ({} windows): argmax agreement {agreement_percent:.2}% | within eps {QUANT_EPS}: \
         {within_eps_percent:.2}% | max |logit diff| {max_abs_diff:.4}",
        quality.len()
    );
    assert!(
        within_eps_percent == 100.0,
        "int8 logits drifted: only {within_eps_percent:.2}% of {} windows within \
         QUANT_EPS={QUANT_EPS} (max |diff| {max_abs_diff:.4})",
        quality.len()
    );
    assert!(
        agreement_percent >= QUANT_MIN_AGREE,
        "int8 argmax agreement {agreement_percent:.2}% below QUANT_MIN_AGREE={QUANT_MIN_AGREE}"
    );
    assert!(
        int8_speedup_vs_f32 >= QUANT_MIN_SPEEDUP,
        "int8 batch speedup {int8_speedup_vs_f32:.2}x below QUANT_MIN_SPEEDUP={QUANT_MIN_SPEEDUP}"
    );

    serde_json::json!({
        "model": "deberta-base-synthetic",
        "dim": dim,
        "layers": layers,
        "windows": batch.len(),
        "quality_windows": quality.len(),
        "quant_eps": QUANT_EPS,
        "tape_f32_batch_ms": tape_batch_ms,
        "infer_f32_batch_ms": f32_batch_ms,
        "infer_int8_batch_ms": int8_batch_ms,
        "pool4_f32_batch_ms": f32_pool4_ms,
        "pool4_int8_batch_ms": int8_pool4_ms,
        "single_f32_ms": single_f32_ms,
        "single_int8_ms": single_int8_ms,
        "tape_windows_per_s": n / (tape_batch_ms / 1e3),
        "f32_windows_per_s": n / (f32_batch_ms / 1e3),
        "int8_windows_per_s": n / (int8_batch_ms / 1e3),
        "pool4_int8_windows_per_s": n / (int8_pool4_ms / 1e3),
        "int8_speedup_vs_f32": int8_speedup_vs_f32,
        "int8_speedup_vs_tape": int8_speedup_vs_tape,
        "single_int8_speedup_vs_f32": single_f32_ms / single_int8_ms,
        "argmax_agreement_percent": agreement_percent,
        "logit_within_eps_percent": within_eps_percent,
        "max_abs_logit_diff": max_abs_diff as f64
    })
}

fn main() {
    // Parse every knob now, so a typo aborts before any work.
    rsd_obs::knob::snapshot();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("bench_kernels: {cores} core(s), best of {REPS} reps per timing");

    let matmul = matmul_rows();
    let backward = backward_rows();
    let transcendentals = transcendental_rows();
    let gbdt = gbdt_section();
    let inference = inference_section();

    let report = serde_json::json!({
        "generated_by": "bench_kernels",
        "meta": rsd_obs::run_meta(),
        "reps": REPS,
        "matmul": matmul,
        "backward": backward,
        "transcendentals": transcendentals,
        "gbdt": gbdt,
        "inference": inference,
        "note": "reference_* times the seed's kernels (kept in-tree as rsd_bench::reference \
                 and re-created for the GBDT grower); on a single-core host pool4 adds scheduling \
                 overhead only, and the speedup column is pure kernel work reduction that a \
                 multi-core host multiplies across RSD_THREADS workers."
    });
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".into());
    std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap() + "\n").unwrap();
    println!("wrote {path}");
}
