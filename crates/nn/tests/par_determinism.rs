//! Property tests for the kernel determinism contract: for any shape,
//! the blocked parallel kernels must be byte-identical under forced
//! serial execution and on a 4-thread local pool, and every register
//! width ([`F32Tier`]) of the product kernels and of the `tanh`/`exp`
//! slice functions must be byte-identical to the portable scalar path.

use std::sync::Once;

use proptest::prelude::*;
use rsd_nn::mathf::{exp_slice_on, tanh_slice_on};
use rsd_nn::matrix::{F32Tier, Matrix};

/// The dot4 rounding as a scalar reference: lane `l` sums the
/// products at `k ≡ l (mod 4)` below the last multiple of 4, the rest
/// go to a scalar tail, and the result is `((s0+s1)+(s2+s3)) + tail`.
fn dot4(x: &[f32], y: &[f32]) -> f32 {
    let len = x.len().min(y.len());
    let (x, y) = (&x[..len], &y[..len]);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut k = 0;
    while k + 4 <= len {
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
        k += 4;
    }
    let mut tail = 0.0f32;
    while k < len {
        tail += x[k] * y[k];
        k += 1;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// `vals` cycled over a rows × cols matrix; `sparse` zeroes two entries
/// in three, so every row is zero-heavy.
fn matrix_from(rows: usize, cols: usize, vals: &[f32], sparse: bool) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            if sparse && i % 3 != 0 {
                0.0
            } else {
                vals[i % vals.len()]
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.data.iter().map(|v| v.to_bits()).collect()
}

/// The bits of `f` applied in place to a copy of `xs` on `tier`.
fn slice_bits(f: fn(F32Tier, &mut [f32]), tier: F32Tier, xs: &[f32]) -> Vec<u32> {
    let mut ys = xs.to_vec();
    f(tier, &mut ys);
    ys.iter().map(|v| v.to_bits()).collect()
}

/// Draws as generated by `(0u32..10, -2.0f32..2.0, 1u32..0x80_0000)`
/// mapped to ordinary values mixed with signed zeros and subnormals of
/// both signs.
fn edge_values(draws: &[(u32, f32, u32)]) -> Vec<f32> {
    draws
        .iter()
        .map(|&(pick, v, sub)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(sub),
            3 => -f32::from_bits(sub),
            _ => v,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked `matmul_nt` kernel rounds every output exactly as the
    /// scalar `dot4` does: k of every residue mod 4, output widths that
    /// leave a partial block of eight, and single-row left operands.
    fn matmul_nt_equals_per_element_dot4(
        single_row in 0u32..2,
        m in 2usize..6,
        k_quads in 0usize..10,
        k_rem in 0usize..4,
        n_blocks in 0usize..4,
        n_rem in 1usize..8,
        a_draws in collection::vec((0u32..10, -2.0f32..2.0, 1u32..0x80_0000), 1..64),
        b_draws in collection::vec((0u32..10, -2.0f32..2.0, 1u32..0x80_0000), 1..64),
    ) {
        let m = if single_row == 1 { 1 } else { m };
        let (k, n) = (4 * k_quads + k_rem, 8 * n_blocks + n_rem);
        let (a_vals, b_vals) = (edge_values(&a_draws), edge_values(&b_draws));
        let cycle = |len: usize, vals: &[f32]| -> Vec<f32> {
            (0..len).map(|i| vals[(i * 7 + i / vals.len()) % vals.len()]).collect()
        };
        let a = Matrix::from_vec(m, k, cycle(m * k, &a_vals));
        let b = Matrix::from_vec(n, k, cycle(n * k, &b_vals));
        let want: Vec<u32> = (0..m)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| dot4(a.row(i), b.row(j)).to_bits())
            .collect();
        let ser = rsd_par::run_serial(|| a.matmul_nt(&b));
        let par = rsd_par::with_local_pool(4, || a.matmul_nt(&b));
        prop_assert_eq!(bits(&ser), want.clone());
        prop_assert_eq!(bits(&par), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `matmul` output is one fused multiply-add chain in ascending
    /// k from `+0.0`, zero coefficients included, on signed zeros and
    /// subnormals. Widths cover every residue mod 8, and the row counts
    /// the one-, four- and eight-row register blocks of the AVX2 kernel.
    fn matmul_equals_ascending_fused_chains(
        m in 1usize..12,
        k in 1usize..20,
        n_blocks in 0usize..3,
        n_rem in 0usize..8,
        a_draws in collection::vec((0u32..10, -2.0f32..2.0, 1u32..0x80_0000), 1..64),
        b_draws in collection::vec((0u32..10, -2.0f32..2.0, 1u32..0x80_0000), 1..64),
    ) {
        let n = (8 * n_blocks + n_rem).max(1);
        let (a_vals, b_vals) = (edge_values(&a_draws), edge_values(&b_draws));
        let cycle = |len: usize, vals: &[f32]| -> Vec<f32> {
            (0..len).map(|i| vals[(i * 7 + i / vals.len()) % vals.len()]).collect()
        };
        let a = Matrix::from_vec(m, k, cycle(m * k, &a_vals));
        let b = Matrix::from_vec(k, n, cycle(k * n, &b_vals));
        let mut want = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut o = 0.0f32;
                for (kk, &av) in a.row(i).iter().enumerate() {
                    o = av.mul_add(b.get(kk, j), o);
                }
                want.push(o.to_bits());
            }
        }
        let ser = rsd_par::run_serial(|| a.matmul(&b));
        let par = rsd_par::with_local_pool(4, || a.matmul(&b));
        prop_assert_eq!(bits(&ser), want.clone());
        prop_assert_eq!(bits(&par), want);
    }
}

/// `a @ b` as `matmul` rounds it: one fused multiply-add chain per output
/// in ascending k from `+0.0`.
fn fused_chains(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for (k, &c) in a.row(i).iter().enumerate() {
            for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                *o = c.mul_add(bv, *o);
            }
        }
    }
    out
}

/// The tiers this CPU runs. Each one it cannot run is reported once.
fn tiers_here() -> Vec<F32Tier> {
    static SKIPS: Once = Once::new();
    SKIPS.call_once(|| {
        for tier in F32Tier::ALL.iter().filter(|t| !t.runs_here()) {
            eprintln!("skip: the {} tier does not run on this CPU", tier.name());
        }
    });
    F32Tier::ALL.into_iter().filter(|t| t.runs_here()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every tier of `matmul`, `matmul_tn`, `matmul_dot4` and `matmul_nt`
    /// equals the portable kernel bit for bit, serially and on a 4-thread
    /// pool: 1–9 output rows, k of 1–70 (every residue mod 4), 1–40
    /// outputs (below, at and between multiples of 8 and 16), zero-heavy
    /// rows, signed zeros and subnormals of both signs. So does every
    /// tier of `tanh_slice_on` and `exp_slice_on` over the left operand's
    /// values scaled by 1/64, 1/8, 1, 8 and 64 in turn, each followed by
    /// its next 15 bit patterns. That reaches every branch of both and
    /// puts chunks on both sides of each function's ordinary range.
    fn every_tier_equals_portable(
        rows in 1usize..10,
        k in 1usize..71,
        outs in 1usize..41,
        zero_heavy in 0u32..2,
        a_draws in collection::vec((0u32..10, -2.0f32..2.0, 1u32..0x80_0000), 1..64),
        b_draws in collection::vec((0u32..10, -2.0f32..2.0, 1u32..0x80_0000), 1..64),
    ) {
        let (a_vals, b_vals) = (edge_values(&a_draws), edge_values(&b_draws));
        let cycle = |len: usize, vals: &[f32], zero_heavy: bool| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    if zero_heavy && i % 3 != 0 {
                        0.0
                    } else {
                        vals[(i * 7 + i / vals.len()) % vals.len()]
                    }
                })
                .collect()
        };
        // NT: rows × k against outs × k; TN: (k × rows)ᵀ against k × outs;
        // NN: rows × k against k × outs.
        let a = Matrix::from_vec(rows, k, cycle(rows * k, &a_vals, zero_heavy == 1));
        let b = Matrix::from_vec(outs, k, cycle(outs * k, &b_vals, false));
        let bt = b.transpose();
        let at = Matrix::from_vec(k, rows, cycle(k * rows, &a_vals, zero_heavy == 1));
        let nt_want = bits(&a.matmul_dot4_on(F32Tier::Portable, &bt));
        let tn_want = bits(&at.matmul_tn_on(F32Tier::Portable, &bt));
        let nn_want = bits(&a.matmul_on(F32Tier::Portable, &bt));
        let xs: Vec<f32> = a
            .data
            .iter()
            .zip([1.0f32 / 64.0, 0.125, 1.0, 8.0, 64.0].iter().cycle())
            .flat_map(|(&x, &s)| (0..16).map(move |d| f32::from_bits((x * s).to_bits() + d)))
            .collect();
        let tanh_want = slice_bits(tanh_slice_on, F32Tier::Portable, &xs);
        let exp_want = slice_bits(exp_slice_on, F32Tier::Portable, &xs);
        for tier in tiers_here() {
            prop_assert!(slice_bits(tanh_slice_on, tier, &xs) == tanh_want, "tanh {}", tier.name());
            prop_assert!(slice_bits(exp_slice_on, tier, &xs) == exp_want, "exp {}", tier.name());
            for pooled in [false, true] {
                let run = |f: &dyn Fn() -> Matrix| if pooled {
                    rsd_par::with_local_pool(4, f)
                } else {
                    rsd_par::run_serial(f)
                };
                let what = format!("{} pooled={pooled}", tier.name());
                prop_assert!(bits(&run(&|| a.matmul_dot4_on(tier, &bt))) == nt_want, "dot4 {what}");
                prop_assert!(bits(&run(&|| at.matmul_tn_on(tier, &bt))) == tn_want, "tn {what}");
                prop_assert!(bits(&run(&|| a.matmul_on(tier, &bt))) == nn_want, "nn {what}");
            }
        }
        prop_assert_eq!(bits(&a.matmul_nt(&b)), nt_want);
        prop_assert_eq!(bits(&at.matmul_tn(&bt)), tn_want);
        prop_assert_eq!(bits(&a.matmul(&bt)), nn_want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn matmul_parallel_equals_serial_and_chains(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        sparse in 0u32..2,
        vals in collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = matrix_from(m, k, &vals, sparse == 1);
        let b = matrix_from(k, n, &vals, false);
        let par = rsd_par::with_local_pool(4, || a.matmul(&b));
        let ser = rsd_par::run_serial(|| a.matmul(&b));
        prop_assert_eq!(bits(&par), bits(&ser));
        prop_assert_eq!(bits(&par), bits(&fused_chains(&a, &b)));
    }

    /// `aᵀ·b` forms the fused chains `matmul` forms for the explicit
    /// transpose.
    fn matmul_tn_parallel_equals_serial_and_portable(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        vals in collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = matrix_from(k, m, &vals, false);
        let b = matrix_from(k, n, &vals, false);
        let par = rsd_par::with_local_pool(4, || a.matmul_tn(&b));
        let ser = rsd_par::run_serial(|| a.matmul_tn(&b));
        prop_assert_eq!(bits(&par), bits(&ser));
        prop_assert_eq!(bits(&par), bits(&a.matmul_tn_on(F32Tier::Portable, &b)));
        prop_assert_eq!(bits(&par), bits(&fused_chains(&a.transpose(), &b)));
    }

    fn matmul_nt_parallel_equals_serial_and_portable(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        vals in collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = matrix_from(m, k, &vals, false);
        let b = matrix_from(n, k, &vals, false);
        let par = rsd_par::with_local_pool(4, || a.matmul_nt(&b));
        let ser = rsd_par::run_serial(|| a.matmul_nt(&b));
        prop_assert_eq!(bits(&par), bits(&ser));
        prop_assert_eq!(bits(&par), bits(&a.matmul_dot4_on(F32Tier::Portable, &b.transpose())));
    }

    fn transpose_and_map_parallel_equal_serial(
        m in 1usize..64,
        n in 1usize..64,
        vals in collection::vec(-2.0f32..2.0, 8..32),
    ) {
        let a = matrix_from(m, n, &vals, false);
        let par = rsd_par::with_local_pool(4, || (a.transpose(), a.map(|x| x.tanh())));
        let ser = rsd_par::run_serial(|| (a.transpose(), a.map(|x| x.tanh())));
        prop_assert_eq!(bits(&par.0), bits(&ser.0));
        prop_assert!((0..m).all(|i| (0..n).all(|j| par.0.get(j, i).to_bits() == a.get(i, j).to_bits())));
        prop_assert_eq!(bits(&par.1), bits(&ser.1));
    }
}
