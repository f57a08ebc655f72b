//! Inference-only execution: tape-free f32 ops and the int8 path's fast
//! transcendentals.
//!
//! Training runs every forward through [`crate::tape::Tape`], which
//! allocates a node per op and clones intermediate values so the
//! backward sweep can read them. Serving needs none of that: the op
//! helpers here replicate the tape's forward arithmetic *exactly*
//! (same accumulation order, same [`crate::mathf`] transcendentals) on
//! weights read straight from a trained [`crate::ParamStore`], so a
//! no-tape forward is bit-identical to `Tape::inference` on the same
//! weights. The PLM
//! inference engine in `rsd-models` runs on them, and its parity tests
//! pin that equivalence.
//!
//! The `fast_*` functions are *approximate* transcendentals for the
//! int8 path only: polynomial `exp`/`tanh` with relative error around
//! `1e-6` — far below the int8 quantization noise the quality gate
//! budgets for — implemented in plain deterministic f32 arithmetic so
//! results stay identical across hosts and thread counts. The f32
//! reference path never uses them.

use crate::matrix::Matrix;

// ---- f32 forward ops -------------------------------------------------------
//
// Each op computes through the formula its `Tape` op uses (shared in
// `crate::tape`), so inference and training agree bitwise.

use crate::tape::{add_row_in_place, gelu_with_tanh};
pub use crate::tape::{layer_norm_rows, mean_rows_into};

/// `x @ w + b` with `b` broadcast over rows (tape `matmul` + `add_row`).
pub fn linear(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
    let mut out = x.matmul(w);
    add_row_in_place(&mut out, b);
    out
}

/// Row-wise layer norm with learned `1×c` gain/bias (tape `layer_norm`).
pub fn layer_norm(x: &Matrix, gain: &Matrix, bias: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows, x.cols);
    layer_norm_rows(&x.data, x.cols, &gain.data, &bias.data, &mut out.data, None);
    out
}

/// Elementwise GELU over a matrix (tape `gelu`).
pub fn gelu(x: &Matrix) -> Matrix {
    gelu_with_tanh(x).0
}

/// Mean over rows → `1×c` (tape `mean_rows`).
pub fn mean_rows(x: &Matrix) -> Matrix {
    let mut value = Matrix::zeros(1, x.cols);
    mean_rows_into(&x.data, x.rows, &mut value.data);
    value
}

// ---- fast approximate transcendentals (int8 path only) --------------------

/// Fast `exp` approximation: range-reduce to `2^n · e^g` with
/// `|g| ≤ ln(2)/2`, evaluate a degree-5 Taylor polynomial (relative
/// error ≲ 3e-6), and scale by the bit-cast power of two. Plain f32
/// arithmetic — no tables, no branches beyond the clamp — so it is
/// deterministic everywhere.
#[inline]
pub(crate) fn fast_exp(x: f32) -> f32 {
    let y = (x * std::f32::consts::LOG2_E).clamp(-125.0, 125.0);
    let n = (y + 0.5).floor();
    let g = (y - n) * std::f32::consts::LN_2;
    // e^g via Horner: 1 + g(1 + g/2(1 + g/3(1 + g/4(1 + g/5))))
    let p =
        1.0 + g * (1.0 + g * 0.5 * (1.0 + g * (1.0 / 3.0) * (1.0 + g * 0.25 * (1.0 + g * 0.2))));
    let scale = f32::from_bits((((n as i32) + 127) as u32) << 23);
    scale * p
}

/// Eight-lane [`fast_exp`]: the same range reduction and Horner
/// polynomial with the exact scalar operation order, so every lane is
/// IEEE-identical to the scalar function.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn fast_exp_lanes(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let half = _mm256_set1_ps(0.5);
    let y = _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E));
    let y = _mm256_max_ps(
        _mm256_min_ps(y, _mm256_set1_ps(125.0)),
        _mm256_set1_ps(-125.0),
    );
    let n = _mm256_floor_ps(_mm256_add_ps(y, half));
    let g = _mm256_mul_ps(_mm256_sub_ps(y, n), _mm256_set1_ps(std::f32::consts::LN_2));
    let t5 = _mm256_add_ps(one, _mm256_mul_ps(g, _mm256_set1_ps(0.2)));
    let t4 = _mm256_add_ps(
        one,
        _mm256_mul_ps(_mm256_mul_ps(g, _mm256_set1_ps(0.25)), t5),
    );
    let t3 = _mm256_add_ps(
        one,
        _mm256_mul_ps(_mm256_mul_ps(g, _mm256_set1_ps(1.0 / 3.0)), t4),
    );
    let t2 = _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(g, half), t3));
    let p = _mm256_add_ps(one, _mm256_mul_ps(g, t2));
    let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(n),
        _mm256_set1_epi32(127),
    )));
    _mm256_mul_ps(scale, p)
}

/// Fast `tanh` via `1 - 2/(e^{2x}+1)` on [`fast_exp`].
#[inline]
pub(crate) fn fast_tanh(x: f32) -> f32 {
    if x >= 9.0 {
        return 1.0;
    }
    if x <= -9.0 {
        return -1.0;
    }
    1.0 - 2.0 / (fast_exp(2.0 * x) + 1.0)
}

/// GELU on [`fast_tanh`] — the int8 path's activation.
#[inline]
pub(crate) fn gelu_fast(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    0.5 * x * (1.0 + fast_tanh(C * (x + 0.044715 * x * x * x)))
}

/// Apply `gelu_fast` across a slice, vectorized when the host has
/// AVX2. Division and every polynomial step are per-element IEEE ops in
/// the scalar order, so SIMD and portable agree bitwise.
pub fn gelu_fast_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::matrix::fma_available() {
        // SAFETY: guarded by the runtime AVX2 check.
        unsafe { gelu_fast_slice_avx2(xs) };
        return;
    }
    for v in xs.iter_mut() {
        *v = gelu_fast(*v);
    }
}

/// AVX2 [`gelu_fast_slice`]: the tanh saturation branches become
/// blends; everything else mirrors the scalar expression op for op.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_fast_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let one = _mm256_set1_ps(1.0);
    let half = _mm256_set1_ps(0.5);
    let two = _mm256_set1_ps(2.0);
    let c = _mm256_set1_ps(0.797_884_6);
    let c3 = _mm256_set1_ps(0.044715);
    let nine = _mm256_set1_ps(9.0);
    let neg_nine = _mm256_set1_ps(-9.0);
    let len = xs.len();
    let ptr = xs.as_mut_ptr();
    let mut k = 0;
    while k + 8 <= len {
        let x = _mm256_loadu_ps(ptr.add(k));
        let x3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(c3, x), x), x);
        let a = _mm256_mul_ps(c, _mm256_add_ps(x, x3));
        let e = fast_exp_lanes(_mm256_mul_ps(two, a));
        let t = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
        let t = _mm256_blendv_ps(t, one, _mm256_cmp_ps::<_CMP_GE_OQ>(a, nine));
        let t = _mm256_blendv_ps(
            t,
            _mm256_set1_ps(-1.0),
            _mm256_cmp_ps::<_CMP_LE_OQ>(a, neg_nine),
        );
        let out = _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t));
        _mm256_storeu_ps(ptr.add(k), out);
        k += 8;
    }
    while k < len {
        *ptr.add(k) = gelu_fast(*ptr.add(k));
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fast_exp_close_to_libm_over_softmax_range() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            let x: f32 = rng.gen_range(-30.0f32..5.0);
            let (fast, exact) = (fast_exp(x), x.exp());
            let rel = (fast - exact).abs() / exact.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-5, "x={x}: fast {fast} vs {exact} (rel {rel})");
        }
        assert_eq!(fast_exp(-200.0), fast_exp(-180.0).min(fast_exp(-200.0)));
    }

    #[test]
    fn gelu_slice_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0usize, 1, 7, 8, 9, 17, 96, 97] {
            let src: Vec<f32> = (0..len).map(|_| rng.gen_range(-14.0f32..14.0)).collect();
            let mut vec_out = src.clone();
            gelu_fast_slice(&mut vec_out);
            for (j, (&x, &got)) in src.iter().zip(&vec_out).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    gelu_fast(x).to_bits(),
                    "len {len} j {j}: x={x}"
                );
            }
        }
    }

    #[test]
    fn fast_tanh_close_to_libm() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let x: f32 = rng.gen_range(-12.0f32..12.0);
            assert!(
                (fast_tanh(x) - x.tanh()).abs() < 2e-6,
                "x={x}: {} vs {}",
                fast_tanh(x),
                x.tanh()
            );
        }
    }
}
