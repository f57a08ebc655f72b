//! `tanh` and `exp` for the f32 path: ports of glibc 2.36's `tanhf` and
//! `expf`, one element at a time or eight lanes at a time.
//!
//! Training, the f32 inference engine and every op built on softmax,
//! GELU, sigmoid or tanh compute through these functions, so their bits
//! are fixed by this file and not by the host's libm or the variant of it
//! that the dynamic loader picks.
//!
//! * [`tanh`] is glibc's fdlibm-derived `tanhf`: `expm1f(±2|x|)`, then
//!   `1 − 2/(t + 2)` or `−t/(t + 2)`. Every step is a separately rounded
//!   f32 operation, as in glibc's baseline x86-64 build.
//! * [`exp`] is glibc's `expf` as its FMA variant computes it (the one an
//!   AVX2 + FMA host loads): `x·N/ln2 = k + r` in f64 with `N = 32`,
//!   `2^(k/N)` from a 32-entry table, a degree-3 polynomial in `r`, all
//!   with fused multiply-adds where that build fuses them. On hosts
//!   without FMA, [`f64::mul_add`] is a libm `fma` call: the same bits,
//!   slower.
//!
//! The slice forms ([`tanh_slice`], [`exp_slice`]) run an AVX2 body on
//! [`F32Tier::Avx2`] hosts. Each lane computes the scalar port's
//! operations in the scalar order, with every branch taken by a blend,
//! so both tiers give the same bits. An eight-lane chunk holding any
//! input outside the ordinary range (`|x| < 2⁻⁵⁵` or `|x| ≥ 22`, NaN
//! included, for tanh; `|x| ≥ 88` or non-finite for exp) runs the scalar
//! port instead, and a short tail runs as one chunk padded with `1.0`.
//!
//! Both ports equal glibc 2.36's `tanhf`/`expf` on every f32 input (the
//! ignored test `every_f32_input_matches_libm`, run by `scripts/ci.sh`).

use crate::matrix::F32Tier;

// ---- tanhf (s_tanhf.c) and the expm1f it calls (s_expm1f.c) ----

/// `ln 2` split so that `k·LN2_HI` is exact for the `k` expm1 uses.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// expm1's rational-approximation coefficients, fdlibm's five.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `|x|` bit patterns bounding tanh's ordinary range: `2⁻⁵⁵` and `22`.
const TANH_TINY: u32 = 0x2400_0000;
const TANH_HUGE: u32 = 0x41b0_0000;

/// glibc 2.36's `tanhf`.
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let positive = x.is_sign_positive();
    if ix >= 0x7f80_0000 {
        // ±1 for ±inf, NaN for NaN.
        return if positive {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    if ix == 0 {
        return x;
    }
    if ix < TANH_TINY {
        return x * (1.0 + x);
    }
    let z = if ix >= TANH_HUGE {
        // glibc's `one - tiny`, which rounds to 1.
        1.0
    } else if ix >= 0x3f80_0000 {
        let t = expm1_for_tanh(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1_for_tanh(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if positive {
        z
    } else {
        -z
    }
}

/// glibc 2.36's `expm1f` on the arguments [`tanh`] passes it: `u = 2|x|`
/// for `1 ≤ |x| < 22` and `u = −2|x|` for `2⁻⁵⁵ ≤ |x| < 1`. So `u` is
/// finite, `−2 < u < 44` and `u ∉ (0, 2)`, which leaves out the
/// function's overflow, saturation and `k = 1` branches.
fn expm1_for_tanh(u: f32) -> f32 {
    let hx = u.to_bits() & 0x7fff_ffff;
    if hx < 0x3300_0000 {
        // |u| < 2⁻²⁵.
        return u;
    }
    // Argument reduction: u = k·ln2 + x + c.
    let k: i32 = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        if u > 0.0 {
            1
        } else {
            -1
        }
    } else {
        (INV_LN2 * u + 0.5f32.copysign(u)) as i32
    };
    let (x, c) = if k == 0 {
        (u, 0.0)
    } else {
        let t = k as f32;
        let hi = u - t * LN2_HI;
        let lo = t * LN2_LO;
        let x = hi - lo;
        (x, (hi - x) - lo)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    debug_assert!(k != 1, "expm1_for_tanh: u in (0, 2)");
    match k {
        -1 => 0.5 * (x - e) - 0.5,
        2..=22 => {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
            add_exponent(t - (e - x), k)
        }
        23..=56 => {
            let t = f32::from_bits(((0x7f - k) as u32) << 23);
            add_exponent((x - (e + t)) + 1.0, k)
        }
        _ => add_exponent(1.0 - (e - x), k) - 1.0,
    }
}

/// `y·2^k` by an integer add to `y`'s exponent field, as glibc does it.
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

// ---- expf (e_expf.c, FMA build) ----

/// `N/ln 2` with `N = 32`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5·2⁵²`: adding it rounds `x·N/ln2` to an integer in the low bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/N) ≈ C0·r³ + C1·r² + C2·r + 1`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `T[i] = bits(2^(i/N)) − (i << 47)`: adding `k << 47` to entry
/// `k mod N` gives the bits of `2^(k/N)`.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `|x|` bit pattern of 88, where exp's ordinary range ends.
const EXP_BIG: u32 = 0x42b0_0000;

/// glibc 2.36's `expf`, FMA build.
pub fn exp(x: f32) -> f32 {
    exp_body(x)
}

/// [`exp`]'s body, inlined so that a caller compiled for FMA turns each
/// `mul_add` into one instruction instead of a libm call.
#[inline(always)]
fn exp_body(x: f32) -> f32 {
    if x.to_bits() & 0x7fff_ffff >= EXP_BIG {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if !x.is_finite() {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            // > ln(2¹²⁸): overflow.
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            // < ln(2⁻¹⁵⁰): underflow to zero.
            return 0.0;
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            // < ln(2⁻¹⁴⁹): glibc's may-underflow result, the least subnormal.
            return f32::from_bits(1);
        }
    }
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

// ---- slices ----

/// [`tanh`] of every element, in place, on this CPU's widest tier.
pub fn tanh_slice(xs: &mut [f32]) {
    tanh_slice_on(F32Tier::detect(), xs);
}

/// [`tanh_slice`] on a given tier; every tier gives the same bits.
/// Panics if this CPU cannot run `tier`.
pub fn tanh_slice_on(tier: F32Tier, xs: &mut [f32]) {
    assert!(
        tier.runs_here(),
        "the {} tier does not run on this CPU",
        tier.name()
    );
    match tier {
        // SAFETY: the tier runs on this CPU (checked above).
        #[cfg(target_arch = "x86_64")]
        F32Tier::Avx2 => unsafe { wide::tanh_slice(xs) },
        _ => xs.iter_mut().for_each(|v| *v = tanh(*v)),
    }
}

/// [`exp`] of every element, in place, on this CPU's widest tier.
pub fn exp_slice(xs: &mut [f32]) {
    exp_slice_on(F32Tier::detect(), xs);
}

/// [`exp_slice`] on a given tier; every tier gives the same bits.
/// Panics if this CPU cannot run `tier`.
pub fn exp_slice_on(tier: F32Tier, xs: &mut [f32]) {
    assert!(
        tier.runs_here(),
        "the {} tier does not run on this CPU",
        tier.name()
    );
    match tier {
        // SAFETY: the tier runs on this CPU (checked above).
        #[cfg(target_arch = "x86_64")]
        F32Tier::Avx2 => unsafe { wide::exp_slice(xs) },
        _ => xs.iter_mut().for_each(|v| *v = exp(*v)),
    }
}

/// The AVX2 bodies: the scalar ports eight lanes at a time.
#[cfg(target_arch = "x86_64")]
mod wide {
    use std::arch::x86_64::*;

    /// Runs `body` over whole eight-lane chunks, then over the tail
    /// padded with `1.0` (inside both ordinary ranges).
    #[inline(always)]
    unsafe fn chunked(xs: &mut [f32], body: unsafe fn(&mut [f32; 8])) {
        let (chunks, tail) = xs.as_chunks_mut::<8>();
        for c in chunks {
            body(c);
        }
        if !tail.is_empty() {
            let mut pad = [1.0f32; 8];
            pad[..tail.len()].copy_from_slice(tail);
            body(&mut pad);
            tail.copy_from_slice(&pad[..tail.len()]);
        }
    }

    /// Lanes whose `|x|` bits fall outside `[lo, hi)`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn outside(x: __m256, lo: u32, hi: u32) -> bool {
        let ab = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
        let out = _mm256_or_si256(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(lo as i32), ab),
            _mm256_cmpgt_epi32(ab, _mm256_set1_epi32(hi as i32 - 1)),
        );
        _mm256_testz_si256(out, out) == 0
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn tanh_slice(xs: &mut [f32]) {
        chunked(xs, tanh_chunk);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_slice(xs: &mut [f32]) {
        chunked(xs, exp_chunk);
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn tanh_chunk(c: &mut [f32; 8]) {
        let x = _mm256_loadu_ps(c.as_ptr());
        if outside(x, super::TANH_TINY, super::TANH_HUGE) {
            c.iter_mut().for_each(|v| *v = super::tanh(*v));
        } else {
            _mm256_storeu_ps(c.as_mut_ptr(), tanh8(x));
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_chunk(c: &mut [f32; 8]) {
        let x = _mm256_loadu_ps(c.as_ptr());
        if outside(x, 0, super::EXP_BIG) {
            c.iter_mut().for_each(|v| *v = super::exp_body(*v));
        } else {
            _mm256_storeu_ps(c.as_mut_ptr(), exp8(x));
        }
    }

    /// [`super::tanh`] of eight lanes in `2⁻⁵⁵ ≤ |x| < 22`. expm1's
    /// argument reduction is one formula for every `k`: with `k = 0` it
    /// leaves `x = u` and `c = 0` exactly, and with `k = ±1` it forms
    /// glibc's `u ∓ ln2_hi` and `±ln2_lo`. Its finishing branches are
    /// all computed and blended by `k`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tanh8(x: __m256) -> __m256 {
        let ps = _mm256_set1_ps;
        let sign = ps(-0.0);
        let (one, two) = (ps(1.0), ps(2.0));
        let a = _mm256_andnot_ps(sign, x);
        let big = _mm256_cmp_ps::<_CMP_GE_OQ>(a, one);
        // u = 2|x| where |x| ≥ 1, −2|x| below.
        let a2 = _mm256_mul_ps(two, a);
        let u = _mm256_or_ps(a2, _mm256_andnot_ps(big, sign));
        let hu = _mm256_castps_si256(a2);
        let u_sign = _mm256_and_ps(u, sign);
        let k_far = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_ps(
            _mm256_mul_ps(ps(super::INV_LN2), u),
            _mm256_or_ps(ps(0.5), u_sign),
        ));
        let near = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3f85_1592), hu);
        let kf = _mm256_blendv_ps(k_far, _mm256_or_ps(one, u_sign), _mm256_castsi256_ps(near));
        let small = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x3eb1_7219), hu);
        let kf = _mm256_andnot_ps(_mm256_castsi256_ps(small), kf);
        let hi = _mm256_sub_ps(u, _mm256_mul_ps(kf, ps(super::LN2_HI)));
        let lo = _mm256_mul_ps(kf, ps(super::LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);
        // The rational approximation.
        let hfx = _mm256_mul_ps(ps(0.5), xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let poly = |q: f32, acc: __m256| _mm256_add_ps(ps(q), _mm256_mul_ps(hxs, acc));
        let q = poly(super::Q4, ps(super::Q5));
        let q = poly(super::Q1, poly(super::Q2, poly(super::Q3, q)));
        let r1 = poly(1.0, q);
        let t = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(ps(6.0), _mm256_mul_ps(xr, t)),
            ),
        );
        // k = 0.
        let r_zero = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
            hxs,
        );
        let e_x = _mm256_sub_ps(e, xr);
        // k = −1.
        let r_minus = _mm256_sub_ps(_mm256_mul_ps(ps(0.5), _mm256_sub_ps(xr, e)), ps(0.5));
        let k = _mm256_cvttps_epi32(kf);
        let scale = |y: __m256| {
            _mm256_castsi256_ps(_mm256_add_epi32(
                _mm256_castps_si256(y),
                _mm256_slli_epi32::<23>(k),
            ))
        };
        // k ≤ −2 or k > 56.
        let r_far = _mm256_sub_ps(scale(_mm256_sub_ps(one, e_x)), one);
        // 2 ≤ k ≤ 22: t = 1 − 2⁻ᵏ.
        let t_mid = _mm256_sub_epi32(
            _mm256_set1_epi32(0x3f80_0000),
            _mm256_srlv_epi32(_mm256_set1_epi32(0x0100_0000), k),
        );
        let r_mid = scale(_mm256_sub_ps(_mm256_castsi256_ps(t_mid), e_x));
        // 23 ≤ k ≤ 56: t = 2⁻ᵏ.
        let t_high = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(
            _mm256_set1_epi32(0x7f),
            k,
        )));
        let r_high = scale(_mm256_add_ps(
            _mm256_sub_ps(xr, _mm256_add_ps(e, t_high)),
            one,
        ));
        let pick = |acc: __m256, r: __m256, lanes: __m256i| {
            _mm256_blendv_ps(acc, r, _mm256_castsi256_ps(lanes))
        };
        let kk = _mm256_set1_epi32;
        let tm = pick(r_mid, r_high, _mm256_cmpgt_epi32(k, kk(22)));
        let tm = pick(
            tm,
            r_far,
            _mm256_or_si256(_mm256_cmpgt_epi32(k, kk(56)), _mm256_cmpgt_epi32(kk(-1), k)),
        );
        let tm = pick(tm, r_minus, _mm256_cmpeq_epi32(k, kk(-1)));
        let tm = pick(tm, r_zero, _mm256_cmpeq_epi32(k, kk(0)));
        // |u| < 2⁻²⁵: expm1(u) = u.
        let tm = pick(tm, u, _mm256_cmpgt_epi32(kk(0x3300_0000), hu));
        // tanh: 1 − 2/(t + 2) where |x| ≥ 1, −t/(t + 2) below, signed as x.
        let num = _mm256_blendv_ps(_mm256_xor_ps(tm, sign), two, big);
        let quot = _mm256_div_ps(num, _mm256_add_ps(tm, two));
        let z = _mm256_blendv_ps(quot, _mm256_sub_ps(one, quot), big);
        _mm256_or_ps(z, _mm256_and_ps(x, sign))
    }

    /// [`super::exp`] of eight lanes with `|x| < 88`, four f64 lanes at a
    /// time.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp4(xd: __m256d) -> __m256d {
        let pd = _mm256_set1_pd;
        let (inv, shift) = (pd(super::INV_LN2_N), pd(super::SHIFT));
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is below 32, the table's length.
        let t = unsafe { _mm256_i64gather_epi64::<8>(super::T.as_ptr().cast(), idx) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(pd(super::C0), r, pd(super::C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(pd(super::C2), r, pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_mul_pd(y, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Scalar = fn(f32) -> f32;
    type Slice = fn(F32Tier, &mut [f32]);

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn tiers_here() -> Vec<F32Tier> {
        F32Tier::ALL.into_iter().filter(|t| t.runs_here()).collect()
    }

    /// The first positive `x` whose expm1 reduction `k` for `u = ±2x`
    /// reaches `k` (`k` rises with `x` for `u > 0` and falls for `u < 0`).
    fn first_with_k(k: i32, negative: bool) -> u32 {
        let k_at = |bits: u32| {
            let u = 2.0 * f32::from_bits(bits);
            let u = if negative { -u } else { u };
            (INV_LN2 * u + 0.5f32.copysign(u)) as i32
        };
        let reached = |bits: u32| {
            if negative {
                k_at(bits) <= k
            } else {
                k_at(bits) >= k
            }
        };
        let (mut lo, mut hi) = (0x3f00_0000u32, TANH_HUGE);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if reached(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// `|x|` bit patterns where a branch of [`tanh`] or [`exp`] changes.
    fn boundaries() -> Vec<u32> {
        let mut b = vec![
            0,
            1,
            0x0080_0000,
            TANH_TINY,
            0x3280_0000, // 2|x| = 2⁻²⁵
            0x3e31_7218, // 2|x| = ln2/2
            0x3f05_1592, // 2|x| = 1.5·ln2
            0x3f80_0000,
            TANH_HUGE,
            EXP_BIG,
            0x42b1_7217,
            0x42ce_8ecf,
            0x42cf_f1b4,
            0x7f80_0000,
            0x7fc0_0000,
        ];
        b.extend([(23, false), (57, false), (-3, true)].map(|(k, neg)| first_with_k(k, neg)));
        b
    }

    /// A strided sweep of all 2³² bit patterns, then every boundary ±2
    /// ulp with either sign.
    fn sweep() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(4093).collect();
        for b in boundaries() {
            for d in 0..5 {
                bits.extend([0, 0x8000_0000].map(|s| (b + d).wrapping_sub(2) | s));
            }
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// FNV-1a over the output bits, every NaN hashed as the default NaN.
    fn digest(ys: &[f32]) -> u64 {
        ys.iter().fold(0xcbf2_9ce4_8422_2325, |h, &y| {
            let bits = if y.is_nan() { 0x7fc0_0000 } else { y.to_bits() };
            (h ^ u64::from(bits)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Both tiers of each slice function equal its scalar port over the
    /// sweep, and the ports' outputs hash to committed digests, so the
    /// bits hold on any host.
    #[test]
    fn slices_equal_ports_and_ports_are_pinned() {
        let xs = sweep();
        let cases: [(Scalar, Slice, u64); 2] = [
            (tanh, tanh_slice_on, 0x298c_05fe_e19a_d54d),
            (exp, exp_slice_on, 0xc51a_6d38_6779_7ac0),
        ];
        for (port, slice_on, want) in cases {
            let ys: Vec<f32> = xs.iter().map(|&x| port(x)).collect();
            for tier in tiers_here() {
                // An odd start shifts every chunk boundary and the tail.
                for start in [0, 3] {
                    let mut got = xs[start..].to_vec();
                    slice_on(tier, &mut got);
                    for ((&x, &y), &g) in xs[start..].iter().zip(&ys[start..]).zip(&got) {
                        assert!(same(g, y), "{} x={x:e}: {g:e} vs port {y:e}", tier.name());
                    }
                }
            }
            assert_eq!(digest(&ys), want, "port digest moved");
        }
    }

    /// Every f32 input, NaN compared as NaN: each port against this
    /// host's `f32::tanh`/`f32::exp`, and each tier's slice function
    /// against its port. The reference is glibc 2.36 on x86-64 with AVX2
    /// and FMA (where `expf` resolves to its FMA variant); there every
    /// count below was 0. Another libm may round differently, and then
    /// the first two counts measure it, not the ports.
    #[test]
    #[ignore = "2³² inputs per function; scripts/ci.sh runs it in release"]
    fn every_f32_input_matches_libm() {
        const BLOCK: usize = 1 << 16;
        type Tally = [(u64, Option<u32>); 4];
        let tiers = tiers_here();
        let tally = rsd_par::parallel_reduce(
            1 << 16,
            1,
            |blocks| {
                let mut t: Tally = [(0, None); 4];
                let mut note = |slot: usize, ok: bool, bits: u32| {
                    if !ok {
                        t[slot].0 += 1;
                        t[slot].1.get_or_insert(bits);
                    }
                };
                for block in blocks {
                    let xs: Vec<f32> = (0..BLOCK)
                        .map(|i| f32::from_bits((block * BLOCK + i) as u32))
                        .collect();
                    let cases: [(Scalar, Scalar, Slice); 2] = [
                        (tanh, f32::tanh, tanh_slice_on),
                        (exp, f32::exp, exp_slice_on),
                    ];
                    for (c, (port, libm, slice_on)) in cases.into_iter().enumerate() {
                        let ys: Vec<f32> = xs.iter().map(|&x| port(x)).collect();
                        for (&x, &y) in xs.iter().zip(&ys) {
                            note(2 * c, same(y, libm(x)), x.to_bits());
                        }
                        for &tier in &tiers {
                            let mut got = xs.clone();
                            slice_on(tier, &mut got);
                            for ((&x, &y), &g) in xs.iter().zip(&ys).zip(&got) {
                                note(2 * c + 1, same(g, y), x.to_bits());
                            }
                        }
                    }
                }
                t
            },
            |a, b| std::array::from_fn(|i| (a[i].0 + b[i].0, a[i].1.or(b[i].1))),
        )
        .unwrap();
        let names = [
            "tanh vs libm",
            "tanh slices vs port",
            "exp vs libm",
            "exp slices vs port",
        ];
        let report: Vec<String> = names
            .iter()
            .zip(tally)
            .map(|(name, (count, first))| match first {
                Some(bits) => format!("{name}: {count} mismatches, first at bits {bits:#010x}"),
                None => format!("{name}: 0 mismatches"),
            })
            .collect();
        eprintln!("{}", report.join("\n"));
        assert!(tally.iter().all(|&(count, _)| count == 0), "{report:?}");
    }
}
