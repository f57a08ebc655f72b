//! Property tests for the int8 quantization contract: the symmetric
//! per-row round-trip error bound (`|x − q·scale| ≤ scale/2`), and
//! exact bitwise agreement between the dispatched kernels (AVX-512
//! VNNI or AVX2 on hosts that have them) and the portable references
//! for arbitrary shapes — including the masked sub-lane tails.

use proptest::collection;
use proptest::prelude::*;
use rsd_nn::quant::{
    gemv2_i8_pairs, gemv_i8_pairs, gemv_i8_pairs_portable, pack_pair, pack_pairs, pack_panel,
    quantize_row_i8, quantize_row_i8_portable, softmax_q7, softmax_q7_portable,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn quantize_round_trip_within_half_scale(
        row in collection::vec(-16.0f32..16.0, 1..130),
    ) {
        let mut q = vec![0i8; row.len()];
        let scale = quantize_row_i8(&row, &mut q);
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        if max_abs == 0.0 {
            prop_assert_eq!(scale, 0.0);
            prop_assert!(q.iter().all(|&v| v == 0));
        } else {
            prop_assert!(
                (scale - max_abs / 127.0).abs() <= max_abs * f32::EPSILON,
                "scale {} vs max_abs/127 {}", scale, max_abs / 127.0
            );
            for (&x, &code) in row.iter().zip(&q) {
                let err = (x - code as f32 * scale).abs();
                prop_assert!(
                    err <= scale * 0.5 + scale * 1e-4,
                    "x {} code {} scale {}: err {}", x, code, scale, err
                );
            }
        }
    }

    fn quantize_simd_matches_portable(
        row in collection::vec(-8.0f32..8.0, 0..130),
    ) {
        let mut a = vec![0i8; row.len()];
        let mut b = vec![0i8; row.len()];
        let sa = quantize_row_i8(&row, &mut a);
        let sb = quantize_row_i8_portable(&row, &mut b);
        prop_assert_eq!(sa.to_bits(), sb.to_bits());
        prop_assert_eq!(a, b);
    }

    fn softmax_q7_simd_matches_portable_and_normalizes(
        row in collection::vec(-20.0f32..20.0, 1..130),
    ) {
        let mut a = vec![0i8; row.len()];
        let mut b = vec![0i8; row.len()];
        let sa = softmax_q7(&row, &mut a);
        let sb = softmax_q7_portable(&row, &mut b);
        prop_assert_eq!(sa.to_bits(), sb.to_bits());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(*a.iter().max().unwrap(), 127);
        let mass: f32 = a.iter().map(|&q| q as f32 * sa).sum();
        prop_assert!((mass - 1.0).abs() < 1e-5, "mass {}", mass);
    }

    fn pair_gemv_kernels_match_naive_dots(
        hd in 1usize..22,
        n in 1usize..40,
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic pseudo-codes so shrinking stays meaningful.
        let gen = |i: usize| {
            (((i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 255) as i32 - 127
        };
        let q: Vec<i8> = (0..hd).map(|i| gen(i) as i8).collect();
        let q2: Vec<i8> = (0..hd).map(|i| gen(i + 1000) as i8).collect();
        let k: Vec<Vec<i8>> = (0..n)
            .map(|j| (0..hd).map(|d| gen(2000 + j * hd + d) as i8).collect())
            .collect();
        let pairs = hd.div_ceil(2);
        let pack = |row: &[i8]| -> Vec<i32> {
            (0..pairs)
                .map(|p| pack_pair(row[2 * p], if 2 * p + 1 < hd { row[2 * p + 1] } else { 0 }))
                .collect()
        };
        let mut kt = vec![0i8; pairs * 2 * n];
        for p in 0..pairs {
            for (j, krow) in k.iter().enumerate() {
                kt[p * 2 * n + 2 * j] = krow[2 * p];
                kt[p * 2 * n + 2 * j + 1] =
                    if 2 * p + 1 < hd { krow[2 * p + 1] } else { 0 };
            }
        }
        let (qp, qp2) = (pack(&q), pack(&q2));
        // The shared packing helpers build the same words and panel.
        let mut helper_qp = vec![0i32; pairs];
        pack_pairs(&q, &mut helper_qp);
        prop_assert_eq!(&helper_qp, &qp);
        let flat: Vec<i8> = k.concat();
        let mut helper_kt = vec![0i8; pairs * 2 * n];
        pack_panel(&flat, hd, hd, n, &mut helper_kt);
        prop_assert_eq!(&helper_kt, &kt);
        let mut out = vec![0i32; n];
        gemv_i8_pairs(&qp, &kt, n, &mut out);
        let mut portable = vec![0i32; n];
        gemv_i8_pairs_portable(&qp, &kt, n, &mut portable);
        prop_assert_eq!(&out, &portable);
        for (j, krow) in k.iter().enumerate() {
            let naive: i32 = q.iter().zip(krow).map(|(&a, &b)| a as i32 * b as i32).sum();
            prop_assert_eq!(out[j], naive);
        }
        let mut two_a = vec![0i32; n];
        let mut two_b = vec![0i32; n];
        gemv2_i8_pairs(&qp, &qp2, &kt, n, &mut two_a, &mut two_b);
        prop_assert_eq!(&two_a, &out);
        let mut solo_b = vec![0i32; n];
        gemv_i8_pairs_portable(&qp2, &kt, n, &mut solo_b);
        prop_assert_eq!(&two_b, &solo_b);
    }
}
