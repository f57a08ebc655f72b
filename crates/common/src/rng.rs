//! Deterministic randomness utilities.
//!
//! Every stochastic component in the workspace takes an explicit `u64` seed;
//! this module provides the glue: stable seed derivation for independent
//! substreams (so adding a consumer never perturbs another's stream), plus
//! the samplers the corpus generator needs — truncated log-normal for the
//! heavy-tailed posts-per-user distribution visible in the paper's Fig. 1,
//! exponential for inter-post gaps, and categorical/weighted choice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step — used to derive statistically independent sub-seeds from
/// a master seed and a stream label.
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Create a [`StdRng`] for a named substream of `master`.
///
/// The label is hashed with FNV-1a so call sites can use readable names
/// ("corpus.users", "annotator.0") without coordinating integer ids.
pub fn stream_rng(master: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(split_seed(master, fnv1a(label.as_bytes())))
}

/// FNV-1a 64-bit hash (stable across platforms and Rust versions, unlike
/// `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// Sample from a standard normal via Box–Muller.
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Sample `exp(mu + sigma * N(0,1))`, clamped to `[lo, hi]`.
///
/// Used for posts-per-user: a log-normal body with a hard floor of 1 post
/// and a ceiling so a single synthetic user cannot dominate the corpus,
/// matching the paper's Fig. 1 (most users < 20 posts, a thin active tail).
pub fn truncated_log_normal(rng: &mut impl Rng, mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    let x = (mu + sigma * standard_normal(rng)).exp();
    x.clamp(lo, hi)
}

/// Sample an exponential with the given mean (in the same unit the caller
/// interprets, e.g. seconds between posts).
pub fn exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>();
    // Guard against ln(0).
    -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
}

/// Draw an index from unnormalized non-negative weights.
///
/// Panics if `weights` is empty or sums to a non-finite / non-positive value.
pub fn weighted_index(rng: &mut impl Rng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weighted_index: empty weights");
    let total: f64 = weights.iter().sum();
    assert!(
        total.is_finite() && total > 0.0,
        "weighted_index: weights must sum to a positive finite value, got {total}"
    );
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "weighted_index: negative weight {w}");
        target -= w;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Fisher–Yates shuffle (deterministic given the RNG state).
pub fn shuffle<T>(rng: &mut impl Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Sample `k` distinct indices from `0..n` (partial Fisher–Yates).
/// Panics if `k > n`.
pub fn sample_indices(rng: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "sample_indices: k ({k}) > n ({n})");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn split_seed_is_deterministic_and_distinct() {
        assert_eq!(split_seed(42, 0), split_seed(42, 0));
        assert_ne!(split_seed(42, 0), split_seed(42, 1));
        assert_ne!(split_seed(42, 0), split_seed(43, 0));
    }

    #[test]
    fn stream_rng_reproducible() {
        let a: Vec<u32> = {
            let mut r = stream_rng(7, "corpus.users");
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u32> = {
            let mut r = stream_rng(7, "corpus.users");
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u32> = {
            let mut r = stream_rng(7, "corpus.posts");
            (0..8).map(|_| r.gen()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn fnv1a_known_vectors() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn truncated_log_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = truncated_log_normal(&mut rng, 1.5, 1.0, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.25, "mean {mean}");
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        let p: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((p[0] - 0.1).abs() < 0.02);
        assert!((p[1] - 0.3).abs() < 0.02);
        assert!((p[2] - 0.6).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "empty weights")]
    fn weighted_index_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(0);
        weighted_index(&mut rng, &[]);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let picked = sample_indices(&mut rng, 50, 20);
        assert_eq!(picked.len(), 20);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(picked.iter().all(|&i| i < 50));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }
}
