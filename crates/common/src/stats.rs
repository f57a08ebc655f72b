//! Descriptive statistics and small numeric kernels.
//!
//! Shared by the feature extractors (`rsd-features`), the evaluation crate
//! and the corpus generator. Everything operates on `f64` slices and is
//! written to behave sensibly on empty input (returning 0.0 rather than NaN)
//! because feature extraction routinely sees users with a single post.

use serde::{Deserialize, Serialize};

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0.0 for fewer than two elements.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum; 0.0 for empty input.
pub fn min(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Maximum; 0.0 for empty input.
pub fn max(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on a sorted copy.
/// 0.0 for empty input.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (0.5-quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Least-squares slope of `ys` against `0..n` — the "trend" feature the
/// paper's sequence dimension uses for history windows. 0.0 if undefined.
pub fn linear_trend(ys: &[f64]) -> f64 {
    let n = ys.len();
    if n < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mx = mean(&xs);
    let my = mean(ys);
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        den += (x - mx).powi(2);
    }
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Numerically-stable log-sum-exp.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Numerically-stable softmax. Returns an empty vec for empty input.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let lse = log_sum_exp(xs);
    xs.iter().map(|x| (x - lse).exp()).collect()
}

/// A fixed-width histogram over `[lo, hi)` with overflow captured in the
/// last bucket. Used for Fig. 1 (posts-per-user distribution).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive lower bound of the first bucket.
    pub lo: f64,
    /// Exclusive upper bound of the last regular bucket.
    pub hi: f64,
    /// Per-bucket counts; the final entry also absorbs values ≥ `hi`.
    pub counts: Vec<u64>,
    /// Values below `lo` (tracked separately; not expected in practice).
    pub underflow: u64,
    /// Total number of observations recorded.
    pub total: u64,
}

impl Histogram {
    /// Create a histogram with `buckets` equal-width buckets on `[lo, hi)`.
    ///
    /// Panics if `buckets == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets > 0, "Histogram: need at least one bucket");
        assert!(hi > lo, "Histogram: hi must exceed lo");
        Histogram {
            lo,
            hi,
            counts: vec![0; buckets],
            underflow: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((x - self.lo) / width) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Bucket boundaries as `(inclusive_lo, exclusive_hi)` pairs; the final
    /// bucket is reported as extending to infinity since it absorbs overflow.
    pub fn bucket_ranges(&self) -> Vec<(f64, f64)> {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len())
            .map(|i| {
                let lo = self.lo + width * i as f64;
                let hi = if i + 1 == self.counts.len() {
                    f64::INFINITY
                } else {
                    lo + width
                };
                (lo, hi)
            })
            .collect()
    }

    /// Fraction of recorded observations falling strictly below `x`
    /// (bucket-resolution approximation).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut below = self.underflow;
        for (i, &c) in self.counts.iter().enumerate() {
            let bucket_hi = self.lo + width * (i + 1) as f64;
            if bucket_hi <= x {
                below += c;
            } else {
                break;
            }
        }
        below as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert_eq!(linear_trend(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn trend_matches_slope() {
        let ys = [0.0, 2.0, 4.0, 6.0];
        assert!((linear_trend(&ys) - 2.0).abs() < 1e-12);
        let ys = [3.0, 3.0, 3.0];
        assert_eq!(linear_trend(&ys), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1001.0, 1002.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(p.iter().all(|&x| x.is_finite()));
    }

    #[test]
    fn log_sum_exp_stable() {
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        let big = log_sum_exp(&[1e6, 1e6]);
        assert!((big - (1e6 + std::f64::consts::LN_2)).abs() < 1e-6);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.0, 9.9, 10.0, 50.0, -1.0] {
            h.record(x);
        }
        assert_eq!(h.total, 8);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.counts, vec![2, 1, 1, 0, 3]); // overflow lands in last bucket
        let ranges = h.bucket_ranges();
        assert_eq!(ranges[0], (0.0, 2.0));
        assert_eq!(ranges[4].1, f64::INFINITY);
    }

    #[test]
    fn histogram_fraction_below() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!((h.fraction_below(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(h.fraction_below(0.0), 0.0);
    }
}
