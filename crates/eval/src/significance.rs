//! Paired significance testing for model comparisons.
//!
//! Adjacent rows of Table III differ by a few points on a 126-user test
//! set; McNemar's test on the paired correct/incorrect outcomes is the
//! standard way to ask whether such a gap is distinguishable from noise.
//! The exact binomial form is used (appropriate for small discordant
//! counts), so no χ² approximation error at benchmark scale.

use serde::{Deserialize, Serialize};

use rsd_common::{Result, RsdError};

/// Outcome of a McNemar comparison between two classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct McNemarOutcome {
    /// Instances model A got right and B got wrong.
    pub a_only: u64,
    /// Instances model B got right and A got wrong.
    pub b_only: u64,
    /// Two-sided exact p-value for "A and B have equal error rates".
    pub p_value: f64,
}

/// Exact (binomial) McNemar test from paired predictions.
pub fn mcnemar(truth: &[usize], pred_a: &[usize], pred_b: &[usize]) -> Result<McNemarOutcome> {
    if truth.len() != pred_a.len() || truth.len() != pred_b.len() {
        return Err(RsdError::data("mcnemar: length mismatch"));
    }
    if truth.is_empty() {
        return Err(RsdError::data("mcnemar: empty sample"));
    }
    let mut a_only = 0u64;
    let mut b_only = 0u64;
    for ((&t, &a), &b) in truth.iter().zip(pred_a).zip(pred_b) {
        match (a == t, b == t) {
            (true, false) => a_only += 1,
            (false, true) => b_only += 1,
            _ => {}
        }
    }
    let n = a_only + b_only;
    let p_value = if n == 0 {
        1.0
    } else {
        // Two-sided exact binomial: 2 · P(X ≤ min(a,b)) under p = ½.
        let k = a_only.min(b_only);
        (2.0 * binom_cdf(k, n, 0.5)).min(1.0)
    };
    Ok(McNemarOutcome {
        a_only,
        b_only,
        p_value,
    })
}

/// P(X ≤ k) for X ~ Binomial(n, p), computed in log space for stability.
fn binom_cdf(k: u64, n: u64, p: f64) -> f64 {
    let mut total = 0.0f64;
    for i in 0..=k {
        total += binom_pmf(i, n, p);
    }
    total.min(1.0)
}

fn binom_pmf(k: u64, n: u64, p: f64) -> f64 {
    // ln C(n, k) via lgamma-free accumulation (n is small in practice).
    let mut ln_c = 0.0f64;
    for i in 0..k {
        ln_c += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    (ln_c + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_models_are_not_significant() {
        let truth = vec![0, 1, 2, 3, 0, 1];
        let pred = vec![0, 1, 0, 3, 1, 1];
        let out = mcnemar(&truth, &pred, &pred).unwrap();
        assert_eq!(out.a_only, 0);
        assert_eq!(out.b_only, 0);
        assert_eq!(out.p_value, 1.0);
    }

    #[test]
    fn one_sided_dominance_is_significant() {
        // B correct everywhere; A wrong on 12 of them — all discordant
        // pairs favour B.
        let n = 40;
        let truth: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let pred_b = truth.clone();
        let pred_a: Vec<usize> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| if i < 12 { (t + 1) % 4 } else { t })
            .collect();
        let out = mcnemar(&truth, &pred_a, &pred_b).unwrap();
        assert_eq!(out.a_only, 0);
        assert_eq!(out.b_only, 12);
        assert!(out.p_value < 0.001, "p {}", out.p_value);
    }

    #[test]
    fn balanced_disagreement_is_not_significant() {
        let n = 40;
        let truth: Vec<usize> = (0..n).map(|i| i % 2).collect();
        // A wrong on first 5, B wrong on next 5: 5 vs 5 discordant.
        let pred_a: Vec<usize> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| if i < 5 { 1 - t } else { t })
            .collect();
        let pred_b: Vec<usize> = truth
            .iter()
            .enumerate()
            .map(|(i, &t)| if (5..10).contains(&i) { 1 - t } else { t })
            .collect();
        let out = mcnemar(&truth, &pred_a, &pred_b).unwrap();
        assert_eq!(out.a_only, 5);
        assert_eq!(out.b_only, 5);
        assert!(out.p_value > 0.5);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=20).map(|k| binom_pmf(k, 20, 0.5)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((binom_cdf(20, 20, 0.5) - 1.0).abs() < 1e-9);
        assert!((binom_cdf(10, 20, 0.5) - 0.588).abs() < 0.01);
    }

    #[test]
    fn validation() {
        assert!(mcnemar(&[0], &[0, 1], &[0]).is_err());
        assert!(mcnemar(&[], &[], &[]).is_err());
    }
}
