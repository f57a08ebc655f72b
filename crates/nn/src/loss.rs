//! Prediction and class-balancing helpers around the tape's fused
//! cross-entropy.

use crate::matrix::Matrix;

/// Index of the largest logit; the last one wins a tie. The trainer and
/// both PLM inference engines predict through it, so they break ties the
/// same way.
pub fn argmax(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN logits"))
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

/// [`argmax`] of each row (predicted class per row).
pub fn argmax_rows(logits: &Matrix) -> Vec<usize> {
    (0..logits.rows).map(|r| argmax(logits.row(r))).collect()
}

/// Class weights inversely proportional to class frequency (balanced
/// sampling support for the Table IV "full optimization" configuration).
pub fn inverse_frequency_weights(labels: &[usize], n_classes: usize) -> Vec<f64> {
    let mut counts = vec![0usize; n_classes];
    for &l in labels {
        counts[l] += 1;
    }
    let total = labels.len().max(1) as f64;
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0.0
            } else {
                total / (n_classes as f64 * c as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
        assert_eq!(argmax(&[0.5, 0.2, 0.5]), 2, "last maximal element wins");
    }

    #[test]
    fn inverse_weights_balance() {
        let labels = vec![0, 0, 0, 1];
        let w = inverse_frequency_weights(&labels, 2);
        assert!(w[1] > w[0]);
        assert!((w[0] - 4.0 / 6.0).abs() < 1e-12);
        assert!((w[1] - 2.0).abs() < 1e-12);
        let w = inverse_frequency_weights(&[0], 2);
        assert_eq!(w[1], 0.0, "absent class gets zero weight");
    }
}
