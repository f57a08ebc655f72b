//! n-class confusion matrices and derived classification metrics.

use serde::{Deserialize, Serialize};

use rsd_common::{Result, RsdError};

/// A square confusion matrix: `counts[true][pred]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    n_classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Empty matrix for `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        assert!(n_classes > 0, "ConfusionMatrix: need at least one class");
        ConfusionMatrix {
            n_classes,
            counts: vec![0; n_classes * n_classes],
        }
    }

    /// Build from parallel label slices.
    pub fn from_labels(n_classes: usize, truth: &[usize], pred: &[usize]) -> Result<Self> {
        if truth.len() != pred.len() {
            return Err(RsdError::data(format!(
                "label length mismatch: {} vs {}",
                truth.len(),
                pred.len()
            )));
        }
        let mut m = ConfusionMatrix::new(n_classes);
        for (&t, &p) in truth.iter().zip(pred) {
            m.record(t, p)?;
        }
        Ok(m)
    }

    /// Record one observation.
    pub fn record(&mut self, truth: usize, pred: usize) -> Result<()> {
        if truth >= self.n_classes || pred >= self.n_classes {
            return Err(RsdError::data(format!(
                "label out of range: true {truth}, pred {pred}, classes {}",
                self.n_classes
            )));
        }
        self.counts[truth * self.n_classes + pred] += 1;
        Ok(())
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Count at `(true, pred)`.
    pub fn get(&self, truth: usize, pred: usize) -> u64 {
        self.counts[truth * self.n_classes + pred]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Observations whose true class is `c` (row sum) — the class support.
    pub fn support(&self, c: usize) -> u64 {
        (0..self.n_classes).map(|p| self.get(c, p)).sum()
    }

    /// Observations predicted as `c` (column sum).
    pub fn predicted(&self, c: usize) -> u64 {
        (0..self.n_classes).map(|t| self.get(t, c)).sum()
    }

    /// Overall accuracy; 0.0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.n_classes).map(|c| self.get(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Precision for class `c`; 0.0 when nothing was predicted as `c`.
    pub fn precision(&self, c: usize) -> f64 {
        let pred = self.predicted(c);
        if pred == 0 {
            0.0
        } else {
            self.get(c, c) as f64 / pred as f64
        }
    }

    /// Recall for class `c`; 0.0 when the class has no support.
    pub fn recall(&self, c: usize) -> f64 {
        let sup = self.support(c);
        if sup == 0 {
            0.0
        } else {
            self.get(c, c) as f64 / sup as f64
        }
    }

    /// F1 for class `c`; harmonic mean of precision and recall.
    pub fn f1(&self, c: usize) -> f64 {
        let p = self.precision(c);
        let r = self.recall(c);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean of per-class F1 — the paper's "Mac-F1".
    pub fn macro_f1(&self) -> f64 {
        (0..self.n_classes).map(|c| self.f1(c)).sum::<f64>() / self.n_classes as f64
    }

    /// Merge another matrix of the same shape into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) -> Result<()> {
        if self.n_classes != other.n_classes {
            return Err(RsdError::data("confusion matrix shape mismatch"));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3-class example with known metrics.
    fn sample() -> ConfusionMatrix {
        // truth: 0,0,0,1,1,2 ; pred: 0,0,1,1,2,2
        ConfusionMatrix::from_labels(3, &[0, 0, 0, 1, 1, 2], &[0, 0, 1, 1, 2, 2]).unwrap()
    }

    #[test]
    fn counts_and_totals() {
        let m = sample();
        assert_eq!(m.total(), 6);
        assert_eq!(m.get(0, 0), 2);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.support(0), 3);
        assert_eq!(m.predicted(2), 2);
    }

    #[test]
    fn accuracy_matches_hand_computation() {
        let m = sample();
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn per_class_prf() {
        let m = sample();
        // class 0: precision 2/2 = 1, recall 2/3
        assert!((m.precision(0) - 1.0).abs() < 1e-12);
        assert!((m.recall(0) - 2.0 / 3.0).abs() < 1e-12);
        let f1_0 = 2.0 * 1.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0);
        assert!((m.f1(0) - f1_0).abs() < 1e-12);
        // class 1: precision 1/2, recall 1/2 → f1 = 1/2
        assert!((m.f1(1) - 0.5).abs() < 1e-12);
        // class 2: precision 1/2, recall 1 → f1 = 2/3
        assert!((m.f1(2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_is_the_unweighted_mean() {
        let m = sample();
        let macro_f1 = (m.f1(0) + m.f1(1) + m.f1(2)) / 3.0;
        assert!((m.macro_f1() - macro_f1).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_are_zero_not_nan() {
        let m = ConfusionMatrix::new(2);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(0), 0.0);
        assert_eq!(m.recall(0), 0.0);
        assert_eq!(m.f1(0), 0.0);
        assert_eq!(m.macro_f1(), 0.0);
    }

    #[test]
    fn out_of_range_labels_rejected() {
        let mut m = ConfusionMatrix::new(2);
        assert!(m.record(0, 2).is_err());
        assert!(m.record(2, 0).is_err());
        assert!(ConfusionMatrix::from_labels(2, &[0], &[0, 1]).is_err());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 12);
        assert_eq!(a.get(0, 0), 4);
        let c = ConfusionMatrix::new(2);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn perfect_predictions() {
        let m = ConfusionMatrix::from_labels(4, &[0, 1, 2, 3], &[0, 1, 2, 3]).unwrap();
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.macro_f1(), 1.0);
    }
}
