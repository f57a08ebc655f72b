//! Plain-text classification reports.
//!
//! Summarizes a [`ConfusionMatrix`] the way the paper's tables do:
//! accuracy, macro-F1, then per-class F1.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::confusion::ConfusionMatrix;

/// A rendered classification report for one model run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationReport {
    /// Display name of the model.
    pub model: String,
    /// Class display names, index-aligned with the confusion matrix.
    pub class_names: Vec<String>,
    /// Overall accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Macro-averaged F1 in `[0, 1]`.
    pub macro_f1: f64,
    /// Per-class F1 in `[0, 1]`.
    pub class_f1: Vec<f64>,
    /// Per-class support (true-label counts).
    pub support: Vec<u64>,
}

impl ClassificationReport {
    /// Build a report from a confusion matrix.
    ///
    /// Panics if `class_names` does not match the matrix shape — that is a
    /// programming error, not a data error.
    pub fn from_confusion(
        model: impl Into<String>,
        class_names: &[&str],
        m: &ConfusionMatrix,
    ) -> Self {
        assert_eq!(
            class_names.len(),
            m.n_classes(),
            "class names must match matrix shape"
        );
        ClassificationReport {
            model: model.into(),
            class_names: class_names.iter().map(|s| s.to_string()).collect(),
            accuracy: m.accuracy(),
            macro_f1: m.macro_f1(),
            class_f1: (0..m.n_classes()).map(|c| m.f1(c)).collect(),
            support: (0..m.n_classes()).map(|c| m.support(c)).collect(),
        }
    }
}

/// Render a confusion matrix as a fixed-width grid with per-class
/// precision/recall margins — the long-form companion to the Table III
/// rows.
pub fn render_confusion_grid(m: &ConfusionMatrix, class_names: &[&str]) -> String {
    assert_eq!(class_names.len(), m.n_classes(), "class names must match");
    let mut out = String::new();
    out.push_str(&format!("{:>12}", "true/pred"));
    for name in class_names {
        out.push_str(&format!("{:>10}", truncate(name, 9)));
    }
    out.push_str(&format!("{:>9}{:>9}\n", "recall", "support"));
    for (t, name) in class_names.iter().enumerate() {
        out.push_str(&format!("{:>12}", truncate(name, 11)));
        for p in 0..m.n_classes() {
            out.push_str(&format!("{:>10}", m.get(t, p)));
        }
        out.push_str(&format!(
            "{:>8.1}%{:>9}\n",
            m.recall(t) * 100.0,
            m.support(t)
        ));
    }
    out.push_str(&format!("{:>12}", "precision"));
    for p in 0..m.n_classes() {
        out.push_str(&format!("{:>9.1}%", m.precision(p) * 100.0));
    }
    out.push('\n');
    out
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

impl fmt::Display for ClassificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model: {}", self.model)?;
        writeln!(
            f,
            "accuracy: {:.1}%  macro-F1: {:.1}%",
            self.accuracy * 100.0,
            self.macro_f1 * 100.0
        )?;
        for ((name, f1), sup) in self
            .class_names
            .iter()
            .zip(&self.class_f1)
            .zip(&self.support)
        {
            writeln!(f, "  {name:<10} F1 {:.1}%  (n={sup})", f1 * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ClassificationReport {
        let m = ConfusionMatrix::from_labels(2, &[0, 0, 1, 1], &[0, 1, 1, 1]).unwrap();
        ClassificationReport::from_confusion("TestModel", &["Neg", "Pos"], &m)
    }

    #[test]
    fn fields_derive_from_matrix() {
        let r = report();
        assert!((r.accuracy - 0.75).abs() < 1e-12);
        assert_eq!(r.class_f1.len(), 2);
        assert_eq!(r.support, vec![2, 2]);
    }

    #[test]
    fn display_renders_every_class() {
        let text = report().to_string();
        assert!(text.contains("Neg"));
        assert!(text.contains("Pos"));
        assert!(text.contains("accuracy"));
    }

    #[test]
    #[should_panic(expected = "class names must match")]
    fn shape_mismatch_panics() {
        let m = ConfusionMatrix::new(3);
        ClassificationReport::from_confusion("x", &["a", "b"], &m);
    }

    #[test]
    fn confusion_grid_renders_counts_and_margins() {
        let m = ConfusionMatrix::from_labels(2, &[0, 0, 1, 1], &[0, 1, 1, 1]).unwrap();
        let grid = render_confusion_grid(&m, &["Neg", "Pos"]);
        assert!(grid.contains("true/pred"));
        assert!(grid.contains("precision"));
        assert!(grid.contains("recall"));
        // Row for Neg: 1 correct, 1 confused; recall 50%.
        assert!(grid.contains("50.0%"), "grid:\n{grid}");
        assert!(grid.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "class names must match")]
    fn confusion_grid_shape_checked() {
        render_confusion_grid(&ConfusionMatrix::new(3), &["a"]);
    }
}
