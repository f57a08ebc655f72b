#![warn(missing_docs)]

//! Evaluation metrics for the RSD-15K benchmark.
//!
//! * [`confusion`] — n-class confusion matrices with accuracy, per-class
//!   precision/recall/F1, and the macro-F1 aggregate (the columns of the
//!   paper's Table III).
//! * [`kappa`] — inter-annotator agreement: Fleiss' kappa (the paper's
//!   §II-C1 reports κ = 0.7206 over the triple-annotated 30 %).
//! * [`report`] — plain-text classification reports for the bench
//!   binaries.
//! * [`bootstrap`] — percentile-bootstrap confidence intervals for
//!   accuracy/macro-F1 (EXPERIMENTS.md quotes these for small test sets).
//! * [`significance`] — exact McNemar tests for paired model comparison
//!   (are adjacent Table III rows distinguishable?).
//! * [`alpha`] — Krippendorff's alpha: agreement with missing ratings,
//!   which the uncertainty-reporting policy produces by design.

pub mod alpha;
pub mod bootstrap;
pub mod confusion;
pub mod kappa;
pub mod report;
pub mod significance;

pub use alpha::krippendorff_alpha;
pub use bootstrap::{bootstrap_metrics, BootstrapInterval};
pub use confusion::ConfusionMatrix;
pub use kappa::fleiss_kappa;
pub use report::ClassificationReport;
pub use significance::{mcnemar, McNemarOutcome};
