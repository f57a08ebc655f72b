#![warn(missing_docs)]

//! Annotation pipeline simulation (paper §II-B and §II-C).
//!
//! The paper's annotation campaign is a *process* with measurable gates,
//! and this crate executes that process end to end against simulated
//! annotators:
//!
//! * [`annotator`] — stochastic annotator models: per-item correctness
//!   driven by a skill level and item difficulty (ambiguous items are hard
//!   for *all* annotators — the correlated-error structure that makes real
//!   kappa < 1), adjacent-class confusion, and an uncertainty model in
//!   which hesitation correlates with would-be errors.
//! * [`qualification`] — the pre-campaign training loop: 100 expert-labelled
//!   samples, re-train and re-annotate until accuracy ≥ 95 %.
//! * [`campaign`] — the full campaign: 30 % of items triple-annotated for
//!   Fleiss' kappa with 2-of-3 voting and adjudication of three-way
//!   disagreements; 70 % labelled individually under a 500-item daily
//!   quota; the uncertainty-reporting policy (flagged items go to joint
//!   decision); and the daily 10 % expert inspection with its ≥ 85 % gate.
//!
//! The paper ran its campaign on Label Studio. Its task records
//! (assignments, submissions, flags) are not rebuilt here: the campaign
//! computes every output the paper reports directly.
//!
//! The ground-truth latent label plays the role of expert consensus; the
//! campaign's output is a *noisy but quality-controlled* label per post —
//! exactly the supervision signal the benchmark models train on.

pub mod annotator;
pub mod campaign;
pub mod qualification;

pub use campaign::{AnnotatedItem, Campaign, CampaignConfig, CampaignReport, LabelSource};
pub use qualification::{QualificationConfig, QualificationOutcome};
