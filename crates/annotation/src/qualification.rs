//! Pre-campaign annotator qualification (paper §II-B2).
//!
//! "100 data samples were selected for expert annotation. The samples were
//! utilized for verifying participants' labeling accuracy before starting
//! the formal task. If the accuracy from an annotator is below 95 %, the
//! errors in the annotation are reviewed and corrected, followed by a
//! re-annotation of the samples. This process continues until the accuracy
//! reaches 95 %."
//!
//! The loop below executes exactly that protocol against a
//! [`SimulatedAnnotator`]: each failed round triggers an error review
//! ([`crate::annotator::AnnotatorProfile::train_round`]) and a fresh re-annotation.

use serde::{Deserialize, Serialize};

use crate::annotator::{AnnotationOutcome, SimulatedAnnotator};
use rsd_common::{Result, RsdError};
use rsd_corpus::{PostId, RiskLevel};

/// Qualification protocol parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualificationConfig {
    /// Number of expert-labelled training samples (paper: 100).
    pub n_samples: usize,
    /// Required accuracy to pass (paper: 0.95).
    pub pass_accuracy: f64,
    /// Safety valve: maximum training rounds before giving up.
    pub max_rounds: usize,
}

impl Default for QualificationConfig {
    fn default() -> Self {
        QualificationConfig {
            n_samples: 100,
            pass_accuracy: 0.95,
            max_rounds: 25,
        }
    }
}

/// Result of qualifying one annotator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualificationOutcome {
    /// Accuracy per round, in order; the final entry met the threshold.
    pub round_accuracies: Vec<f64>,
    /// Rounds needed (== `round_accuracies.len()`).
    pub rounds: usize,
}

/// Run the qualification loop.
///
/// `expert_set` is the 100-sample expert-labelled training set
/// (`(post, expert label)` pairs). During qualification the uncertainty
/// policy is suspended — trainees must commit on every sample so errors
/// surface and can be reviewed.
pub fn qualify(
    annotator: &mut SimulatedAnnotator,
    expert_set: &[(PostId, RiskLevel)],
    cfg: &QualificationConfig,
) -> Result<QualificationOutcome> {
    if expert_set.len() < cfg.n_samples {
        return Err(RsdError::config(
            "n_samples",
            format!(
                "expert set has {} samples, need {}",
                expert_set.len(),
                cfg.n_samples
            ),
        ));
    }
    let samples = &expert_set[..cfg.n_samples];
    let mut round_accuracies = Vec::new();
    for _round in 0..cfg.max_rounds {
        let mut correct = 0usize;
        for &(post, truth) in samples {
            // Commit on every sample: uncertainty reporting is for the
            // formal task, not the qualification quiz.
            let label = match annotator.annotate(post, truth) {
                AnnotationOutcome::Label(l) => l,
                AnnotationOutcome::Uncertain => annotator.annotate_no_flagging(post, truth),
            };
            if label == truth {
                correct += 1;
            }
        }
        let acc = correct as f64 / samples.len() as f64;
        round_accuracies.push(acc);
        if acc >= cfg.pass_accuracy {
            return Ok(QualificationOutcome {
                rounds: round_accuracies.len(),
                round_accuracies,
            });
        }
        // Supervised error review, then re-annotate.
        annotator.profile.train_round();
    }
    Err(RsdError::PipelineState(format!(
        "annotator {} failed to qualify within {} rounds (last accuracy {:.2})",
        annotator.id,
        cfg.max_rounds,
        round_accuracies.last().copied().unwrap_or(0.0)
    )))
}

/// Build an expert qualification set of `n` posts.
///
/// The paper's 100 training samples were *curated by experts* to teach the
/// labeling rules unambiguously, so the builder skips intrinsically hard
/// (ambiguous) items — qualification measures rule mastery, not luck on
/// borderline cases. Falls back to including hard items only if the pool
/// has too few easy ones.
pub fn expert_set_from(
    posts: &[(PostId, RiskLevel)],
    n: usize,
    campaign_seed: u64,
) -> Vec<(PostId, RiskLevel)> {
    let mut set: Vec<(PostId, RiskLevel)> = posts
        .iter()
        .filter(|(p, _)| !crate::annotator::is_hard_item(*p, campaign_seed))
        .take(n)
        .copied()
        .collect();
    if set.len() < n {
        for item in posts {
            if set.len() >= n {
                break;
            }
            if !set.contains(item) {
                set.push(*item);
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::AnnotatorProfile;

    fn expert_set(n: usize) -> Vec<(PostId, RiskLevel)> {
        (0..n)
            .map(|i| (PostId(i as u32), RiskLevel::ALL[i % 4]))
            .collect()
    }

    #[test]
    fn untrained_annotator_eventually_qualifies() {
        let mut a = SimulatedAnnotator::new(0, AnnotatorProfile::untrained(), 31);
        let set = expert_set_from(&expert_set(400), 100, 31);
        let out = qualify(&mut a, &set, &QualificationConfig::default()).unwrap();
        assert!(out.rounds >= 1);
        assert!(*out.round_accuracies.last().unwrap() >= 0.95);
        // Skill must have improved if multiple rounds were needed.
        if out.rounds > 1 {
            assert!(a.profile.skill_easy > AnnotatorProfile::untrained().skill_easy);
        }
    }

    #[test]
    fn accuracies_reported_per_round() {
        let mut a = SimulatedAnnotator::new(1, AnnotatorProfile::untrained(), 32);
        let set = expert_set_from(&expert_set(400), 100, 32);
        let out = qualify(&mut a, &set, &QualificationConfig::default()).unwrap();
        assert_eq!(out.rounds, out.round_accuracies.len());
        for acc in &out.round_accuracies[..out.rounds - 1] {
            assert!(*acc < 0.95, "non-final rounds failed the gate");
        }
    }

    #[test]
    fn insufficient_expert_set_rejected() {
        let mut a = SimulatedAnnotator::new(0, AnnotatorProfile::default(), 33);
        assert!(qualify(&mut a, &expert_set(50), &QualificationConfig::default()).is_err());
    }

    #[test]
    fn impossible_threshold_errors_out() {
        let mut a = SimulatedAnnotator::new(0, AnnotatorProfile::untrained(), 34);
        let cfg = QualificationConfig {
            pass_accuracy: 1.01, // unattainable
            max_rounds: 3,
            ..Default::default()
        };
        let set = expert_set_from(&expert_set(400), 100, 34);
        assert!(qualify(&mut a, &set, &cfg).is_err());
    }

    #[test]
    fn expert_set_builder_curates_easy_items() {
        let posts = expert_set(400);
        let set = expert_set_from(&posts, 100, 77);
        assert_eq!(set.len(), 100);
        for (p, _) in &set {
            assert!(
                !crate::annotator::is_hard_item(*p, 77),
                "curated set must avoid hard items when the pool allows"
            );
        }
    }

    #[test]
    fn expert_set_builder_falls_back_when_pool_small() {
        let posts = expert_set(100);
        let set = expert_set_from(&posts, 100, 77);
        assert_eq!(set.len(), 100);
    }
}
