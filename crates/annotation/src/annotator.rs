//! Stochastic annotator models.
//!
//! An annotator's behaviour on one item is driven by three ingredients:
//!
//! 1. **Skill** — probability of labelling an *easy* item correctly.
//! 2. **Item difficulty** — a deterministic per-item property (derived from
//!    the post id, so all annotators face the same hard items). Hard items
//!    have a much lower per-annotator correct probability; this correlated
//!    error structure is what keeps simulated Fleiss' kappa realistically
//!    below 1 (the paper measures 0.7206).
//! 3. **Uncertainty** — hesitation correlates with error: the flag
//!    probability is high precisely when the annotator's draw would have
//!    been wrong. This models the paper's §II-B2 argument that the
//!    uncertainty-reporting policy removes likely-erroneous judgments
//!    cheaply.
//!
//! Mistakes are drawn from an adjacent-class confusion kernel: Ideation is
//! confused with Indicator (negation/perspective misread) and Behavior;
//! Behavior with Ideation and Attempt — matching the taxonomy's ordinal
//! structure.

use rand::rngs::StdRng;
use rand::Rng;

use rsd_common::rng::{split_seed, stream_rng, weighted_index};
use rsd_corpus::{PostId, RiskLevel};

/// Skill and behaviour parameters for one simulated annotator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AnnotatorProfile {
    /// P(correct) on easy items.
    pub skill_easy: f64,
    /// P(correct) on hard items.
    pub skill_hard: f64,
    /// P(flag uncertain) when the (hypothetical) draw would be correct.
    pub flag_when_correct: f64,
    /// P(flag uncertain) when the draw would be wrong.
    pub flag_when_wrong: f64,
}

#[cfg(test)]
impl Default for AnnotatorProfile {
    /// A freshly-trained annotator, calibrated so the campaign reproduces
    /// the paper's agreement statistics (κ ≈ 0.72, inspection ≥ 85 %).
    fn default() -> Self {
        AnnotatorProfile {
            skill_easy: 0.93,
            skill_hard: 0.52,
            flag_when_correct: 0.02,
            flag_when_wrong: 0.35,
        }
    }
}

impl AnnotatorProfile {
    /// An untrained annotator, as at the start of qualification.
    pub(crate) fn untrained() -> Self {
        AnnotatorProfile {
            skill_easy: 0.85,
            skill_hard: 0.45,
            flag_when_correct: 0.02,
            flag_when_wrong: 0.30,
        }
    }

    /// One round of supervised error review: skill moves a fixed fraction
    /// of the way toward expert ceiling (0.955 easy / 0.55 hard).
    pub(crate) fn train_round(&mut self) {
        self.skill_easy += 0.5 * (0.955 - self.skill_easy);
        self.skill_hard += 0.5 * (0.55 - self.skill_hard);
    }
}

/// What an annotator does with one item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnnotationOutcome {
    /// A committed label.
    Label(RiskLevel),
    /// Abstained under the uncertainty-reporting policy.
    Uncertain,
}

/// Fraction of items that are intrinsically hard (ambiguous borderline
/// cases all annotators struggle with).
pub(crate) const HARD_ITEM_RATE: f64 = 0.25;

/// Deterministic item difficulty: the same post is hard for everyone.
pub(crate) fn is_hard_item(post: PostId, campaign_seed: u64) -> bool {
    let h = split_seed(campaign_seed, u64::from(post.0) | (1 << 40));
    (h as f64 / u64::MAX as f64) < HARD_ITEM_RATE
}

/// Adjacent-class confusion kernel: given a true level, weights over the
/// levels an erring annotator writes instead.
pub(crate) fn confusion_weights(truth: RiskLevel) -> [f64; 4] {
    match truth {
        // Indicator misread as Ideation (missed negation / perspective).
        RiskLevel::Indicator => [0.0, 0.80, 0.12, 0.08],
        // Ideation drifts down to Indicator or up to Behavior.
        RiskLevel::Ideation => [0.55, 0.0, 0.38, 0.07],
        // Behavior confused with Ideation (is it "just" a thought?) or
        // Attempt (was the act completed?).
        RiskLevel::Behavior => [0.08, 0.52, 0.0, 0.40],
        // Attempt mostly confused with Behavior.
        RiskLevel::Attempt => [0.05, 0.25, 0.70, 0.0],
    }
}

/// A simulated annotator with a private RNG stream.
#[derive(Debug)]
pub(crate) struct SimulatedAnnotator {
    /// Campaign-local index (0, 1, 2 in the paper's three-annotator setup).
    pub id: usize,
    /// Behaviour parameters.
    pub profile: AnnotatorProfile,
    campaign_seed: u64,
    rng: StdRng,
}

impl SimulatedAnnotator {
    /// Create annotator `id` for a campaign.
    pub(crate) fn new(id: usize, profile: AnnotatorProfile, campaign_seed: u64) -> Self {
        SimulatedAnnotator {
            id,
            profile,
            campaign_seed,
            rng: stream_rng(campaign_seed, &format!("annotator.{id}")),
        }
    }

    /// Annotate one item under the uncertainty-reporting policy.
    pub(crate) fn annotate(&mut self, post: PostId, truth: RiskLevel) -> AnnotationOutcome {
        let hard = is_hard_item(post, self.campaign_seed);
        let p_correct = if hard {
            self.profile.skill_hard
        } else {
            self.profile.skill_easy
        };
        let would_be_correct = self.rng.gen::<f64>() < p_correct;
        let flag_prob = if would_be_correct {
            self.profile.flag_when_correct
        } else {
            self.profile.flag_when_wrong
        };
        if self.rng.gen::<f64>() < flag_prob {
            return AnnotationOutcome::Uncertain;
        }
        if would_be_correct {
            AnnotationOutcome::Label(truth)
        } else {
            let w = confusion_weights(truth);
            let idx = weighted_index(&mut self.rng, &w);
            AnnotationOutcome::Label(RiskLevel::from_index(idx).expect("valid index"))
        }
    }

    /// Annotate with the uncertainty policy disabled (for the ablation the
    /// paper's §II-B2 argument implies): hesitation never abstains, the
    /// annotator commits their draw.
    pub(crate) fn annotate_no_flagging(&mut self, post: PostId, truth: RiskLevel) -> RiskLevel {
        match self.annotate(post, truth) {
            AnnotationOutcome::Label(l) => l,
            // A forced decision under hesitation — exactly the error-prone
            // path the policy avoids: accuracy drops below the annotator's
            // base rate (confidence bias, overthinking effect).
            AnnotationOutcome::Uncertain => {
                let hard = is_hard_item(post, self.campaign_seed);
                let p_correct = if hard { 0.45 } else { 0.75 };
                if self.rng.gen::<f64>() < p_correct {
                    truth
                } else {
                    let w = confusion_weights(truth);
                    let idx = weighted_index(&mut self.rng, &w);
                    RiskLevel::from_index(idx).expect("valid index")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy_over(n: usize, profile: AnnotatorProfile, seed: u64) -> (f64, f64) {
        let mut a = SimulatedAnnotator::new(0, profile, seed);
        let mut correct = 0usize;
        let mut labelled = 0usize;
        let mut flagged = 0usize;
        for i in 0..n {
            let truth = RiskLevel::ALL[i % 4];
            match a.annotate(PostId(i as u32), truth) {
                AnnotationOutcome::Label(l) => {
                    labelled += 1;
                    if l == truth {
                        correct += 1;
                    }
                }
                AnnotationOutcome::Uncertain => flagged += 1,
            }
        }
        (correct as f64 / labelled as f64, flagged as f64 / n as f64)
    }

    #[test]
    fn trained_annotator_near_target_accuracy() {
        let (acc, flag_rate) = accuracy_over(20_000, AnnotatorProfile::default(), 7);
        assert!(acc > 0.84 && acc < 0.95, "accuracy {acc}");
        assert!(
            flag_rate > 0.02 && flag_rate < 0.14,
            "flag rate {flag_rate}"
        );
    }

    #[test]
    fn untrained_annotator_is_worse() {
        let (trained, _) = accuracy_over(20_000, AnnotatorProfile::default(), 8);
        let (untrained, _) = accuracy_over(20_000, AnnotatorProfile::untrained(), 8);
        assert!(untrained < trained, "{untrained} !< {trained}");
    }

    #[test]
    fn training_rounds_converge_toward_ceiling() {
        let mut p = AnnotatorProfile::untrained();
        for _ in 0..10 {
            p.train_round();
        }
        assert!((p.skill_easy - 0.955).abs() < 0.01);
        assert!((p.skill_hard - 0.55).abs() < 0.01);
    }

    #[test]
    fn hard_items_are_deterministic_and_shared() {
        let seed = 99;
        let a: Vec<bool> = (0..1000).map(|i| is_hard_item(PostId(i), seed)).collect();
        let b: Vec<bool> = (0..1000).map(|i| is_hard_item(PostId(i), seed)).collect();
        assert_eq!(a, b);
        let rate = a.iter().filter(|&&h| h).count() as f64 / 1000.0;
        assert!((rate - HARD_ITEM_RATE).abs() < 0.05, "hard rate {rate}");
    }

    #[test]
    fn confusion_weights_exclude_truth_and_sum_to_one() {
        for level in RiskLevel::ALL {
            let w = confusion_weights(level);
            assert_eq!(w[level.index()], 0.0);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{level}");
        }
    }

    #[test]
    fn flagging_removes_likely_errors() {
        // Accuracy among committed labels must exceed accuracy when the
        // annotator is forced to decide everything.
        let seed = 13;
        let n = 30_000;
        let (with_policy, _) = accuracy_over(n, AnnotatorProfile::default(), seed);
        let mut forced = SimulatedAnnotator::new(0, AnnotatorProfile::default(), seed);
        let mut correct = 0;
        for i in 0..n {
            let truth = RiskLevel::ALL[i % 4];
            if forced.annotate_no_flagging(PostId(i as u32), truth) == truth {
                correct += 1;
            }
        }
        let without_policy = correct as f64 / n as f64;
        assert!(
            with_policy > without_policy + 0.005,
            "policy should help: with {with_policy}, without {without_policy}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut a = SimulatedAnnotator::new(1, AnnotatorProfile::default(), 5);
            (0..100)
                .map(|i| a.annotate(PostId(i), RiskLevel::Ideation))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
