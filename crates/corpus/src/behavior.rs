//! Per-user behaviour model: risk trajectories and temporal patterns.
//!
//! Each synthetic user draws an **archetype** — a stationary risk profile —
//! and their posts' latent risk levels follow a sticky Markov chain whose
//! stationary distribution *is* that profile (transition matrix
//! `T = α·I + (1-α)·𝟙πᵀ`), so the corpus-level class marginals are exactly
//! the archetype mixture while individual timelines show the persistent
//! runs and transitions ("dynamic evolution of suicide risk") the paper's
//! user-level task is designed around.
//!
//! Temporal behaviour is *coupled to risk*, reproducing the couplings the
//! paper reports as its most predictive features (§III-A1: "the change
//! pattern of posting time intervals and the proportion of nighttime
//! posts"): higher-risk states post more at night, at shorter and more
//! erratic intervals, and write longer posts.

use rand::Rng;

use crate::risk::RiskLevel;
use rsd_common::rng::weighted_index;

/// A user archetype: a stationary distribution over risk levels plus
/// behavioural tendencies. The four archetypes and their mixture weights
/// are calibrated so the corpus marginals land on Table I
/// (IN 31.6 %, ID 48.8 %, BR 14.1 %, AT 5.5 %).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Archetype {
    /// Mostly-Indicator users: concerned relatives, support seekers,
    /// people venting without suicidal intent.
    Concerned,
    /// Ideation-dominant users — the bulk of `r/SuicideWatch`.
    Struggling,
    /// Users oscillating between ideation and preparatory behaviour.
    Escalating,
    /// High-acuity users with behaviour/attempt histories.
    Crisis,
}

impl Archetype {
    /// All archetypes.
    pub(crate) const ALL: [Archetype; 4] = [
        Archetype::Concerned,
        Archetype::Struggling,
        Archetype::Escalating,
        Archetype::Crisis,
    ];

    /// Mixture weights over archetypes (sums to 1).
    pub(crate) const MIX: [f64; 4] = [0.28, 0.52, 0.13, 0.07];

    /// Stationary distribution over `[IN, ID, BR, AT]`.
    pub(crate) fn profile(self) -> [f64; 4] {
        match self {
            Archetype::Concerned => [0.85, 0.12, 0.02, 0.01],
            Archetype::Struggling => [0.15, 0.70, 0.12, 0.03],
            Archetype::Escalating => [0.05, 0.45, 0.40, 0.10],
            Archetype::Crisis => [0.05, 0.30, 0.35, 0.30],
        }
    }

    /// Draw an archetype according to [`Archetype::MIX`].
    pub(crate) fn sample(rng: &mut impl Rng) -> Archetype {
        Archetype::ALL[weighted_index(rng, &Archetype::MIX)]
    }
}

/// Stickiness of the per-user risk chain: with probability `PERSISTENCE`
/// the next post keeps the previous level; otherwise it redraws from the
/// archetype profile. Stationarity is unaffected by this value.
pub(crate) const PERSISTENCE: f64 = 0.55;

/// Per-risk-level behavioural couplings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RiskCoupling {
    /// Probability a post at this level lands in the 22:00–06:00 window.
    pub night_prob: f64,
    /// Mean gap to the next post, in days.
    pub mean_gap_days: f64,
    /// Mean number of content sentences in a post at this level.
    pub mean_sentences: f64,
}

/// Behavioural couplings per level, indexed by [`RiskLevel::index`].
pub(crate) fn coupling(level: RiskLevel) -> RiskCoupling {
    match level {
        RiskLevel::Indicator => RiskCoupling {
            night_prob: 0.22,
            mean_gap_days: 18.0,
            mean_sentences: 3.0,
        },
        RiskLevel::Ideation => RiskCoupling {
            night_prob: 0.33,
            mean_gap_days: 10.0,
            mean_sentences: 3.2,
        },
        RiskLevel::Behavior => RiskCoupling {
            night_prob: 0.42,
            mean_gap_days: 6.0,
            mean_sentences: 4.0,
        },
        RiskLevel::Attempt => RiskCoupling {
            night_prob: 0.50,
            mean_gap_days: 5.0,
            mean_sentences: 4.6,
        },
    }
}

/// The mutable trajectory state of one user while generating their posts.
#[derive(Debug, Clone)]
pub(crate) struct Trajectory {
    /// The user's archetype.
    pub archetype: Archetype,
    /// Current latent level (level of the most recently generated post).
    pub current: RiskLevel,
    /// Per-user additive night-owl offset in `[-0.1, 0.1]`.
    pub night_owl: f64,
    /// Per-user multiplicative activity factor in `[0.5, 2.0]` — scales
    /// inter-post gaps down for more active users.
    pub activity: f64,
}

impl Trajectory {
    /// Initialize a trajectory: draws the archetype, an initial level from
    /// its profile, and the user's personal tendencies.
    pub(crate) fn new(rng: &mut impl Rng) -> Trajectory {
        let archetype = Archetype::sample(rng);
        let current = RiskLevel::ALL[weighted_index(rng, &archetype.profile())];
        Trajectory {
            archetype,
            current,
            night_owl: rng.gen_range(-0.1..0.1),
            activity: rng.gen_range(0.5..2.0),
        }
    }

    /// Advance the chain one step and return the new level.
    pub(crate) fn step(&mut self, rng: &mut impl Rng) -> RiskLevel {
        if rng.gen::<f64>() >= PERSISTENCE {
            self.current = RiskLevel::ALL[weighted_index(rng, &self.archetype.profile())];
        }
        self.current
    }

    /// Night-posting probability for the current level, adjusted for this
    /// user's tendency and clamped to `[0.05, 0.9]`.
    pub(crate) fn night_prob(&self) -> f64 {
        (coupling(self.current).night_prob + self.night_owl).clamp(0.05, 0.9)
    }

    /// Mean gap (days) to the next post given current level and activity.
    pub(crate) fn mean_gap_days(&self) -> f64 {
        coupling(self.current).mean_gap_days / self.activity
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Expected corpus-level marginal distribution `[IN, ID, BR, AT]`
    /// implied by the archetype mixture — the generator's calibration
    /// target (cf. Table I: 31.58 / 48.81 / 14.07 / 5.54 %).
    pub(crate) fn expected_marginals() -> [f64; 4] {
        let mut out = [0.0; 4];
        for (arch, w) in Archetype::ALL.iter().zip(Archetype::MIX) {
            for (o, p) in out.iter_mut().zip(arch.profile()) {
                *o += w * p;
            }
        }
        out
    }

    #[test]
    fn mixture_weights_sum_to_one() {
        let sum: f64 = Archetype::MIX.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profiles_are_distributions() {
        for arch in Archetype::ALL {
            let p = arch.profile();
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{arch:?}");
            assert!(p.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn expected_marginals_match_table1() {
        // Table I: IN 31.58 %, ID 48.81 %, BR 14.07 %, AT 5.54 %.
        let m = expected_marginals();
        let table1 = [0.3158, 0.4881, 0.1407, 0.0554];
        for (got, want) in m.iter().zip(table1) {
            assert!(
                (got - want).abs() < 0.03,
                "marginal calibration off: got {m:?}, want {table1:?}"
            );
        }
    }

    #[test]
    fn chain_stationary_distribution_matches_profile() {
        // Long-run frequencies of a single sticky chain converge to the
        // archetype profile (T = αI + (1-α)𝟙πᵀ keeps π stationary).
        let mut rng = StdRng::seed_from_u64(11);
        let mut traj = Trajectory::new(&mut rng);
        traj.archetype = Archetype::Struggling;
        let mut counts = [0usize; 4];
        let n = 60_000;
        for _ in 0..n {
            counts[traj.step(&mut rng).index()] += 1;
        }
        let profile = Archetype::Struggling.profile();
        for (c, p) in counts.iter().zip(profile) {
            let freq = *c as f64 / n as f64;
            assert!((freq - p).abs() < 0.02, "freq {freq} vs profile {p}");
        }
    }

    #[test]
    fn persistence_creates_runs() {
        // Consecutive repeats should exceed the iid rate.
        let mut rng = StdRng::seed_from_u64(12);
        let mut traj = Trajectory::new(&mut rng);
        traj.archetype = Archetype::Struggling;
        let levels: Vec<RiskLevel> = (0..20_000).map(|_| traj.step(&mut rng)).collect();
        let repeats = levels.windows(2).filter(|w| w[0] == w[1]).count();
        let rate = repeats as f64 / (levels.len() - 1) as f64;
        // iid repeat rate for Struggling ≈ Σ p² = 0.0225+0.49+0.0144+0.0009 ≈ 0.53;
        // with persistence 0.55 the sticky rate is ≈ 0.55 + 0.45·0.53 ≈ 0.79.
        assert!(rate > 0.7, "repeat rate {rate} too low for sticky chain");
    }

    #[test]
    fn couplings_monotone_in_severity() {
        let mut last_night = 0.0;
        let mut last_gap = f64::INFINITY;
        for level in RiskLevel::ALL {
            let c = coupling(level);
            assert!(c.night_prob > last_night, "night_prob must escalate");
            assert!(c.mean_gap_days < last_gap, "gaps must shrink with risk");
            last_night = c.night_prob;
            last_gap = c.mean_gap_days;
        }
    }

    #[test]
    fn night_prob_clamped() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let traj = Trajectory::new(&mut rng);
            let p = traj.night_prob();
            assert!((0.05..=0.9).contains(&p));
        }
    }
}
