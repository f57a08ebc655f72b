//! Risk-trajectory analytics: the "dynamic evolution of suicide risk" the
//! dataset is built to support (paper §I: "retains complete user posting
//! time sequence information, supports modeling the dynamic evolution of
//! suicide risk").
//!
//! Provides the longitudinal statistics a downstream study needs:
//! per-dataset label **transition matrices** between consecutive posts,
//! **escalation events** (a post strictly more severe than its
//! predecessor), per-user severity **trends**, and **time-to-escalation**
//! distributions.

use serde::{Deserialize, Serialize};

use crate::record::Rsd15k;
use rsd_common::stats::{linear_trend, mean, median};
use rsd_corpus::{RiskLevel, UserId};

/// A 4×4 row-stochastic transition matrix over risk levels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionMatrix {
    /// Raw transition counts: `counts[from][to]`.
    pub counts: [[u64; RiskLevel::COUNT]; RiskLevel::COUNT],
}

impl TransitionMatrix {
    /// Count transitions between consecutive posts of every user.
    pub(crate) fn from_dataset(dataset: &Rsd15k) -> Self {
        let mut counts = [[0u64; RiskLevel::COUNT]; RiskLevel::COUNT];
        for user in &dataset.users {
            for pair in user.post_indices.windows(2) {
                let from = dataset.posts[pair[0]].label.index();
                let to = dataset.posts[pair[1]].label.index();
                counts[from][to] += 1;
            }
        }
        TransitionMatrix { counts }
    }

    /// Total transitions observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Row-normalized probabilities; rows with no observations are zero.
    pub fn probabilities(&self) -> [[f64; RiskLevel::COUNT]; RiskLevel::COUNT] {
        let mut out = [[0.0; RiskLevel::COUNT]; RiskLevel::COUNT];
        for (row, counts) in out.iter_mut().zip(&self.counts) {
            let total: u64 = counts.iter().sum();
            if total > 0 {
                for (p, &c) in row.iter_mut().zip(counts) {
                    *p = c as f64 / total as f64;
                }
            }
        }
        out
    }

    /// Probability that consecutive posts share a level (diagonal mass) —
    /// the persistence the generator's sticky chain induces and a real
    /// longitudinal dataset exhibits.
    pub fn persistence(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..RiskLevel::COUNT).map(|i| self.counts[i][i]).sum();
        diag as f64 / total as f64
    }

    /// Fraction of transitions that increase severity.
    pub fn escalation_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut up = 0u64;
        for from in 0..RiskLevel::COUNT {
            for to in (from + 1)..RiskLevel::COUNT {
                up += self.counts[from][to];
            }
        }
        up as f64 / total as f64
    }
}

/// One escalation event: a post strictly more severe than its predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Escalation {
    /// The user.
    pub user: UserId,
    /// Index (into `Rsd15k::posts`) of the escalating post.
    pub post_index: usize,
    /// Severity before.
    pub from: RiskLevel,
    /// Severity after.
    pub to: RiskLevel,
    /// Days since the preceding post.
    pub gap_days: f64,
}

/// All escalation events in chronological per-user order.
pub(crate) fn escalations(dataset: &Rsd15k) -> Vec<Escalation> {
    let mut out = Vec::new();
    for user in &dataset.users {
        for pair in user.post_indices.windows(2) {
            let (a, b) = (&dataset.posts[pair[0]], &dataset.posts[pair[1]]);
            if b.label > a.label {
                out.push(Escalation {
                    user: user.id,
                    post_index: pair[1],
                    from: a.label,
                    to: b.label,
                    gap_days: b.created.days_since(a.created),
                });
            }
        }
    }
    out
}

/// Per-user longitudinal summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct UserTrajectory {
    /// The user.
    pub user: UserId,
    /// Number of posts.
    pub posts: usize,
    /// Least-squares slope of severity (index) over post order; positive =
    /// worsening.
    pub severity_trend: f64,
    /// Mean severity index over the timeline.
    pub mean_severity: f64,
    /// Maximum severity reached.
    pub peak: RiskLevel,
    /// Number of escalation events.
    pub escalations: usize,
}

/// Summarize every user's trajectory.
pub(crate) fn user_trajectories(dataset: &Rsd15k) -> Vec<UserTrajectory> {
    dataset
        .users
        .iter()
        .map(|user| {
            let severities: Vec<f64> = user
                .post_indices
                .iter()
                .map(|&i| dataset.posts[i].label.index() as f64)
                .collect();
            let peak_idx = severities.iter().copied().fold(0.0f64, f64::max) as usize;
            let escalations = severities.windows(2).filter(|w| w[1] > w[0]).count();
            UserTrajectory {
                user: user.id,
                posts: user.post_indices.len(),
                severity_trend: linear_trend(&severities),
                mean_severity: mean(&severities),
                peak: RiskLevel::from_index(peak_idx).expect("severity index valid"),
                escalations,
            }
        })
        .collect()
}

/// Dataset-level trajectory report (one struct the bench binary prints).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryReport {
    /// Transition counts/probabilities.
    pub transitions: TransitionMatrix,
    /// Diagonal persistence.
    pub persistence: f64,
    /// Escalating-transition share.
    pub escalation_rate: f64,
    /// Total escalation events.
    pub n_escalations: usize,
    /// Median days between a post and an escalating successor.
    pub median_days_to_escalation: f64,
    /// Share of users whose severity trend is positive (worsening).
    pub worsening_users: f64,
    /// Share of users who ever reach Behavior or Attempt.
    pub users_reaching_high_risk: f64,
}

/// Compute the full trajectory report.
pub fn trajectory_report(dataset: &Rsd15k) -> TrajectoryReport {
    let transitions = TransitionMatrix::from_dataset(dataset);
    let events = escalations(dataset);
    let gaps: Vec<f64> = events.iter().map(|e| e.gap_days).collect();
    let trajectories = user_trajectories(dataset);
    let n_users = trajectories.len().max(1);
    let worsening = trajectories
        .iter()
        .filter(|t| t.severity_trend > 0.0)
        .count() as f64
        / n_users as f64;
    let high = trajectories
        .iter()
        .filter(|t| t.peak >= RiskLevel::Behavior)
        .count() as f64
        / n_users as f64;
    TrajectoryReport {
        persistence: transitions.persistence(),
        escalation_rate: transitions.escalation_rate(),
        n_escalations: events.len(),
        median_days_to_escalation: median(&gaps),
        worsening_users: worsening,
        users_reaching_high_risk: high,
        transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_fixtures::tiny;
    use crate::{BuildConfig, DatasetBuilder};

    #[test]
    fn tiny_fixture_transitions() {
        // user 0: IN -> ID -> ID ; user 1: BR -> AT
        let d = tiny();
        let m = TransitionMatrix::from_dataset(&d);
        assert_eq!(m.total(), 3);
        assert_eq!(
            m.counts[RiskLevel::Indicator.index()][RiskLevel::Ideation.index()],
            1
        );
        assert_eq!(
            m.counts[RiskLevel::Ideation.index()][RiskLevel::Ideation.index()],
            1
        );
        assert_eq!(
            m.counts[RiskLevel::Behavior.index()][RiskLevel::Attempt.index()],
            1
        );
        assert!((m.escalation_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.persistence() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_row_stochastic() {
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(1101, 2_000, 40))
            .build()
            .unwrap();
        let m = TransitionMatrix::from_dataset(&d);
        for row in m.probabilities() {
            let sum: f64 = row.iter().sum();
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn generator_stickiness_visible_in_transitions() {
        // The corpus model uses a sticky chain (persistence 0.55 plus
        // profile mass), so consecutive-post persistence must well exceed
        // the iid baseline (~0.37 for Table I marginals).
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(1102, 2_500, 50))
            .build()
            .unwrap();
        let m = TransitionMatrix::from_dataset(&d);
        assert!(
            m.persistence() > 0.5,
            "persistence {} too low for sticky trajectories",
            m.persistence()
        );
    }

    #[test]
    fn escalations_are_strict_increases() {
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(1103, 2_000, 40))
            .build()
            .unwrap();
        for e in escalations(&d) {
            assert!(e.to > e.from);
            assert!(e.gap_days >= 0.0);
        }
    }

    #[test]
    fn trajectories_cover_all_users() {
        let d = tiny();
        let ts = user_trajectories(&d);
        assert_eq!(ts.len(), 2);
        // user 0: severities 0,1,1 → positive trend, peak Ideation.
        assert!(ts[0].severity_trend > 0.0);
        assert_eq!(ts[0].peak, RiskLevel::Ideation);
        assert_eq!(ts[0].escalations, 1);
        // user 1: 2,3 → peak Attempt.
        assert_eq!(ts[1].peak, RiskLevel::Attempt);
    }

    #[test]
    fn report_is_internally_consistent() {
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(1104, 2_000, 40))
            .build()
            .unwrap();
        let r = trajectory_report(&d);
        assert_eq!(r.n_escalations, escalations(&d).len());
        assert!((0.0..=1.0).contains(&r.persistence));
        assert!((0.0..=1.0).contains(&r.escalation_rate));
        assert!((0.0..=1.0).contains(&r.worsening_users));
        assert!((0.0..=1.0).contains(&r.users_reaching_high_risk));
        assert!(r.median_days_to_escalation >= 0.0);
    }
}
