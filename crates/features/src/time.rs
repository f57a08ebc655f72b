//! Time-dimension features: posting-interval statistics, circadian and
//! weekly patterns — the features the paper reports as most predictive
//! ("the change pattern of posting time intervals and the proportion of
//! nighttime posts").

use rsd_common::stats::{linear_trend, mean, std_dev};
use rsd_common::Timestamp;

/// Names of the time features, in output order.
pub(crate) const TIME_FEATURE_NAMES: &[&str] = &[
    "time.gap_mean_days",
    "time.gap_std_days",
    "time.gap_min_days",
    "time.gap_max_days",
    "time.gap_trend",
    "time.last_gap_ratio",
    "time.night_ratio",
    "time.weekend_ratio",
    "time.hour_mean",
    "time.hour_std",
    "time.span_days",
    "time.posts_per_day",
];

/// Extract time features from the window's timestamps (chronological),
/// appended into a caller-owned buffer so the serving path's scratch
/// buffers are reused.
pub fn time_features_into(timestamps: &[Timestamp], out: &mut Vec<f32>) {
    let n = timestamps.len();
    let gaps: Vec<f64> = timestamps
        .windows(2)
        .map(|w| w[1].days_since(w[0]))
        .collect();
    let gap_mean = mean(&gaps);
    let last_gap_ratio = if gaps.is_empty() || gap_mean <= 0.0 {
        1.0
    } else {
        gaps.last().copied().unwrap_or(0.0) / gap_mean
    };
    let night_ratio = timestamps.iter().filter(|t| t.is_night()).count() as f64 / n.max(1) as f64;
    let weekend_ratio =
        timestamps.iter().filter(|t| t.is_weekend()).count() as f64 / n.max(1) as f64;
    let hours: Vec<f64> = timestamps.iter().map(|t| f64::from(t.hour())).collect();
    let span_days = if n >= 2 {
        timestamps[n - 1].days_since(timestamps[0])
    } else {
        0.0
    };
    let posts_per_day = if span_days > 0.0 {
        n as f64 / span_days
    } else {
        n as f64
    };

    out.extend_from_slice(&[
        gap_mean as f32,
        std_dev(&gaps) as f32,
        gaps.iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .pipe_zero() as f32,
        gaps.iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_zero() as f32,
        linear_trend(&gaps) as f32,
        last_gap_ratio as f32,
        night_ratio as f32,
        weekend_ratio as f32,
        mean(&hours) as f32,
        std_dev(&hours) as f32,
        span_days as f32,
        posts_per_day as f32,
    ]);
}

trait PipeZero {
    fn pipe_zero(self) -> f64;
}
impl PipeZero for f64 {
    fn pipe_zero(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time_features(timestamps: &[Timestamp]) -> Vec<f32> {
        let mut out = Vec::new();
        time_features_into(timestamps, &mut out);
        out
    }

    fn ts(hours: &[i64]) -> Vec<Timestamp> {
        hours
            .iter()
            .map(|&h| Timestamp(Timestamp::from_ymd(2020, 6, 1).unwrap().0 + h * 3600))
            .collect()
    }

    #[test]
    fn feature_count_matches_names() {
        let feats = time_features(&ts(&[0, 24, 48]));
        assert_eq!(feats.len(), TIME_FEATURE_NAMES.len());
    }

    #[test]
    fn gap_statistics() {
        // Gaps of 1 day and 2 days.
        let feats = time_features(&ts(&[0, 24, 72]));
        assert!((feats[0] - 1.5).abs() < 1e-5, "mean gap {}", feats[0]);
        assert!((feats[2] - 1.0).abs() < 1e-5, "min gap");
        assert!((feats[3] - 2.0).abs() < 1e-5, "max gap");
        assert!(feats[4] > 0.0, "gaps growing → positive trend");
        assert!((feats[10] - 3.0).abs() < 1e-5, "span 3 days");
    }

    #[test]
    fn night_ratio_counts_late_posts() {
        // 23:00 is night; 12:00 is not.
        let t = vec![
            Timestamp::from_ymd_hms(2020, 6, 1, 23, 0, 0).unwrap(),
            Timestamp::from_ymd_hms(2020, 6, 2, 12, 0, 0).unwrap(),
        ];
        let feats = time_features(&t);
        assert!((feats[6] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn single_post_is_all_finite() {
        let feats = time_features(&ts(&[5]));
        assert!(feats.iter().all(|f| f.is_finite()));
        assert_eq!(feats[0], 0.0, "no gaps");
        assert_eq!(feats[11], 1.0, "1 post, zero span → 1 post/day");
    }

    #[test]
    fn last_gap_ratio_detects_acceleration() {
        // Gaps 10, 10, 1: the last gap collapses → ratio well below 1.
        let feats = time_features(&ts(&[0, 240, 480, 504]));
        assert!(feats[5] < 0.5, "last gap ratio {}", feats[5]);
    }
}
