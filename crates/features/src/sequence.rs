//! Sequence-dimension features: sliding-window trends and historical
//! cumulative statistics over the user's post sequence.

use rsd_common::stats::linear_trend;

use crate::post::{jaccard, PreparedPost};

/// Names of the sequence features, in output order.
pub const SEQUENCE_FEATURE_NAMES: &[&str] = &[
    "seq.window_size",
    "seq.total_posts",
    "seq.len_trend",
    "seq.theme_trend",
    "seq.last_jaccard",
    "seq.escalation_steps",
];

/// Append the sequence features of a window's prepared posts
/// (chronological); `total_posts` is the user's full history length (the
/// cumulative feature).
pub(crate) fn sequence_features_into(
    posts: &[&PreparedPost],
    total_posts: usize,
    out: &mut Vec<f32>,
) {
    let lens: Vec<f64> = posts.iter().map(|p| p.tokens as f64).collect();
    let hits: Vec<f64> = posts.iter().map(|p| p.theme_hits as f64).collect();

    // Token-overlap similarity between the last two posts.
    let last_jaccard = match posts {
        [.., a, b] => jaccard(a, b),
        _ => 0.0,
    };

    // Number of consecutive increases in theme-hit counts — a cheap proxy
    // for escalating risk language across the window.
    let escalation_steps = hits.windows(2).filter(|w| w[1] > w[0]).count() as f64;

    out.extend_from_slice(&[
        posts.len() as f32,
        total_posts as f32,
        linear_trend(&lens) as f32,
        linear_trend(&hits) as f32,
        last_jaccard as f32,
        escalation_steps as f32,
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::test_support::prepared;

    fn sequence_features(texts: &[&str], total_posts: usize) -> Vec<f32> {
        let p = prepared(texts);
        let mut out = Vec::new();
        sequence_features_into(&p.iter().collect::<Vec<_>>(), total_posts, &mut out);
        out
    }

    #[test]
    fn feature_count_matches_names() {
        assert_eq!(
            sequence_features(&["a"], 3).len(),
            SEQUENCE_FEATURE_NAMES.len()
        );
    }

    #[test]
    fn window_and_totals() {
        let f = sequence_features(&["a", "b c"], 12);
        assert_eq!(f[0], 2.0);
        assert_eq!(f[1], 12.0);
    }

    #[test]
    fn trends_detect_growth() {
        let f = sequence_features(&["a", "a b", "a b c"], 3);
        assert!(f[2] > 0.0, "length trend must be positive");
    }

    #[test]
    fn escalation_counts_theme_increases() {
        let f = sequence_features(
            &["nothing here", "i want to die", "i want to die and end it"],
            3,
        );
        assert!(f[5] >= 2.0, "two escalation steps, got {}", f[5]);
    }

    #[test]
    fn jaccard_of_identical_posts_is_one() {
        let f = sequence_features(&["i want to die", "i want to die"], 2);
        assert!((f[4] - 1.0).abs() < 1e-6);
        let f = sequence_features(&["alpha beta", "gamma delta"], 2);
        assert_eq!(f[4], 0.0);
    }

    #[test]
    fn single_post_defaults() {
        let f = sequence_features(&["hello world"], 1);
        assert_eq!(f[4], 0.0);
        assert_eq!(f[5], 0.0);
        assert!(f.iter().all(|x| x.is_finite()));
    }
}
