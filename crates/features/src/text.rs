//! Text-dimension features: statistical and linguistic descriptors of the
//! window's posts, combined from their prepared parts (TF-IDF lives in the
//! extractor; these are the dense companions).

use rsd_common::stats::{mean, std_dev};

use crate::post::{distinct_union_len, PreparedPost};

/// Names of the dense text features, in output order.
pub const TEXT_FEATURE_NAMES: &[&str] = &[
    "text.len_mean",
    "text.len_std",
    "text.len_last",
    "text.len_change",
    "text.type_token_ratio",
    "text.first_person_rate",
    "text.negation_count",
    "text.theme_hits_total",
    "text.theme_hits_last",
];

/// Append the dense text features of a window's prepared posts
/// (chronological; last = the labelled post).
pub(crate) fn text_features_into(posts: &[&PreparedPost], out: &mut Vec<f32>) {
    let lens: Vec<f64> = posts.iter().map(|p| p.tokens as f64).collect();
    let len_mean = mean(&lens);
    let len_last = lens.last().copied().unwrap_or(0.0);
    let len_change = if len_mean > 0.0 {
        len_last / len_mean
    } else {
        1.0
    };

    let n_tokens: usize = posts.iter().map(|p| p.tokens).sum();
    let type_token_ratio = if n_tokens == 0 {
        0.0
    } else {
        distinct_union_len(posts) as f64 / n_tokens as f64
    };
    let first_person =
        posts.iter().map(|p| p.first_person).sum::<usize>() as f64 / n_tokens.max(1) as f64;
    let negations = posts.iter().map(|p| p.negations).sum::<usize>() as f64;
    let theme_total: f64 = posts.iter().map(|p| p.theme_hits as f64).sum();
    let theme_last = posts.last().map_or(0.0, |p| p.theme_hits as f64);

    out.extend_from_slice(&[
        len_mean as f32,
        std_dev(&lens) as f32,
        len_last as f32,
        len_change as f32,
        type_token_ratio as f32,
        first_person as f32,
        negations as f32,
        theme_total as f32,
        theme_last as f32,
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::post::test_support::prepared;

    fn text_features(texts: &[&str]) -> Vec<f32> {
        let p = prepared(texts);
        let mut out = Vec::new();
        text_features_into(&p.iter().collect::<Vec<_>>(), &mut out);
        out
    }

    #[test]
    fn feature_count_matches_names() {
        assert_eq!(
            text_features(&["i want to end it all"]).len(),
            TEXT_FEATURE_NAMES.len()
        );
    }

    #[test]
    fn length_stats() {
        let f = text_features(&["a b c", "a b c d e"]);
        assert!((f[0] - 4.0).abs() < 1e-6, "mean len");
        assert!((f[2] - 5.0).abs() < 1e-6, "last len");
        assert!((f[3] - 1.25).abs() < 1e-6, "change ratio");
    }

    #[test]
    fn first_person_and_negation() {
        let f = text_features(&["i never hurt my friends i am not like that"]);
        assert!(f[5] > 0.2, "first-person rate {}", f[5]);
        assert_eq!(f[6], 2.0, "negations (never, not)");
    }

    #[test]
    fn theme_hits_counted() {
        let f = text_features(&["nothing here", "i want to die tonight"]);
        assert!(f[7] >= 1.0);
        assert!(f[8] >= 1.0, "last post has a hit");
        let f2 = text_features(&["i want to die tonight", "nothing here"]);
        assert_eq!(f2[8], 0.0, "last post has no hit");
    }

    #[test]
    fn empty_input_is_finite_zeros() {
        let f = text_features(&[]);
        assert!(f.iter().all(|x| x.is_finite()));
        assert_eq!(f[0], 0.0);
    }

    #[test]
    fn type_token_ratio_bounds() {
        let f = text_features(&["a a a a"]);
        assert!((f[4] - 0.25).abs() < 1e-6);
        let f = text_features(&["a b c d"]);
        assert!((f[4] - 1.0).abs() < 1e-6);
    }
}
