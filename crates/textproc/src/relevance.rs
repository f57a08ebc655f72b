//! Relevance filtering (paper §II-A2, step 1: "removing non-relevant
//! posts, such as those not related to the suicide risk theme").
//!
//! A lexicon-overlap heuristic: a post is considered on-topic when it
//! contains at least one term from a seed lexicon of distress / support /
//! crisis vocabulary, or enough first-person emotional framing. The
//! heuristic never consults generator ground truth; its precision/recall
//! against that ground truth is measured in tests and reported by the
//! pipeline.

use std::sync::OnceLock;

use crate::tokenize::tokens;

/// Seed lexicon of on-topic (distress/support/crisis) vocabulary.
///
/// Deliberately *abstract* terms only — this mirrors moderation-style
/// keyword screens rather than any operational content.
pub const THEME_LEXICON: &[&str] = &[
    // crisis vocabulary
    "suicide",
    "suicidal",
    "die",
    "dying",
    "death",
    "kill",
    "attempt",
    "attempted",
    "overdose",
    "pills",
    "note",
    "goodbye",
    "goodbyes",
    "hospital",
    "er",
    "scars",
    "cutting",
    "hurting",
    "harm",
    "bridge",
    "survived",
    "wake",
    "waking",
    "woke",
    "existing",
    "disappear",
    "end",
    "living",
    "tried",
    "doctors",
    // preparatory-act vocabulary
    "bottle",
    "bought",
    "collecting",
    "saved",
    "drawer",
    "rehearsing",
    "drove",
    "gave",
    "passwords",
    "affairs",
    "cleaned",
    "list",
    "found",
    "hidden",
    "took",
    "imagining",
    // distress vocabulary
    "hopeless",
    "worthless",
    "empty",
    "numb",
    "exhausted",
    "trapped",
    "broken",
    "alone",
    "lonely",
    "crying",
    "cried",
    "tired",
    "drained",
    "hollow",
    "overwhelmed",
    "therapy",
    "meds",
    "depressed",
    "depression",
    "anxious",
    "anxiety",
    "burned",
    "invisible",
    // support-seeking vocabulary
    "help",
    "support",
    "warning",
    "signs",
    "worried",
    "terrified",
    "safe",
    "crisis",
];

/// Minimum lexicon hits for a post to count as on-topic.
pub const MIN_HITS: usize = 1;

/// Whether one token is a [`THEME_LEXICON`] term: a hashed lookup keyed on
/// the token's first byte, whose bucket (built on first use) holds the few
/// terms that start with it.
pub fn is_theme_term(token: &str) -> bool {
    static BY_FIRST_BYTE: OnceLock<Vec<Vec<&'static str>>> = OnceLock::new();
    let buckets = BY_FIRST_BYTE.get_or_init(|| {
        let mut buckets = vec![Vec::new(); 256];
        for term in THEME_LEXICON {
            buckets[usize::from(term.as_bytes()[0])].push(*term);
        }
        buckets
    });
    token
        .as_bytes()
        .first()
        .is_some_and(|&b| buckets[usize::from(b)].contains(&token))
}

/// Number of lexicon hits in a cleaned text.
pub fn theme_hits(cleaned: &str) -> usize {
    tokens(cleaned).filter(|t| is_theme_term(t)).count()
}

/// Relevance decision for one cleaned post body.
pub fn is_relevant(cleaned: &str) -> bool {
    theme_hits(cleaned) >= MIN_HITS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsd_corpus::lexicon::OFF_TOPIC_SENTENCES;
    use rsd_corpus::textgen::{render_post, TextGenConfig};
    use rsd_corpus::RiskLevel;

    #[test]
    fn crisis_posts_are_relevant() {
        assert!(is_relevant("i want to end it all i feel hopeless"));
        assert!(is_relevant("my brother attempted and i am terrified"));
    }

    #[test]
    fn off_topic_bank_is_irrelevant() {
        for s in OFF_TOPIC_SENTENCES {
            assert!(!is_relevant(s), "off-topic sentence flagged relevant: {s}");
        }
    }

    #[test]
    fn hits_counted_per_token() {
        assert_eq!(theme_hits("suicide suicide help"), 3);
        assert_eq!(theme_hits("nothing here matches"), 0);
    }

    #[test]
    fn sorted_lookup_agrees_with_lexicon_scan() {
        let sentences = [
            "i want to end it all i feel hopeless",
            "my brother attempted and i am terrified",
            "suicide suicide help",
            "nothing here matches",
            "i want to die tonight",
        ];
        let near_misses = ["", "di", "dies", "helpful", "ends", "a", "zzz", "er's"];
        let tokens = THEME_LEXICON
            .iter()
            .copied()
            .chain(near_misses)
            .chain(sentences.iter().flat_map(|s| tokenize(s)))
            .chain(OFF_TOPIC_SENTENCES.iter().flat_map(|s| tokenize(s)));
        for t in tokens {
            assert_eq!(is_theme_term(t), THEME_LEXICON.contains(&t), "{t:?}");
        }
    }

    #[test]
    fn generated_on_topic_posts_mostly_pass() {
        // Recall against generator ground truth should be high; the frame
        // banks embed lexicon terms with high probability.
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = TextGenConfig::default();
        let mut pass = 0;
        let n = 400;
        for i in 0..n {
            let level = RiskLevel::ALL[i % 4];
            let body = render_post(level, 3.5, &cfg, &mut rng);
            let cleaned = crate::clean::clean_text(&body);
            if is_relevant(&cleaned) {
                pass += 1;
            }
        }
        let recall = pass as f64 / n as f64;
        assert!(recall > 0.9, "relevance recall too low: {recall}");
    }

    #[test]
    fn requires_clean_lowercase_input() {
        // The filter runs after cleaning; uppercase raw text would miss.
        assert!(!is_relevant("SUICIDE"));
        assert!(is_relevant(&crate::clean::clean_text("SUICIDE")));
    }
}
