//! English stopword list used by the word-frequency analyses (Figs. 2–3)
//! and optionally by the TF-IDF vectorizer.

/// A compact English stopword list: function words that carry no
//  class-discriminative content for the word-cloud figures.
pub(crate) const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "after",
    "again",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
    "im",
    "ive",
    "id",
    "dont",
    "cant",
    "wont",
    "didnt",
    "doesnt",
    "isnt",
    "wasnt",
    "couldnt",
    "shouldnt",
    "don't",
    "can't",
    "won't",
    "didn't",
    "doesn't",
    "isn't",
    "wasn't",
    "couldn't",
    "shouldn't",
    "i'm",
    "i've",
    "i'd",
    "it's",
    "that's",
];

/// Membership test (linear scan over a small static list is fine: the list
/// has ~150 entries and callers hit it once per token during figure
/// generation, not in any hot loop).
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.contains(&token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "i", "and", "don't", "i'm"] {
            assert!(is_stopword(w), "{w}");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["suicide", "hospital", "alone", "note", "pills"] {
            assert!(!is_stopword(w), "{w}");
        }
    }

    #[test]
    fn list_is_lowercase_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase());
            assert!(seen.insert(w), "duplicate stopword {w}");
        }
    }
}
