//! Tokenization and sentence segmentation (paper §II-A2, step 4).
//!
//! Operates on *cleaned* text (see [`crate::clean`]): lowercase words with
//! optional intra-word apostrophes, sentences delimited by single periods.

/// The word tokens of cleaned text, in order, without allocating. Every
/// tokenizer in this crate is this one scan.
pub(crate) fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '\''))
        .map(|t| t.trim_matches('\''))
        .filter(|t| !t.is_empty())
}

/// Split cleaned text into word tokens. Apostrophes are kept inside words
/// (`don't`), periods and any residual non-alphanumerics split tokens.
pub fn tokenize(text: &str) -> Vec<&str> {
    tokens(text).collect()
}

/// Split cleaned text into sentences on `.` boundaries, trimming whitespace
/// and dropping empties.
pub fn sentences(text: &str) -> Vec<&str> {
    text.split('.')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Count tokens without allocating the token vector.
pub fn token_count(text: &str) -> usize {
    tokens(text).count()
}

/// Iterator over word n-grams (as joined strings) of the given order.
pub fn ngrams(tokens: &[&str], n: usize) -> Vec<String> {
    if n == 0 || tokens.len() < n {
        return Vec::new();
    }
    tokens.windows(n).map(|w| w.join(" ")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize("i want to end it all."),
            vec!["i", "want", "to", "end", "it", "all"]
        );
    }

    #[test]
    fn apostrophes_stay_in_words() {
        assert_eq!(tokenize("don't stop"), vec!["don't", "stop"]);
        assert_eq!(tokenize("'quoted'"), vec!["quoted"]);
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("...").is_empty());
    }

    #[test]
    fn sentence_split() {
        assert_eq!(
            sentences("first one. second one. "),
            vec!["first one", "second one"]
        );
        assert!(sentences("").is_empty());
    }

    #[test]
    fn token_count_matches_tokenize() {
        for text in ["a b c", "don't. stop me now.", "", "..", "one"] {
            assert_eq!(token_count(text), tokenize(text).len(), "{text:?}");
        }
    }

    #[test]
    fn bigrams() {
        let toks = tokenize("i want to die");
        assert_eq!(ngrams(&toks, 2), vec!["i want", "want to", "to die"]);
        assert!(ngrams(&toks, 5).is_empty());
        assert!(ngrams(&toks, 0).is_empty());
    }
}
