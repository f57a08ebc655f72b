//! Tokenization (paper §II-A2, step 4).
//!
//! Operates on *cleaned* text (see [`crate::clean`]): lowercase words with
//! optional intra-word apostrophes.

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
}
