//! The per-post part of the window features: everything the window
//! combiner reads from one post, computed from a single tokenization.
//!
//! A post sits in up to `window` windows (one per later post of its user,
//! in the post-level view, and once per served request while it stays in
//! the user's window), so the extractor prepares it once and every window
//! it belongs to combines the prepared posts.

use rsd_common::rng::fnv1a;
use rsd_text::relevance::is_theme_term;
use rsd_text::{tokenize, SparseVec, TfIdfVectorizer};

/// Negation markers surviving the cleaning pipeline.
const NEGATIONS: &[&str] = &["not", "never", "no", "don't", "cannot", "can't", "won't"];

/// A post prepared once for the window combiner: everything the combiner
/// reads from it, from one tokenization. It keeps no copy of the text.
#[derive(Debug, Clone, Default)]
pub struct PreparedPost {
    /// Token count.
    pub(crate) tokens: usize,
    /// First-person pronoun tokens.
    pub(crate) first_person: usize,
    /// Negation tokens.
    pub(crate) negations: usize,
    /// Theme-lexicon tokens.
    pub(crate) theme_hits: usize,
    /// FNV-1a hash of each distinct token, in the order of `distinct`.
    hashes: Box<[u64]>,
    /// The distinct tokens, sorted by `(hash, token)`, each followed by a
    /// space (tokens never contain one).
    distinct: Box<str>,
    /// L2-normalized TF-IDF row.
    pub(crate) tfidf: SparseVec,
}

impl PreparedPost {
    /// Prepare `text` (cleaned) against a fitted vectorizer.
    pub(crate) fn new(text: &str, tfidf: &TfIdfVectorizer) -> PreparedPost {
        let tokens = tokenize(text);
        let first_person = tokens
            .iter()
            .filter(|t| matches!(**t, "i" | "me" | "my" | "myself" | "i'm" | "i've"))
            .count();
        let negations = tokens.iter().filter(|t| NEGATIONS.contains(*t)).count();
        let theme_hits = tokens.iter().filter(|t| is_theme_term(t)).count();
        let row = tfidf.transform_tokens(&tokens);

        // The union and Jaccard counts need one order shared by all posts;
        // hash first makes most of their comparisons integer ones.
        let mut sorted: Vec<(u64, &str)> =
            tokens.iter().map(|t| (fnv1a(t.as_bytes()), *t)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut distinct = String::with_capacity(sorted.iter().map(|(_, t)| t.len() + 1).sum());
        for (_, t) in &sorted {
            distinct.push_str(t);
            distinct.push(' ');
        }
        PreparedPost {
            tokens: tokens.len(),
            first_person,
            negations,
            theme_hits,
            hashes: sorted.iter().map(|&(h, _)| h).collect(),
            distinct: distinct.into_boxed_str(),
            tfidf: row,
        }
    }

    /// Number of distinct tokens.
    fn n_distinct(&self) -> usize {
        self.hashes.len()
    }

    /// The distinct tokens with their hashes, in `(hash, token)` order.
    fn distinct_keys(&self) -> impl Iterator<Item = (u64, &str)> {
        self.hashes
            .iter()
            .copied()
            .zip(self.distinct.split_terminator(' '))
    }
}

/// Size of the union of the posts' distinct-token sets. Sorting the
/// `(hash, token)` keys compares strings only where hashes are equal, so
/// the count is exact even if two tokens share a hash.
pub(crate) fn distinct_union_len(posts: &[&PreparedPost]) -> usize {
    let mut keys: Vec<(u64, &str)> = posts.iter().flat_map(|p| p.distinct_keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Token-set Jaccard similarity of two posts; 0 when both are empty.
pub(crate) fn jaccard(a: &PreparedPost, b: &PreparedPost) -> f64 {
    let (na, nb) = (a.n_distinct(), b.n_distinct());
    if na == 0 && nb == 0 {
        return 0.0;
    }
    let (mut xs, mut ys) = (a.distinct_keys(), b.distinct_keys());
    let (mut x, mut y, mut inter) = (xs.next(), ys.next(), 0usize);
    while let (Some(p), Some(q)) = (x, y) {
        match p.cmp(&q) {
            std::cmp::Ordering::Less => x = xs.next(),
            std::cmp::Ordering::Greater => y = ys.next(),
            std::cmp::Ordering::Equal => {
                inter += 1;
                x = xs.next();
                y = ys.next();
            }
        }
    }
    inter as f64 / (na + nb - inter) as f64
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Prepare `texts` against a one-term vectorizer (for tests of the
    /// dense blocks, which never read the TF-IDF row).
    pub fn prepared(texts: &[&str]) -> Vec<PreparedPost> {
        let tfidf = TfIdfVectorizer::fit(["x"], 1, None).unwrap();
        texts.iter().map(|t| PreparedPost::new(t, &tfidf)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::prepared;
    use super::*;

    #[test]
    fn counts_come_from_one_tokenization() {
        let texts = ["i never said i'm fine. not dying, don't ask 'me'"];
        let p = &prepared(&texts)[0];
        assert_eq!(p.tokens, 10);
        assert_eq!(p.first_person, 3, "i, i'm, me");
        assert_eq!(p.negations, 3, "never, not, don't");
        assert_eq!(p.theme_hits, 1, "dying");
    }

    #[test]
    fn distinct_tokens_are_unique_and_hashed() {
        let p = &prepared(&["b a b 'c' a"])[0];
        assert_eq!(p.n_distinct(), 3);
        let mut tokens: Vec<&str> = p.distinct_keys().map(|(_, t)| t).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, ["a", "b", "c"]);
        assert!(p.distinct_keys().all(|(h, t)| h == fnv1a(t.as_bytes())));
    }

    #[test]
    fn union_and_jaccard_count_sets() {
        let p = prepared(&["a b c", "b c d d", "", "''"]);
        let v: Vec<&PreparedPost> = p.iter().collect();
        assert_eq!(distinct_union_len(&v), 4);
        assert_eq!(distinct_union_len(&v[2..]), 0);
        assert_eq!(distinct_union_len(&[]), 0);
        assert!((jaccard(v[0], v[1]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(v[2], v[3]), 0.0);
        assert_eq!(jaccard(v[0], v[2]), 0.0);
    }
}
