//! Token vocabulary shared by the neural baselines.
//!
//! Maps tokens to dense ids with the four special tokens transformer-style
//! models need: `[PAD]` (batch padding), `[UNK]` (out-of-vocabulary),
//! `[CLS]` (sequence representation for classification) and `[MASK]`
//! (masked-language-model pretraining). Built from a token-frequency pass
//! with a minimum-count threshold and an optional size cap.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::tokenize::tokenize;
use rsd_common::{Result, RsdError};

/// The reserved special tokens, in id order (`[PAD]` = 0, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialToken {
    /// Padding token (id 0 — embeddings for it are masked out).
    Pad,
    /// Out-of-vocabulary token.
    Unk,
    /// Classification token prepended to sequences.
    Cls,
    /// Mask token for MLM pretraining.
    Mask,
}

impl SpecialToken {
    /// All special tokens, in id order.
    pub const ALL: [SpecialToken; 4] = [
        SpecialToken::Pad,
        SpecialToken::Unk,
        SpecialToken::Cls,
        SpecialToken::Mask,
    ];

    /// The id this special token always occupies.
    pub fn id(self) -> u32 {
        self as u32
    }

    /// Surface form (never produced by the tokenizer).
    pub(crate) fn surface(self) -> &'static str {
        match self {
            SpecialToken::Pad => "[PAD]",
            SpecialToken::Unk => "[UNK]",
            SpecialToken::Cls => "[CLS]",
            SpecialToken::Mask => "[MASK]",
        }
    }
}

/// An immutable token vocabulary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vocabulary {
    token_to_id: HashMap<String, u32>,
    id_to_token: Vec<String>,
}

impl Vocabulary {
    /// Build from an iterator of cleaned documents.
    ///
    /// Tokens appearing fewer than `min_count` times are dropped; if
    /// `max_size` is `Some`, only the most frequent tokens are kept (ties
    /// broken alphabetically for determinism). Special tokens are always
    /// present and never counted against `max_size`.
    pub fn build<'a, I>(docs: I, min_count: usize, max_size: Option<usize>) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut freq: HashMap<String, usize> = HashMap::new();
        for doc in docs {
            for tok in tokenize(doc) {
                *freq.entry(tok.to_string()).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<(String, usize)> = freq
            .into_iter()
            .filter(|(_, c)| *c >= min_count.max(1))
            .collect();
        // Sort by frequency descending then token ascending: deterministic.
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if let Some(cap) = max_size {
            entries.truncate(cap);
        }

        let mut id_to_token: Vec<String> = SpecialToken::ALL
            .iter()
            .map(|s| s.surface().to_string())
            .collect();
        id_to_token.extend(entries.into_iter().map(|(t, _)| t));

        let token_to_id = id_to_token
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();

        Vocabulary {
            token_to_id,
            id_to_token,
        }
    }

    /// Total size including special tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True if only the special tokens are present.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= SpecialToken::ALL.len()
    }

    /// Id for a token, falling back to `[UNK]`.
    pub fn id(&self, token: &str) -> u32 {
        self.token_to_id
            .get(token)
            .copied()
            .unwrap_or(SpecialToken::Unk.id())
    }

    /// Token for an id.
    pub fn token(&self, id: u32) -> Result<&str> {
        self.id_to_token
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| RsdError::not_found("token id", id))
    }

    /// Encode a cleaned document to ids (no specials added).
    pub fn encode(&self, cleaned: &str) -> Vec<u32> {
        tokenize(cleaned).iter().map(|t| self.id(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<&'static str> {
        vec![
            "i want to end it all",
            "i want to sleep",
            "end it end it",
            "rare",
        ]
    }

    #[test]
    fn specials_occupy_fixed_ids() {
        let v = Vocabulary::build(docs(), 1, None);
        assert_eq!(v.id("[PAD]"), 0);
        assert_eq!(v.token(0).unwrap(), "[PAD]");
        assert_eq!(v.token(1).unwrap(), "[UNK]");
        assert_eq!(v.token(2).unwrap(), "[CLS]");
        assert_eq!(v.token(3).unwrap(), "[MASK]");
    }

    #[test]
    fn min_count_filters() {
        let v = Vocabulary::build(docs(), 2, None);
        assert_eq!(v.id("rare"), SpecialToken::Unk.id());
        assert_ne!(v.id("want"), SpecialToken::Unk.id());
    }

    #[test]
    fn max_size_caps_by_frequency() {
        let v = Vocabulary::build(docs(), 1, Some(2));
        assert_eq!(v.len(), 4 + 2);
        // "it" (3) and "end" (3) are the most frequent.
        assert_ne!(v.id("it"), SpecialToken::Unk.id());
        assert_ne!(v.id("end"), SpecialToken::Unk.id());
        assert_eq!(v.id("want"), SpecialToken::Unk.id());
    }

    #[test]
    fn encode_round_trips_known_tokens() {
        let v = Vocabulary::build(docs(), 1, None);
        let ids = v.encode("i want to sleep");
        let toks: Vec<&str> = ids.iter().map(|&i| v.token(i).unwrap()).collect();
        assert_eq!(toks, vec!["i", "want", "to", "sleep"]);
    }

    #[test]
    fn deterministic_ids() {
        let a = Vocabulary::build(docs(), 1, None);
        let b = Vocabulary::build(docs(), 1, None);
        for tok in ["i", "want", "end", "it"] {
            assert_eq!(a.id(tok), b.id(tok));
        }
    }
}
