//! Duplicate removal (paper §II-A2, step 2).
//!
//! Duplicates are detected on *normalized* bodies (cleaned text), so a
//! repost that differs only in injected noise — an extra link, punctuation
//! runs, casing — still collapses onto its original. First occurrence (by
//! supplied order, which the pipeline keeps chronological) wins.

use std::collections::HashMap;

use crate::tokenize::tokenize;

/// Canonical form used for duplicate comparison: the token stream joined by
/// single spaces, so residual punctuation differences don't defeat dedup.
pub fn canonical(cleaned: &str) -> String {
    tokenize(cleaned).join(" ")
}

/// Incremental first-occurrence detector over a chronological stream.
///
/// Items are pushed in chronological order, each with its canonical-form
/// fingerprint and an equality probe used as the hash collision guard.
/// [`Preprocessor::settle`](crate::Preprocessor::settle) decides
/// duplicates through it, including the collision corner case (a
/// colliding-but-different body is kept and does **not** displace the
/// first-seen index for that fingerprint).
#[derive(Debug, Default)]
pub struct ChronoDedup {
    first_seen: HashMap<u64, usize>,
    next: usize,
}

impl ChronoDedup {
    /// Empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty detector with pre-sized table.
    pub fn with_capacity(n: usize) -> Self {
        ChronoDedup {
            first_seen: HashMap::with_capacity(n),
            next: 0,
        }
    }

    /// Record the next item (index assigned in push order). `fp` is its
    /// canonical-form fingerprint; `same_as(orig)` must report whether the
    /// item's canonical form equals that of the earlier item `orig`.
    /// Returns `Some(first_index)` if the item duplicates an earlier one.
    pub fn push(&mut self, fp: u64, same_as: impl FnOnce(usize) -> bool) -> Option<usize> {
        let idx = self.next;
        self.next += 1;
        match self.first_seen.get(&fp) {
            // Hash collision guard: verify actual equality before marking.
            Some(&orig) if same_as(orig) => Some(orig),
            _ => {
                self.first_seen.entry(fp).or_insert(idx);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_common::rng::fnv1a;

    /// For each cleaned body in order, `Some(first_index)` if it duplicates
    /// an earlier one.
    fn find_duplicates<S: AsRef<str>>(cleaned: &[S]) -> Vec<Option<usize>> {
        let canon: Vec<String> = cleaned.iter().map(|b| canonical(b.as_ref())).collect();
        let mut dedup = ChronoDedup::with_capacity(canon.len());
        canon
            .iter()
            .map(|body| dedup.push(fnv1a(body.as_bytes()), |orig| canon[orig] == *body))
            .collect()
    }

    #[test]
    fn exact_duplicates_found() {
        let bodies = ["a b c", "d e f", "a b c", "a b c"];
        assert_eq!(find_duplicates(&bodies), vec![None, None, Some(0), Some(0)]);
    }

    #[test]
    fn no_duplicates_all_none() {
        let bodies = ["one", "two", "three"];
        assert!(find_duplicates(&bodies).iter().all(Option::is_none));
    }

    #[test]
    fn first_occurrence_wins() {
        let bodies = ["x", "x", "x"];
        assert_eq!(find_duplicates(&bodies), vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn empty_input() {
        assert!(find_duplicates::<&str>(&[]).is_empty());
    }

    #[test]
    fn chrono_dedup_matches_batch_semantics_on_collisions() {
        // Two distinct bodies sharing a fingerprint: the second survives
        // and must NOT displace the first-seen index, so a later true
        // duplicate of the first body still maps to index 0.
        let mut d = ChronoDedup::new();
        let canon = ["alpha", "beta", "alpha"];
        let shared_fp = 42u64;
        assert_eq!(d.push(shared_fp, |o| canon[o] == canon[0]), None);
        assert_eq!(d.push(shared_fp, |o| canon[o] == canon[1]), None);
        assert_eq!(d.push(shared_fp, |o| canon[o] == canon[2]), Some(0));
    }

    #[test]
    fn normalization_makes_noisy_reposts_collapse() {
        use crate::clean::clean_text;
        let original = "i wrote the note last night. nobody noticed.";
        let noisy_repost = "I wrote the note last night!! nobody noticed. https://x.y/z";
        let bodies = [clean_text(original), clean_text(noisy_repost)];
        assert_eq!(find_duplicates(&bodies), vec![None, Some(0)]);
    }
}
