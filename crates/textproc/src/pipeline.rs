//! The orchestrating preprocessing pipeline (paper §II-A2).
//!
//! Applies the paper's steps in order — clean, relevance-filter,
//! deduplicate, length-filter — over bodies supplied in chronological
//! order, and reports what was removed at each stage. The pipeline is
//! corpus-agnostic: it sees only text, never generator ground truth, so
//! its precision/recall can be honestly measured against that ground truth
//! by callers.
//!
//! There is one text path. [`Preprocessor::analyze`] cleans a body and
//! tokenizes the cleaned text once, which gives the canonical form (for
//! dedup), the token count (for the length filter) and the theme-lexicon
//! hits (for relevance). [`Preprocessor::settle`] then decides every
//! post's fate over the chronological stream: `ChronoDedup` finds
//! duplicates, and the stages apply in the paper's order. The streaming
//! build analyzes per shard and settles at its merge;
//! [`Preprocessor::run`] does both over one slice of bodies.

use serde::{Deserialize, Serialize};

use rsd_common::rng::fnv1a;

use crate::clean::clean_text;
use crate::dedup::ChronoDedup;
use crate::relevance::{is_theme_term, MIN_HITS};
use crate::tokenize::tokens;

/// Pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Preprocessor {
    /// Posts with fewer cleaned tokens than this are dropped as noise.
    pub min_tokens: usize,
    /// Whether to apply the relevance filter (step 1).
    pub filter_irrelevant: bool,
    /// Whether to apply duplicate removal (step 2).
    pub remove_duplicates: bool,
}

impl Default for Preprocessor {
    fn default() -> Self {
        Preprocessor {
            min_tokens: 3,
            filter_irrelevant: true,
            remove_duplicates: true,
        }
    }
}

/// Per-stage removal accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreprocessReport {
    /// Inputs seen.
    pub total: usize,
    /// Removed by the relevance filter.
    pub removed_irrelevant: usize,
    /// Removed as duplicates of an earlier post.
    pub removed_duplicates: usize,
    /// Removed for being shorter than `min_tokens` after cleaning.
    pub removed_too_short: usize,
    /// Survivors.
    pub kept: usize,
}

impl PreprocessReport {
    /// Add the totals to the `textproc.posts_*` counters.
    fn record_counters(&self) {
        rsd_obs::counter_add("textproc.posts_in", self.total as u64);
        rsd_obs::counter_add("textproc.posts_kept", self.kept as u64);
        rsd_obs::counter_add(
            "textproc.posts_removed",
            (self.removed_irrelevant + self.removed_duplicates + self.removed_too_short) as u64,
        );
    }
}

/// Result of preprocessing a slice of bodies.
#[derive(Debug, Clone)]
pub struct PreprocessOutcome {
    /// Cleaned text for every input (including removed ones, for audit).
    pub cleaned: Vec<String>,
    /// `keep[i]` — post `i` survived all filters.
    pub keep: Vec<bool>,
    /// Stage accounting.
    pub report: PreprocessReport,
}

/// Everything the pipeline derives for a single post, minus the dedup
/// decision — that one needs cross-post chronological context, which
/// [`Preprocessor::settle`] has.
#[derive(Debug, Clone)]
pub struct PostAnalysis {
    /// The cleaned body.
    pub cleaned: String,
    /// Canonical (token-joined) form used for duplicate comparison.
    pub canon: String,
    /// Passes the relevance filter (always `true` when the filter is
    /// disabled).
    pub relevant: bool,
    /// Cleaned token count.
    pub tokens: usize,
}

impl Preprocessor {
    /// Run the pipeline over raw bodies (chronological order expected: the
    /// dedup stage keeps first occurrences). Accepts any string-like
    /// slice, so callers can pass borrowed bodies without cloning the
    /// corpus. Each body goes through [`Preprocessor::analyze`], and the
    /// whole slice through [`Preprocessor::settle`], the steps the
    /// streaming build runs per shard and at its merge.
    pub fn run<S: AsRef<str>>(&self, raw_bodies: &[S]) -> PreprocessOutcome {
        let _pipeline = rsd_obs::Span::enter("textproc.pipeline");
        let analyses: Vec<PostAnalysis> = {
            let _s = rsd_obs::Span::enter("textproc.pipeline.analyze");
            raw_bodies
                .iter()
                .map(|b| self.analyze(b.as_ref()))
                .collect()
        };
        let (keep, report) = {
            let _s = rsd_obs::Span::enter("textproc.pipeline.dedup");
            self.settle(&analyses, |a| (a.canon.as_str(), a.relevant, a.tokens))
        };
        PreprocessOutcome {
            cleaned: analyses.into_iter().map(|a| a.cleaned).collect(),
            keep,
            report,
        }
    }

    /// Decide every post's fate over a chronological slice. `parts` gives
    /// a post's canonical form, relevance verdict and cleaned token count
    /// (see [`PostAnalysis`]). Dedup runs over all posts, irrelevant ones
    /// included, so a relevant repost of a removed original is still
    /// caught; each post then falls to the first stage that removes it,
    /// in the paper's order relevance → dedup → length. Returns the keep
    /// flags and the removal accounting, whose totals are also added to
    /// the `textproc.posts_*` counters.
    pub fn settle<T>(
        &self,
        posts: &[T],
        parts: impl Fn(&T) -> (&str, bool, usize),
    ) -> (Vec<bool>, PreprocessReport) {
        let mut report = PreprocessReport {
            total: posts.len(),
            ..Default::default()
        };
        let mut dedup = ChronoDedup::with_capacity(posts.len());
        let keep = posts
            .iter()
            .map(|post| {
                let (canon, relevant, tokens) = parts(post);
                let duplicate = self.remove_duplicates
                    && dedup
                        .push(fnv1a(canon.as_bytes()), |orig| {
                            parts(&posts[orig]).0 == canon
                        })
                        .is_some();
                let (kept, removals) = if !relevant {
                    (false, &mut report.removed_irrelevant)
                } else if duplicate {
                    (false, &mut report.removed_duplicates)
                } else if tokens < self.min_tokens {
                    (false, &mut report.removed_too_short)
                } else {
                    (true, &mut report.kept)
                };
                *removals += 1;
                kept
            })
            .collect();
        report.record_counters();
        (keep, report)
    }

    /// Analyze one raw body: clean it and precompute everything the keep
    /// decision needs except the (global, cross-post) dedup verdict.
    ///
    /// One tokenization of the cleaned text gives the canonical form, the
    /// token count and the relevance hits. Both returned strings carry no
    /// spare capacity, since the build keeps them past their shard.
    pub fn analyze(&self, raw_body: &str) -> PostAnalysis {
        let mut cleaned = clean_text(raw_body);
        cleaned.shrink_to_fit();
        let mut canon = String::with_capacity(cleaned.len());
        let mut n_tokens = 0;
        let mut hits = 0;
        for token in tokens(&cleaned) {
            if n_tokens > 0 {
                canon.push(' ');
            }
            canon.push_str(token);
            n_tokens += 1;
            hits += usize::from(is_theme_term(token));
        }
        canon.shrink_to_fit();
        PostAnalysis {
            cleaned,
            canon,
            relevant: !self.filter_irrelevant || hits >= MIN_HITS,
            tokens: n_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn report_accounts_for_every_removal() {
        let raw = bodies(&[
            "i want to end it all tonight",           // kept
            "patch notes nerfed my favorite loadout", // irrelevant
            "i want to end it all tonight",           // duplicate
            "suicide",                                // too short
        ]);
        let out = Preprocessor::default().run(&raw);
        assert_eq!(out.report.total, 4);
        assert_eq!(out.report.removed_irrelevant, 1);
        assert_eq!(out.report.removed_duplicates, 1);
        assert_eq!(out.report.removed_too_short, 1);
        assert_eq!(out.report.kept, 1);
        assert_eq!(out.keep, vec![true, false, false, false]);
    }

    #[test]
    fn stages_can_be_disabled() {
        let raw = bodies(&["the pizza place downtown finally reopened today"]);
        let pp = Preprocessor {
            filter_irrelevant: false,
            ..Default::default()
        };
        let out = pp.run(&raw);
        assert_eq!(out.report.kept, 1);
    }

    #[test]
    fn dedup_sees_noisy_variants() {
        let raw = bodies(&[
            "i wrote the note last night and i feel hopeless",
            "I wrote the note last night and i feel HOPELESS!! https://a.b/c",
        ]);
        let out = Preprocessor::default().run(&raw);
        assert_eq!(out.report.removed_duplicates, 1);
        assert_eq!(out.report.kept, 1);
    }

    #[test]
    fn empty_input() {
        let out = Preprocessor::default().run::<String>(&[]);
        assert_eq!(out.report, PreprocessReport::default());
        assert!(out.cleaned.is_empty());
    }

    #[test]
    fn run_accepts_borrowed_bodies() {
        let raw = ["i want to end it all tonight"];
        let owned = bodies(&raw);
        let from_borrowed = Preprocessor::default().run(&raw);
        let from_owned = Preprocessor::default().run(&owned);
        assert_eq!(from_borrowed.cleaned, from_owned.cleaned);
        assert_eq!(from_borrowed.keep, from_owned.keep);
        assert_eq!(from_borrowed.report, from_owned.report);
    }

    #[test]
    fn analyze_derives_canon_tokens_and_relevance_from_the_cleaned_text() {
        let pp = Preprocessor::default();
        let a = pp.analyze("I want to END it all... tonight!! https://a.b/c 'ok'");
        assert_eq!(a.cleaned, "i want to end it all. tonight. ok");
        assert_eq!(a.canon, "i want to end it all tonight ok");
        assert_eq!(a.tokens, 8);
        assert!(a.relevant, "\"end\" is a theme term");
        assert_eq!(a.cleaned.capacity(), a.cleaned.len());
        assert_eq!(a.canon.capacity(), a.canon.len());

        let off = pp.analyze("patch notes nerfed my favorite loadout");
        assert!(!off.relevant);
        let unfiltered = Preprocessor {
            filter_irrelevant: false,
            ..Default::default()
        };
        assert!(
            unfiltered
                .analyze("patch notes nerfed my favorite loadout")
                .relevant
        );
    }

    #[test]
    fn cleaned_retained_for_removed_posts() {
        let raw = bodies(&["selling my old graphics card dm me"]);
        let out = Preprocessor::default().run(&raw);
        assert!(!out.keep[0]);
        assert_eq!(out.cleaned[0], "selling my old graphics card dm me");
    }

    #[test]
    fn kept_sum_is_consistent() {
        let raw = bodies(&[
            "i survived my attempt last year and i am still here",
            "my fantasy league is an absolute disaster",
            "i survived my attempt last year and i am still here",
            "help",
            "i keep thinking about wanting to disappear for good",
        ]);
        let out = Preprocessor::default().run(&raw);
        let r = out.report;
        assert_eq!(
            r.total,
            r.kept + r.removed_irrelevant + r.removed_duplicates + r.removed_too_short
        );
    }
}
