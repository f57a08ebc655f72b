//! The one-pass analyzer against the staged pipeline it replaced.
//!
//! `oracle` below is a test-local copy of the original cleaning,
//! canonicalization, relevance and token-count functions, which allocated
//! one `String` per word and tokenized the cleaned text three times, and
//! of the original batch `Preprocessor::run`, which ran the stages one
//! after another over the whole batch. [`Preprocessor::analyze`],
//! [`Preprocessor::run`] and the public wrappers must agree with them on
//! random strings and on generated corpora.
//!
//! The random strings are drawn from pieces that stress each decision:
//! ASCII (control characters included), `İ` (it lowercases to two chars,
//! one of them not alphanumeric), `ß`, `’`, `٣`, NBSP, EM SPACE, NEL, tab
//! and newline, URLs bare and wrapped in punctuation, punctuation runs
//! and apostrophe-only tokens.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsd_corpus::textgen::{render_post, TextGenConfig};
use rsd_corpus::{CorpusConfig, CorpusGenerator, RiskLevel};
use rsd_text::dedup::canonical;
use rsd_text::relevance::{is_relevant, theme_hits};
use rsd_text::tokenize::token_count;
use rsd_text::{clean_text, tokenize, PreprocessReport, Preprocessor};

mod oracle {
    use std::collections::HashMap;

    use rsd_common::rng::fnv1a;
    use rsd_text::relevance::{MIN_HITS, THEME_LEXICON};
    use rsd_text::{PreprocessReport, Preprocessor};

    pub fn clean_text(raw: &str) -> String {
        let mut out = String::with_capacity(raw.len());
        for token in raw.split_whitespace() {
            if is_url(token) {
                continue;
            }
            let cleaned = clean_token(token);
            if cleaned.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&cleaned);
        }
        out
    }

    fn is_url(token: &str) -> bool {
        let t = token.trim_matches(|c: char| c.is_ascii_punctuation());
        token.starts_with("http://")
            || token.starts_with("https://")
            || token.starts_with("www.")
            || t.starts_with("http://")
            || t.starts_with("https://")
            || t.starts_with("www.")
    }

    fn clean_token(token: &str) -> String {
        let mut cleaned = String::with_capacity(token.len());
        let mut saw_terminal = false;
        for ch in token.chars() {
            if ch.is_alphanumeric() {
                for lower in ch.to_lowercase() {
                    cleaned.push(lower);
                }
                saw_terminal = false;
            } else if ch == '\'' || ch == '’' {
                if cleaned.ends_with(|c: char| c.is_alphanumeric()) {
                    cleaned.push('\'');
                }
            } else if matches!(ch, '.' | '!' | '?') {
                saw_terminal = true;
            }
        }
        while cleaned.ends_with('\'') {
            cleaned.pop();
        }
        if saw_terminal && !cleaned.is_empty() {
            cleaned.push('.');
        }
        cleaned
    }

    pub fn tokenize(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_alphanumeric() || c == '\''))
            .map(|t| t.trim_matches('\''))
            .filter(|t| !t.is_empty())
            .collect()
    }

    pub fn canonical(cleaned: &str) -> String {
        tokenize(cleaned).join(" ")
    }

    pub fn theme_hits(cleaned: &str) -> usize {
        tokenize(cleaned)
            .into_iter()
            .filter(|t| THEME_LEXICON.contains(t))
            .count()
    }

    pub fn is_relevant(cleaned: &str) -> bool {
        theme_hits(cleaned) >= MIN_HITS
    }

    pub fn token_count(text: &str) -> usize {
        text.split(|c: char| !(c.is_alphanumeric() || c == '\''))
            .filter(|t| !t.trim_matches('\'').is_empty())
            .count()
    }

    fn find_duplicates(cleaned_bodies: &[String]) -> Vec<Option<usize>> {
        let mut first_seen: HashMap<u64, usize> = HashMap::new();
        let canon: Vec<String> = cleaned_bodies.iter().map(|b| canonical(b)).collect();
        canon
            .iter()
            .enumerate()
            .map(|(i, body)| match first_seen.get(&fnv1a(body.as_bytes())) {
                Some(&orig) if canon[orig] == *body => Some(orig),
                _ => {
                    first_seen.entry(fnv1a(body.as_bytes())).or_insert(i);
                    None
                }
            })
            .collect()
    }

    /// The staged batch pipeline: clean all, then relevance, dedup and
    /// length filters in turn.
    pub fn run<S: AsRef<str>>(
        pp: &Preprocessor,
        raw_bodies: &[S],
    ) -> (Vec<String>, Vec<bool>, PreprocessReport) {
        let cleaned: Vec<String> = raw_bodies.iter().map(|b| clean_text(b.as_ref())).collect();
        let mut keep = vec![true; cleaned.len()];
        let mut report = PreprocessReport {
            total: cleaned.len(),
            ..Default::default()
        };
        if pp.filter_irrelevant {
            for (i, c) in cleaned.iter().enumerate() {
                if keep[i] && !is_relevant(c) {
                    keep[i] = false;
                    report.removed_irrelevant += 1;
                }
            }
        }
        if pp.remove_duplicates {
            for (i, dup) in find_duplicates(&cleaned).iter().enumerate() {
                if keep[i] && dup.is_some() {
                    keep[i] = false;
                    report.removed_duplicates += 1;
                }
            }
        }
        for (i, c) in cleaned.iter().enumerate() {
            if keep[i] && token_count(c) < pp.min_tokens {
                keep[i] = false;
                report.removed_too_short += 1;
            }
        }
        report.kept = keep.iter().filter(|&&k| k).count();
        (cleaned, keep, report)
    }
}

/// Pieces the random strings are built from, besides single ASCII chars.
const PIECES: &[&str] = &[
    // Non-ASCII letters, digits and apostrophes.
    "İ",
    "ß",
    "’",
    "٣",
    "É",
    "ǅ",
    // Non-ASCII and ASCII whitespace.
    "\u{a0}",
    "\u{2003}",
    "\u{85}",
    "\t",
    "\n",
    " ",
    " ",
    // URLs, bare and wrapped in punctuation.
    "https://imgur.com/a/123",
    "http://x.y/z",
    "www.example.com",
    "(https://a.b/c)",
    "\"www.x.org\",",
    "<http://q.r>.",
    "https://",
    "www.",
    ".www.a",
    // Punctuation runs.
    "!!!",
    "...",
    "?!",
    "~~",
    "####",
    "--",
    ",,",
    // Apostrophe-only tokens and apostrophes in words.
    "'",
    "''",
    "'''",
    "’’",
    "don't",
    "end'",
    "'quoted'",
    "o'clock",
    // Words, theme terms among them, in several casings.
    "I",
    "SUICIDE",
    "help",
    "Hopeless",
    "die",
    "end",
    "note",
    "hello",
    "x1",
    "42",
];

/// Build a string from piece indices: below 128 an ASCII char, else a
/// [`PIECES`] entry.
fn assemble(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| match u8::try_from(i) {
            Ok(b) if b < 128 => char::from(b).to_string(),
            _ => PIECES[i - 128].to_string(),
        })
        .collect()
}

fn piece_strategy() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0usize..128 + PIECES.len(), 0..40)
}

/// `analyze` and every public wrapper must agree with the oracle on `raw`.
fn check_against_oracle(raw: &str) -> Result<(), String> {
    let cleaned = oracle::clean_text(raw);
    let canon = oracle::canonical(&cleaned);
    let tokens = oracle::token_count(&cleaned);

    let filtered = Preprocessor::default().analyze(raw);
    prop_assert_eq!(&filtered.cleaned, &cleaned);
    prop_assert_eq!(&filtered.canon, &canon);
    prop_assert_eq!(filtered.tokens, tokens);
    prop_assert_eq!(filtered.relevant, oracle::is_relevant(&cleaned));
    let unfiltered = Preprocessor {
        filter_irrelevant: false,
        ..Default::default()
    }
    .analyze(raw);
    prop_assert!(unfiltered.relevant);
    prop_assert_eq!(&unfiltered.cleaned, &cleaned);

    prop_assert_eq!(clean_text(raw), cleaned.clone());
    prop_assert_eq!(canonical(&cleaned), canon.clone());
    prop_assert_eq!(tokenize(&cleaned), oracle::tokenize(&cleaned));
    prop_assert_eq!(token_count(&cleaned), tokens);
    prop_assert_eq!(theme_hits(&cleaned), oracle::theme_hits(&cleaned));
    prop_assert_eq!(is_relevant(&cleaned), oracle::is_relevant(&cleaned));
    // The wrappers also take text that was never cleaned.
    prop_assert_eq!(canonical(raw), oracle::canonical(raw));
    prop_assert_eq!(token_count(raw), oracle::token_count(raw));
    prop_assert_eq!(theme_hits(raw), oracle::theme_hits(raw));
    Ok(())
}

/// The four stage switches of the pipeline.
fn preprocessors() -> Vec<Preprocessor> {
    let mut out = Vec::new();
    for filter_irrelevant in [true, false] {
        for remove_duplicates in [true, false] {
            out.push(Preprocessor {
                filter_irrelevant,
                remove_duplicates,
                ..Default::default()
            });
        }
    }
    out
}

fn check_run_against_oracle<S: AsRef<str>>(bodies: &[S]) -> Result<(), String> {
    for pp in preprocessors() {
        let got = pp.run(bodies);
        let (cleaned, keep, report): (Vec<String>, Vec<bool>, PreprocessReport) =
            oracle::run(&pp, bodies);
        prop_assert_eq!(&got.cleaned, &cleaned);
        prop_assert_eq!(&got.keep, &keep);
        prop_assert_eq!(got.report, report);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    #[test]
    fn analyze_matches_the_oracle_on_random_strings(indices in piece_strategy()) {
        check_against_oracle(&assemble(&indices))?;
    }

    #[test]
    fn analyze_matches_the_oracle_on_ascii_strings(raw in ".{0,120}") {
        let ascii: String = raw.chars().map(|c| char::from((c as u32 % 128) as u8)).collect();
        check_against_oracle(&ascii)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Batches drawn with repetition from a few random strings, so the
    /// dedup stage has duplicates and near-duplicates to find.
    #[test]
    fn run_matches_the_staged_oracle_on_random_batches(
        pool in collection::vec(piece_strategy(), 1..6),
        picks in collection::vec(0usize..6, 0..24),
    ) {
        let strings: Vec<String> = pool.iter().map(|p| assemble(p)).collect();
        let bodies: Vec<&str> = picks
            .iter()
            .map(|&i| strings[i % strings.len()].as_str())
            .collect();
        check_run_against_oracle(&bodies)?;
    }
}

#[test]
fn analyze_matches_the_oracle_on_rendered_posts() {
    let cfg = TextGenConfig::default();
    let mut rng = StdRng::seed_from_u64(2026);
    for i in 0..20_000 {
        let level = RiskLevel::ALL[i % 4];
        let body = render_post(level, 1.0 + (i % 6) as f64, &cfg, &mut rng);
        if let Err(msg) = check_against_oracle(&body) {
            panic!("post {i} {body:?}: {msg}");
        }
    }
}

#[test]
fn run_matches_the_staged_oracle_on_generated_corpora() {
    // Generated corpora carry reposts and off-topic posts, so every stage
    // removes something.
    for seed in [1, 7, 2026] {
        let corpus = CorpusGenerator::new(CorpusConfig::small(seed, 300))
            .unwrap()
            .generate();
        let bodies: Vec<&str> = corpus.posts.iter().map(|p| p.body.as_str()).collect();
        let report = Preprocessor::default().run(&bodies).report;
        assert!(report.removed_irrelevant > 0 && report.removed_duplicates > 0);
        if let Err(msg) = check_run_against_oracle(&bodies) {
            panic!("seed {seed}: {msg}");
        }
    }
}
