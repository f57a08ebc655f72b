//! Committed feature digest: the extractor is fitted on a smoke-scale
//! dataset and every post-level window of every user is featurized; an
//! FNV-1a hash over the bits of all those rows must equal a committed
//! constant, under forced-serial execution and under a 4-thread pool
//! alike. Any change to tokenization, the text or sequence statistics, the
//! TF-IDF row or the window combiner that moves a single bit fails here.
//!
//! A property test then checks the streaming entry point against the
//! whole-window feature functions the extractor was first written as
//! (kept below as a test-local oracle), on generated windows that include
//! empty posts, apostrophe-only tokens, repeated tokens and 1-post windows.

use proptest::prelude::*;
use rsd_common::stats::{linear_trend, mean, std_dev};
use rsd_common::Timestamp;
use rsd_dataset::splits::post_level_windows;
use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, Rsd15k, SplitConfig, UserWindow};
use rsd_features::{time_features, FeatureExtractor};
use rsd_text::relevance::theme_hits;
use rsd_text::tokenize;
use rsd_text::tokenize::token_count;

/// FNV-1a over 32-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn fixture() -> (Rsd15k, FeatureExtractor, Vec<UserWindow>) {
    let (dataset, _) = DatasetBuilder::new(BuildConfig::scaled(501, 2_500, 40))
        .build()
        .unwrap();
    let splits = DatasetSplits::new(&dataset, SplitConfig::default()).unwrap();
    let extractor = FeatureExtractor::fit(&dataset, &splits.train, 100).unwrap();
    let windows: Vec<UserWindow> = dataset
        .users
        .iter()
        .flat_map(|u| post_level_windows(&dataset, u, splits.config.window, usize::MAX))
        .collect();
    (dataset, extractor, windows)
}

fn rows_digest(rows: &[Vec<f32>]) -> u64 {
    let mut d = Digest::new();
    d.word(rows.len() as u32);
    for row in rows {
        d.word(row.len() as u32);
        for x in row {
            d.word(x.to_bits());
        }
    }
    d.0
}

const FEATURE_DIGEST: u64 = 0x79aa_cb16_9d8a_1cfa;

#[test]
fn post_level_rows_match_committed_digest() {
    let (dataset, extractor, windows) = fixture();
    assert!(windows.len() > 4 * 64, "{} windows", windows.len());
    for (what, rows) in [
        (
            "serial",
            rsd_par::run_serial(|| extractor.transform_all(&dataset, &windows)),
        ),
        (
            "4-thread pool",
            rsd_par::with_local_pool(4, || extractor.transform_all(&dataset, &windows)),
        ),
    ] {
        let got = rows_digest(&rows);
        assert_eq!(
            got, FEATURE_DIGEST,
            "{what}: feature digest moved: {got:#018x}"
        );
    }
}

/// The streaming entry point gives the batch rows for the same windows.
#[test]
fn stream_rows_equal_batch_rows() {
    let (dataset, extractor, windows) = fixture();
    let batch = extractor.transform_all(&dataset, &windows);
    let mut row = Vec::new();
    for (w, expect) in windows.iter().zip(&batch) {
        let texts: Vec<&str> = w
            .post_indices
            .iter()
            .map(|&i| dataset.posts[i].text.as_str())
            .collect();
        let user = dataset.users.iter().find(|u| u.id == w.user).unwrap();
        extractor.transform_stream_into(&texts, &w.timestamps, user.post_indices.len(), &mut row);
        assert_eq!(bits(&row), bits(expect));
    }
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|x| x.to_bits()).collect()
}

// ---- Oracle: the whole-window text and sequence features -------------

const NEGATIONS: &[&str] = &["not", "never", "no", "don't", "cannot", "can't", "won't"];

fn oracle_text_features_into(texts: &[&str], out: &mut Vec<f32>) {
    let token_lists: Vec<Vec<&str>> = texts.iter().map(|t| tokenize(t)).collect();
    let lens: Vec<f64> = token_lists.iter().map(|t| t.len() as f64).collect();
    let len_mean = mean(&lens);
    let len_last = lens.last().copied().unwrap_or(0.0);
    let len_change = if len_mean > 0.0 {
        len_last / len_mean
    } else {
        1.0
    };

    let all_tokens: Vec<&str> = token_lists.iter().flatten().copied().collect();
    let type_token_ratio = if all_tokens.is_empty() {
        0.0
    } else {
        let mut uniq: Vec<&str> = all_tokens.clone();
        uniq.sort_unstable();
        uniq.dedup();
        uniq.len() as f64 / all_tokens.len() as f64
    };
    let first_person = all_tokens
        .iter()
        .filter(|t| matches!(**t, "i" | "me" | "my" | "myself" | "i'm" | "i've"))
        .count() as f64
        / all_tokens.len().max(1) as f64;
    let negations = all_tokens.iter().filter(|t| NEGATIONS.contains(*t)).count() as f64;
    let theme_total: f64 = texts.iter().map(|t| theme_hits(t) as f64).sum();
    let theme_last = texts.last().map_or(0.0, |t| theme_hits(t) as f64);

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

fn oracle_sequence_features_into(texts: &[&str], total_posts: usize, out: &mut Vec<f32>) {
    let lens: Vec<f64> = texts.iter().map(|t| token_count(t) as f64).collect();
    let hits: Vec<f64> = texts.iter().map(|t| theme_hits(t) as f64).collect();
    let last_jaccard = if texts.len() >= 2 {
        oracle_jaccard(texts[texts.len() - 2], texts[texts.len() - 1])
    } else {
        0.0
    };
    let escalation_steps = hits.windows(2).filter(|w| w[1] > w[0]).count() as f64;
    out.extend_from_slice(&[
        texts.len() as f32,
        total_posts as f32,
        linear_trend(&lens) as f32,
        linear_trend(&hits) as f32,
        last_jaccard as f32,
        escalation_steps as f32,
    ]);
}

fn oracle_jaccard(a: &str, b: &str) -> f64 {
    use std::collections::HashSet;
    let sa: HashSet<&str> = tokenize(a).into_iter().collect();
    let sb: HashSet<&str> = tokenize(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// The whole-window row: time, text and sequence blocks, then the TF-IDF
/// row of the last post.
fn oracle_row(
    extractor: &FeatureExtractor,
    texts: &[&str],
    timestamps: &[Timestamp],
    total_posts: usize,
) -> Vec<f32> {
    let mut out = time_features(timestamps);
    oracle_text_features_into(texts, &mut out);
    oracle_sequence_features_into(texts, total_posts, &mut out);
    let sparse = extractor
        .tfidf()
        .transform(texts.last().copied().unwrap_or(""));
    let base = out.len();
    out.resize(base + extractor.tfidf().dim(), 0.0);
    for (&i, &v) in sparse.indices.iter().zip(&sparse.values) {
        out[base + i as usize] = v;
    }
    out
}

/// Generated words: frequent corpus words, lexicon and first-person terms,
/// negations, apostrophe-only and apostrophe-wrapped tokens, digits.
const WORDS: &[&str] = &[
    "i", "my", "me", "i'm", "i've", "myself", "not", "never", "no", "don't", "can't", "want", "to",
    "die", "end", "it", "all", "the", "and", "help", "tired", "alone", "hopeless", "am", "but",
    "who", "after", "feel", "today", "'", "''", "'quoted'", "dont'", "42", "a",
];
const SEPARATORS: &[&str] = &[" ", " ", " ", ". ", "  ", ",", "'"];

/// One post: (word, separator) index pairs; an empty list is an empty post.
fn render(post: &[(usize, usize)]) -> String {
    post.iter()
        .map(|&(w, s)| format!("{}{}", WORDS[w], SEPARATORS[s]))
        .collect()
}

#[test]
fn edge_windows_match_oracle() {
    let extractor = shared_extractor();
    let cases: &[&[&str]] = &[
        &[""],
        &["'"],
        &["' '' '''"],
        &["i i i i"],
        &["", ""],
        &["", "i want to die"],
        &["i want to die", ""],
        &["die die die", "die die"],
        &["don't 'stop' me", "'' ' ", "help help. help"],
        &["a", "b", "c", "d", "e"],
    ];
    let mut row = Vec::new();
    for texts in cases {
        let stamps: Vec<Timestamp> = (0..texts.len() as i64)
            .map(|i| Timestamp(i * 3_600))
            .collect();
        for total in [texts.len(), texts.len() + 7] {
            extractor.transform_stream_into(texts, &stamps, total, &mut row);
            let expect = oracle_row(extractor, texts, &stamps, total);
            assert_eq!(bits(&row), bits(&expect), "{texts:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn stream_rows_match_whole_window_oracle(
        posts in collection::vec(
            collection::vec((0usize..WORDS.len(), 0usize..SEPARATORS.len()), 0..14),
            1..6,
        ),
        gaps in collection::vec(0i64..400_000, 5..6),
        extra in 0usize..30,
    ) {
        let extractor = shared_extractor();
        let texts: Vec<String> = posts.iter().map(|p| render(p)).collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let mut t = 1_600_000_000i64;
        let stamps: Vec<Timestamp> = gaps[..texts.len()]
            .iter()
            .map(|g| {
                t += g;
                Timestamp(t)
            })
            .collect();
        let total = texts.len() + extra;
        let mut row = Vec::new();
        extractor.transform_stream_into(&texts, &stamps, total, &mut row);
        let expect = oracle_row(extractor, &texts, &stamps, total);
        prop_assert_eq!(bits(&row), bits(&expect));
    }
}

fn shared_extractor() -> &'static FeatureExtractor {
    static FX: std::sync::OnceLock<FeatureExtractor> = std::sync::OnceLock::new();
    FX.get_or_init(|| fixture().1)
}
