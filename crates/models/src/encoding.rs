//! Task encoding: user windows → token ids and temporal feature vectors.
//!
//! The temporal encoding follows the paper's §III-A2 "three
//! multi-dimensional encoding strategies":
//!
//! * **periodic** — sin/cos of hour-of-day, day-of-week and month;
//! * **interval** — log-scaled gap to the previous post and the
//!   gap-to-mean ratio;
//! * **cumulative** — position within the window and night/weekend flags.
//!
//! Each post in a window gets one [`TIME_FEATURE_DIM`]-wide vector; neural
//! baselines project it into model space and fuse it with text
//! representations.

use rsd_common::Timestamp;
use rsd_corpus::RiskLevel;
use rsd_dataset::{Rsd15k, UserWindow};
use rsd_text::Vocabulary;

/// Width of the per-post temporal feature vector.
pub const TIME_FEATURE_DIM: usize = 11;

/// Temporal features for one post in a window.
pub fn time_vector(timestamps: &[Timestamp], idx: usize) -> [f32; TIME_FEATURE_DIM] {
    let t = timestamps[idx];
    let hour = f32::from(t.hour());
    let weekday = t.weekday().index() as f32;
    let month = (t.month_index() % 12) as f32;
    let two_pi = std::f32::consts::TAU;

    // Interval features.
    let gap_days = if idx == 0 {
        0.0
    } else {
        t.days_since(timestamps[idx - 1]) as f32
    };
    let mean_gap = if timestamps.len() >= 2 {
        (timestamps[timestamps.len() - 1].days_since(timestamps[0]) / (timestamps.len() - 1) as f64)
            as f32
    } else {
        0.0
    };
    let gap_ratio = if mean_gap > 0.0 {
        (gap_days / mean_gap).min(10.0)
    } else {
        1.0
    };

    [
        (two_pi * hour / 24.0).sin(),
        (two_pi * hour / 24.0).cos(),
        (two_pi * weekday / 7.0).sin(),
        (two_pi * weekday / 7.0).cos(),
        (two_pi * month / 12.0).sin(),
        (two_pi * month / 12.0).cos(),
        (1.0 + gap_days).ln(),
        gap_ratio,
        idx as f32 / timestamps.len().max(1) as f32,
        if t.is_night() { 1.0 } else { 0.0 },
        if t.is_weekend() { 1.0 } else { 0.0 },
    ]
}

/// One encoded task instance.
#[derive(Debug, Clone)]
pub struct EncodedWindow {
    /// Token ids per post (chronological; last = labelled post). Each
    /// sequence starts with `[CLS]` and is truncated to `max_tokens`.
    pub post_tokens: Vec<Vec<u32>>,
    /// Per-post temporal vectors, parallel to `post_tokens`.
    pub time_feats: Vec<[f32; TIME_FEATURE_DIM]>,
    /// Class index of the user-level label.
    pub label: usize,
}

impl EncodedWindow {
    /// Tokens of the labelled (latest) post.
    pub fn last_tokens(&self) -> &[u32] {
        self.post_tokens.last().expect("windows are never empty")
    }

    /// Window-context token stream for sequence-attention models: the
    /// labelled (latest) post first, then preceding posts newest-to-oldest,
    /// truncated to `max_tokens` total. The latest post keeps its leading
    /// `[CLS]`; earlier posts contribute their tokens after it, so the
    /// model can attend across the user's recent history (the paper's
    /// "analysis of user sequential posts within a specific time window").
    pub fn window_tokens(&self, max_tokens: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(max_tokens);
        for tokens in self.post_tokens.iter().rev() {
            for (i, &t) in tokens.iter().enumerate() {
                // Skip the [CLS] of non-final posts.
                if !out.is_empty() && i == 0 {
                    continue;
                }
                if out.len() >= max_tokens {
                    return out;
                }
                out.push(t);
            }
            if out.len() >= max_tokens {
                break;
            }
        }
        out
    }
}

/// Encoder from dataset windows to model inputs.
#[derive(Debug, Clone)]
pub struct TaskEncoder {
    /// Token vocabulary (fit on training texts).
    pub vocab: Vocabulary,
    /// Per-post token cap (including `[CLS]`).
    pub max_tokens: usize,
}

impl TaskEncoder {
    /// Fit the vocabulary on the training windows' texts.
    pub fn fit(
        dataset: &Rsd15k,
        train: &[UserWindow],
        max_vocab: usize,
        max_tokens: usize,
    ) -> TaskEncoder {
        let docs: Vec<&str> = train
            .iter()
            .flat_map(|w| {
                w.post_indices
                    .iter()
                    .map(|&i| dataset.posts[i].text.as_str())
            })
            .collect();
        let vocab = Vocabulary::build(docs, 2, Some(max_vocab));
        TaskEncoder { vocab, max_tokens }
    }

    /// Fit a vocabulary directly from unlabelled texts (pretraining pool).
    pub fn fit_on_texts(texts: &[String], max_vocab: usize, max_tokens: usize) -> TaskEncoder {
        let docs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let vocab = Vocabulary::build(docs, 2, Some(max_vocab));
        TaskEncoder { vocab, max_tokens }
    }

    /// Encode one window.
    pub fn encode(&self, dataset: &Rsd15k, window: &UserWindow) -> EncodedWindow {
        let mut post_tokens = Vec::with_capacity(window.post_indices.len());
        let mut time_feats = Vec::with_capacity(window.post_indices.len());
        for (k, &i) in window.post_indices.iter().enumerate() {
            post_tokens.push(self.encode_text(&dataset.posts[i].text));
            time_feats.push(time_vector(&window.timestamps, k));
        }
        EncodedWindow {
            post_tokens,
            time_feats,
            label: window.label.index(),
        }
    }

    /// Encode raw text into a `[CLS]`-prefixed, truncated id sequence
    /// (no padding — models process exact lengths).
    pub fn encode_text(&self, text: &str) -> Vec<u32> {
        let mut ids = Vec::with_capacity(self.max_tokens);
        ids.push(rsd_text::SpecialToken::Cls.id());
        for id in self.vocab.encode(text) {
            if ids.len() >= self.max_tokens {
                break;
            }
            ids.push(id);
        }
        ids
    }

    /// Encode all windows.
    pub fn encode_all(&self, dataset: &Rsd15k, windows: &[UserWindow]) -> Vec<EncodedWindow> {
        windows.iter().map(|w| self.encode(dataset, w)).collect()
    }

    /// Number of classes in the task.
    pub fn n_classes(&self) -> usize {
        RiskLevel::COUNT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamps() -> Vec<Timestamp> {
        vec![
            Timestamp::from_ymd_hms(2020, 6, 1, 12, 0, 0).unwrap(),
            Timestamp::from_ymd_hms(2020, 6, 3, 23, 30, 0).unwrap(),
            Timestamp::from_ymd_hms(2020, 6, 6, 2, 0, 0).unwrap(),
        ]
    }

    #[test]
    fn time_vector_width_and_bounds() {
        let ts = stamps();
        for i in 0..ts.len() {
            let v = time_vector(&ts, i);
            assert_eq!(v.len(), TIME_FEATURE_DIM);
            assert!(v.iter().all(|x| x.is_finite()));
            // Periodic components live in [-1, 1].
            for p in &v[..6] {
                assert!((-1.0..=1.0).contains(p));
            }
        }
    }

    #[test]
    fn night_flag_set_for_late_posts() {
        let ts = stamps();
        assert_eq!(time_vector(&ts, 0)[9], 0.0); // 12:00
        assert_eq!(time_vector(&ts, 1)[9], 1.0); // 23:30
        assert_eq!(time_vector(&ts, 2)[9], 1.0); // 02:00
    }

    #[test]
    fn gap_features_progress() {
        let ts = stamps();
        assert_eq!(time_vector(&ts, 0)[6], 0.0, "first post has no gap");
        assert!(time_vector(&ts, 1)[6] > 0.0);
        let pos0 = time_vector(&ts, 0)[8];
        let pos2 = time_vector(&ts, 2)[8];
        assert!(pos2 > pos0, "window position increases");
    }

    #[test]
    fn encode_text_has_cls_and_truncates() {
        let texts = vec!["one two three four five six".to_string(); 3];
        let enc = TaskEncoder::fit_on_texts(&texts, 100, 4);
        let ids = enc.encode_text(&texts[0]);
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[0], rsd_text::SpecialToken::Cls.id());
    }

    #[test]
    fn encode_window_on_built_dataset() {
        use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, SplitConfig};
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(601, 1_500, 20))
            .build()
            .unwrap();
        let s = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        let enc = TaskEncoder::fit(&d, &s.train, 500, 32);
        let encoded = enc.encode_all(&d, &s.test);
        assert_eq!(encoded.len(), s.test.len());
        for e in &encoded {
            assert_eq!(e.post_tokens.len(), e.time_feats.len());
            assert!(!e.post_tokens.is_empty());
            assert!(e.label < 4);
            assert!(e.last_tokens().len() >= 2, "CLS plus at least one token");
        }
    }
}
