//! The fitted feature extractor: dense time/text/sequence features plus a
//! TF-IDF block over the labelled (latest) post.

use serde::{Deserialize, Serialize};

use crate::post::PreparedPost;
use crate::sequence::{sequence_features_into, SEQUENCE_FEATURE_NAMES};
use crate::text::{text_features_into, TEXT_FEATURE_NAMES};
use crate::time::{time_features_into, TIME_FEATURE_NAMES};
use rsd_common::{Result, RsdError, Timestamp};
use rsd_dataset::{Rsd15k, UserWindow};
use rsd_text::TfIdfVectorizer;

/// Which of the paper's three dimensions a feature belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureDimension {
    /// Temporal-pattern features.
    Time,
    /// Text statistics, linguistic features, TF-IDF.
    Text,
    /// Sliding-window / cumulative history features.
    Sequence,
}

/// A fitted extractor (TF-IDF vocabulary frozen on the training split).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureExtractor {
    tfidf: TfIdfVectorizer,
    names: Vec<String>,
    dims: Vec<FeatureDimension>,
}

impl FeatureExtractor {
    /// Fit on the training windows: the TF-IDF vocabulary is built from
    /// the *latest* post of each training window (the labelled unit),
    /// capped at `max_tfidf` terms.
    pub fn fit(
        dataset: &Rsd15k,
        train: &[UserWindow],
        max_tfidf: usize,
    ) -> Result<FeatureExtractor> {
        if train.is_empty() {
            return Err(RsdError::data("FeatureExtractor::fit: no windows"));
        }
        let docs: Vec<&str> = train.iter().map(|w| last_text(dataset, w)).collect();
        let tfidf = TfIdfVectorizer::fit(docs, 2, Some(max_tfidf))?;

        let mut names: Vec<String> = Vec::new();
        let mut dims: Vec<FeatureDimension> = Vec::new();
        for n in TIME_FEATURE_NAMES {
            names.push((*n).to_string());
            dims.push(FeatureDimension::Time);
        }
        for n in TEXT_FEATURE_NAMES {
            names.push((*n).to_string());
            dims.push(FeatureDimension::Text);
        }
        for n in SEQUENCE_FEATURE_NAMES {
            names.push((*n).to_string());
            dims.push(FeatureDimension::Sequence);
        }
        for term in tfidf.terms() {
            names.push(format!("text.tfidf[{term}]"));
            dims.push(FeatureDimension::Text);
        }
        Ok(FeatureExtractor { tfidf, names, dims })
    }

    /// Total feature width.
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// Feature names, index-aligned with vectors.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The fitted TF-IDF vectorizer behind the trailing feature block.
    pub fn tfidf(&self) -> &TfIdfVectorizer {
        &self.tfidf
    }

    /// Prepare one post for the window combiner: a single tokenization
    /// gives its token statistics, distinct tokens and TF-IDF row.
    pub fn prepare(&self, text: &str) -> PreparedPost {
        PreparedPost::new(text, &self.tfidf)
    }

    /// The window combiner: the feature row of a window given as its
    /// prepared posts (chronological) and their timestamps, where
    /// `total_posts` counts every post the user has made so far. Training,
    /// evaluation and serving all build their rows here. `out` is cleared
    /// first, so a caller can reuse one buffer across windows.
    pub fn combine_into(
        &self,
        posts: &[&PreparedPost],
        timestamps: &[Timestamp],
        total_posts: usize,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        time_features_into(timestamps, out);
        text_features_into(posts, out);
        sequence_features_into(posts, total_posts, out);

        let base = out.len();
        out.resize(base + self.tfidf.dim(), 0.0);
        if let Some(last) = posts.last() {
            let sparse = &last.tfidf;
            for (&i, &v) in sparse.indices.iter().zip(&sparse.values) {
                out[base + i as usize] = v;
            }
        }
    }

    /// Prepare every post that `windows` read, once each, on the
    /// `rsd-par` pool.
    pub fn prepare_posts(&self, dataset: &Rsd15k, windows: &[&[UserWindow]]) -> PostTable {
        let mut slot = vec![u32::MAX; dataset.posts.len()];
        let mut order: Vec<usize> = Vec::new();
        for &i in windows
            .iter()
            .flat_map(|ws| ws.iter())
            .flat_map(|w| &w.post_indices)
        {
            if slot[i] == u32::MAX {
                slot[i] = order.len() as u32;
                order.push(i);
            }
        }
        let mut posts = vec![PreparedPost::default(); order.len()];
        rsd_par::parallel_chunks_mut(&mut posts, 64, |start, chunk| {
            for (post, &i) in chunk.iter_mut().zip(&order[start..]) {
                *post = self.prepare(&dataset.posts[i].text);
            }
        });
        PostTable { slot, posts }
    }

    /// The feature row of one window whose posts `table` holds, into a
    /// caller-owned buffer.
    ///
    /// # Panics
    /// If `table` lacks one of the window's posts.
    pub fn transform_window_into(
        &self,
        dataset: &Rsd15k,
        table: &PostTable,
        window: &UserWindow,
        out: &mut Vec<f32>,
    ) {
        let posts: Vec<&PreparedPost> = window.post_indices.iter().map(|&i| table.get(i)).collect();
        let total_posts = dataset
            .user(window.user)
            .map_or(window.post_indices.len(), |u| u.post_indices.len());
        self.combine_into(&posts, &window.timestamps, total_posts, out);
    }

    /// Feature rows of `windows`, whose posts `table` holds, on the
    /// `rsd-par` pool: each row is computed whole by one chunk of a fixed
    /// grain, so the output is the same at any thread count.
    pub fn transform_windows(
        &self,
        dataset: &Rsd15k,
        table: &PostTable,
        windows: &[UserWindow],
    ) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = windows
            .iter()
            .map(|_| Vec::with_capacity(self.dim()))
            .collect();
        rsd_par::parallel_chunks_mut(&mut out, 64, |start, slots| {
            for (slot, window) in slots.iter_mut().zip(&windows[start..]) {
                self.transform_window_into(dataset, table, window, slot);
            }
        });
        out
    }

    /// Feature rows of `windows`: [`prepare_posts`] then
    /// [`transform_windows`].
    ///
    /// [`prepare_posts`]: FeatureExtractor::prepare_posts
    /// [`transform_windows`]: FeatureExtractor::transform_windows
    pub fn transform_all(&self, dataset: &Rsd15k, windows: &[UserWindow]) -> Vec<Vec<f32>> {
        let table = self.prepare_posts(dataset, &[windows]);
        self.transform_windows(dataset, &table, windows)
    }

    /// The feature row of one window.
    pub fn transform(&self, dataset: &Rsd15k, window: &UserWindow) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim());
        let table = self.prepare_posts(dataset, &[std::slice::from_ref(window)]);
        self.transform_window_into(dataset, &table, window, &mut out);
        out
    }

    /// The feature row of a window given directly as `(texts, timestamps,
    /// total_posts)`, with no dataset lookup: each text is prepared, then
    /// combined. Bit-identical to [`transform`](FeatureExtractor::transform)
    /// for the same window.
    pub fn transform_stream_into(
        &self,
        texts: &[&str],
        timestamps: &[Timestamp],
        total_posts: usize,
        out: &mut Vec<f32>,
    ) {
        let prepared: Vec<PreparedPost> = texts.iter().map(|t| self.prepare(t)).collect();
        let posts: Vec<&PreparedPost> = prepared.iter().collect();
        self.combine_into(&posts, timestamps, total_posts, out);
    }

    /// Aggregate a per-feature importance vector into per-dimension shares
    /// (sums to 1 when `importance` does).
    pub fn importance_by_dimension(&self, importance: &[f64]) -> [(FeatureDimension, f64); 3] {
        let mut time = 0.0;
        let mut text = 0.0;
        let mut seq = 0.0;
        for (imp, dim) in importance.iter().zip(&self.dims) {
            match dim {
                FeatureDimension::Time => time += imp,
                FeatureDimension::Text => text += imp,
                FeatureDimension::Sequence => seq += imp,
            }
        }
        [
            (FeatureDimension::Time, time),
            (FeatureDimension::Text, text),
            (FeatureDimension::Sequence, seq),
        ]
    }
}

/// Prepared posts looked up by dataset post index, built by
/// [`FeatureExtractor::prepare_posts`] and read by
/// [`FeatureExtractor::transform_windows`].
#[derive(Debug)]
pub struct PostTable {
    /// Per dataset post: its index in `posts`, or `u32::MAX` if absent.
    slot: Vec<u32>,
    posts: Vec<PreparedPost>,
}

impl PostTable {
    /// Dataset post `index`, prepared.
    ///
    /// # Panics
    /// If the post was not prepared.
    pub(crate) fn get(&self, index: usize) -> &PreparedPost {
        match self.slot.get(index) {
            Some(&s) if s != u32::MAX => &self.posts[s as usize],
            _ => panic!("PostTable: post {index} was not prepared"),
        }
    }
}

fn last_text<'a>(dataset: &'a Rsd15k, window: &UserWindow) -> &'a str {
    let &last = window.post_indices.last().expect("windows are never empty");
    dataset.posts[last].text.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, SplitConfig};

    fn fixture() -> (Rsd15k, DatasetSplits) {
        let (d, _) = DatasetBuilder::new(BuildConfig::scaled(501, 2_500, 40))
            .build()
            .unwrap();
        let s = DatasetSplits::new(&d, SplitConfig::default()).unwrap();
        (d, s)
    }

    #[test]
    fn fit_transform_shapes() {
        let (d, s) = fixture();
        let fx = FeatureExtractor::fit(&d, &s.train, 100).unwrap();
        assert_eq!(fx.dim(), fx.names().len());
        assert_eq!(fx.dim(), fx.dims.len());
        for w in &s.test {
            let v = fx.transform(&d, w);
            assert_eq!(v.len(), fx.dim());
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn transform_all_is_thread_count_independent() {
        let (d, s) = fixture();
        let fx = FeatureExtractor::fit(&d, &s.train, 100).unwrap();
        // Every post-level window, so the batch spans several pool chunks.
        let windows: Vec<UserWindow> = d
            .users
            .iter()
            .flat_map(|u| rsd_dataset::splits::post_level_windows(&d, u, s.config.window, 64))
            .collect();
        assert!(windows.len() > 4 * 64, "{} windows", windows.len());
        let bits = |x: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            x.iter()
                .map(|v| v.iter().map(|f| f.to_bits()).collect())
                .collect()
        };
        let serial = bits(rsd_par::run_serial(|| fx.transform_all(&d, &windows)));
        let pooled = bits(rsd_par::with_local_pool(4, || {
            fx.transform_all(&d, &windows)
        }));
        assert_eq!(serial, pooled);
        let one_by_one: Vec<Vec<f32>> = windows.iter().map(|w| fx.transform(&d, w)).collect();
        assert_eq!(serial, bits(one_by_one));
    }

    #[test]
    fn tfidf_cap_respected() {
        let (d, s) = fixture();
        let fx = FeatureExtractor::fit(&d, &s.train, 50).unwrap();
        let dense_count =
            TIME_FEATURE_NAMES.len() + TEXT_FEATURE_NAMES.len() + SEQUENCE_FEATURE_NAMES.len();
        assert!(fx.dim() <= dense_count + 50);
        assert!(fx.dim() > dense_count, "some TF-IDF terms must survive");
    }

    #[test]
    fn dimension_tags_cover_all_three() {
        let (d, s) = fixture();
        let fx = FeatureExtractor::fit(&d, &s.train, 50).unwrap();
        for dim in [
            FeatureDimension::Time,
            FeatureDimension::Text,
            FeatureDimension::Sequence,
        ] {
            assert!(fx.dims.contains(&dim));
        }
    }

    #[test]
    fn importance_aggregation_sums() {
        let (d, s) = fixture();
        let fx = FeatureExtractor::fit(&d, &s.train, 50).unwrap();
        let importance = vec![1.0 / fx.dim() as f64; fx.dim()];
        let by_dim = fx.importance_by_dimension(&importance);
        let total: f64 = by_dim.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_train_rejected() {
        let (d, _) = fixture();
        assert!(FeatureExtractor::fit(&d, &[], 50).is_err());
    }

    #[test]
    fn night_feature_correlates_with_risk() {
        // The generator couples night posting to risk; the extractor must
        // surface that: mean night_ratio for Attempt windows > Indicator.
        let (d, s) = fixture();
        let fx = FeatureExtractor::fit(&d, &s.train, 10).unwrap();
        let night_idx = fx
            .names()
            .iter()
            .position(|n| n == "time.night_ratio")
            .unwrap();
        let mut high = Vec::new();
        let mut low = Vec::new();
        for w in s.train.iter().chain(&s.valid).chain(&s.test) {
            let v = fx.transform(&d, w)[night_idx] as f64;
            match w.label {
                rsd_corpus::RiskLevel::Attempt | rsd_corpus::RiskLevel::Behavior => high.push(v),
                rsd_corpus::RiskLevel::Indicator => low.push(v),
                _ => {}
            }
        }
        if !high.is_empty() && !low.is_empty() {
            let mh: f64 = high.iter().sum::<f64>() / high.len() as f64;
            let ml: f64 = low.iter().sum::<f64>() / low.len() as f64;
            assert!(mh > ml, "night ratio high {mh} vs low {ml}");
        }
    }
}
