//! The fitted feature extractor: dense time/text/sequence features plus a
//! TF-IDF block over the labelled (latest) post.

use serde::{Deserialize, Serialize};

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

    /// Dimension tag per feature.
    pub fn dimensions(&self) -> &[FeatureDimension] {
        &self.dims
    }

    /// Extract the dense feature vector for one window.
    pub fn transform(&self, dataset: &Rsd15k, window: &UserWindow) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim());
        self.transform_into(dataset, window, &mut out);
        out
    }

    /// [`transform`](FeatureExtractor::transform) into a caller-owned
    /// buffer (cleared first). Reusing one buffer across calls is what
    /// the micro-batched scoring path does to avoid per-request
    /// allocation.
    pub fn transform_into(&self, dataset: &Rsd15k, window: &UserWindow, out: &mut Vec<f32>) {
        let texts: Vec<&str> = window
            .post_indices
            .iter()
            .map(|&i| dataset.posts[i].text.as_str())
            .collect();
        let total_posts = dataset
            .users
            .iter()
            .find(|u| u.id == window.user)
            .map_or(window.post_indices.len(), |u| u.post_indices.len());
        self.transform_stream_into(&texts, &window.timestamps, total_posts, out);
    }

    /// The inference-only entry point: featurize a window given directly
    /// as `(texts, timestamps, total_posts)` — no dataset lookup, no
    /// `UserWindow` materialization. This is what the serving path calls
    /// with state reconstructed from its per-user window store;
    /// `total_posts` is the store's `total_seen` count. Bit-identical to
    /// [`transform`](FeatureExtractor::transform) for the same window.
    pub fn transform_stream_into(
        &self,
        texts: &[&str],
        timestamps: &[Timestamp],
        total_posts: usize,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        time_features_into(timestamps, out);
        text_features_into(texts, out);
        sequence_features_into(texts, total_posts, out);

        let last = texts.last().copied().unwrap_or("");
        let sparse = self.tfidf.transform(last);
        let base = out.len();
        out.resize(base + self.tfidf.dim(), 0.0);
        for (&i, &v) in sparse.indices.iter().zip(&sparse.values) {
            out[base + i as usize] = v;
        }
    }

    /// Batch transform.
    pub fn transform_all(&self, dataset: &Rsd15k, windows: &[UserWindow]) -> Vec<Vec<f32>> {
        windows.iter().map(|w| self.transform(dataset, w)).collect()
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
        assert_eq!(fx.dim(), fx.dimensions().len());
        for w in &s.test {
            let v = fx.transform(&d, w);
            assert_eq!(v.len(), fx.dim());
            assert!(v.iter().all(|x| x.is_finite()));
        }
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
            assert!(fx.dimensions().contains(&dim));
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
