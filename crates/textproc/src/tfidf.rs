//! Sparse TF-IDF vectorization (the text dimension of the paper's XGBoost
//! feature framework, §III-A1).
//!
//! Classic smoothed formulation, matching scikit-learn's defaults so the
//! baseline is recognizable: `idf(t) = ln((1 + N) / (1 + df(t))) + 1`,
//! raw term counts for TF, and L2 normalization per document.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::tokenize::tokenize;
use rsd_common::{Result, RsdError};

/// A sparse vector: parallel `(index, value)` arrays sorted by index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SparseVec {
    /// Feature indices, strictly increasing.
    pub indices: Vec<u32>,
    /// Values parallel to `indices`.
    pub values: Vec<f32>,
}

impl SparseVec {
    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Dot product with another sparse vector (merge join).
    pub fn dot(&self, other: &SparseVec) -> f32 {
        let mut sum = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }

    /// Cosine similarity; 0.0 if either vector is zero.
    pub fn cosine(&self, other: &SparseVec) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    /// Densify into a `dim`-length vector.
    pub fn to_dense(&self, dim: usize) -> Vec<f32> {
        let mut out = vec![0.0; dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            if (i as usize) < dim {
                out[i as usize] = v;
            }
        }
        out
    }
}

/// A fitted TF-IDF vectorizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfIdfVectorizer {
    term_to_index: HashMap<String, u32>,
    idf: Vec<f32>,
    n_docs: usize,
}

impl TfIdfVectorizer {
    /// Fit on cleaned documents. Terms with document frequency below
    /// `min_df` are dropped; `max_features` keeps the highest-df terms
    /// (ties alphabetical) for determinism.
    pub fn fit<'a, I>(docs: I, min_df: usize, max_features: Option<usize>) -> Result<Self>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut n_docs = 0usize;
        for doc in docs {
            n_docs += 1;
            let mut seen: Vec<&str> = tokenize(doc);
            seen.sort_unstable();
            seen.dedup();
            for t in seen {
                *df.entry(t.to_string()).or_insert(0) += 1;
            }
        }
        if n_docs == 0 {
            return Err(RsdError::data("TfIdfVectorizer: no documents"));
        }
        let mut entries: Vec<(String, usize)> = df
            .into_iter()
            .filter(|(_, c)| *c >= min_df.max(1))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if let Some(cap) = max_features {
            entries.truncate(cap);
        }
        // Re-sort alphabetically so indices are stable and ordered.
        entries.sort_by(|a, b| a.0.cmp(&b.0));

        let mut term_to_index = HashMap::with_capacity(entries.len());
        let mut idf = Vec::with_capacity(entries.len());
        for (i, (term, dfc)) in entries.into_iter().enumerate() {
            term_to_index.insert(term, i as u32);
            idf.push((((1 + n_docs) as f32) / ((1 + dfc) as f32)).ln() + 1.0);
        }
        Ok(TfIdfVectorizer {
            term_to_index,
            idf,
            n_docs,
        })
    }

    /// Vocabulary size.
    pub fn dim(&self) -> usize {
        self.idf.len()
    }

    /// Number of documents seen at fit time.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Transform one cleaned document into an L2-normalized sparse vector.
    pub fn transform(&self, doc: &str) -> SparseVec {
        self.transform_tokens(&tokenize(doc))
    }

    /// [`transform`](TfIdfVectorizer::transform) of a document already
    /// split by [`tokenize`], for callers that need its tokens for more
    /// than the TF-IDF row.
    pub fn transform_tokens(&self, tokens: &[&str]) -> SparseVec {
        let mut hits: Vec<u32> = tokens
            .iter()
            .filter_map(|&t| self.term_to_index.get(t).copied())
            .collect();
        hits.sort_unstable();
        // Runs of one index are its term count (exact in f32).
        let pairs: Vec<(u32, f32)> = hits
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as f32 * self.idf[run[0] as usize]))
            .collect();

        let norm: f32 = pairs.iter().map(|(_, v)| v * v).sum::<f32>().sqrt();
        let mut vec = SparseVec {
            indices: Vec::with_capacity(pairs.len()),
            values: Vec::with_capacity(pairs.len()),
        };
        for (i, v) in pairs {
            vec.indices.push(i);
            vec.values.push(if norm > 0.0 { v / norm } else { v });
        }
        vec
    }

    /// Index of a term if it is in the fitted vocabulary.
    pub fn term_index(&self, term: &str) -> Option<u32> {
        self.term_to_index.get(term).copied()
    }

    /// Terms in index order (inverse of [`TfIdfVectorizer::term_index`]).
    pub fn terms(&self) -> Vec<&str> {
        let mut out = vec![""; self.term_to_index.len()];
        for (term, &idx) in &self.term_to_index {
            out[idx as usize] = term.as_str();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_basic() -> TfIdfVectorizer {
        TfIdfVectorizer::fit(vec!["the cat sat", "the dog sat", "the bird flew"], 1, None).unwrap()
    }

    #[test]
    fn fit_rejects_empty_corpus() {
        assert!(TfIdfVectorizer::fit(Vec::<&str>::new(), 1, None).is_err());
    }

    #[test]
    fn transforms_are_l2_normalized() {
        let v = fit_basic();
        let x = v.transform("the cat sat");
        assert!((x.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rare_terms_get_higher_idf() {
        let v = fit_basic();
        let common = v.transform("the");
        let rare = v.transform("bird");
        // Both are single-term docs → normalized to 1, so compare raw idf.
        let the_idx = v.term_index("the").unwrap() as usize;
        let bird_idx = v.term_index("bird").unwrap() as usize;
        assert!(v.idf[bird_idx] > v.idf[the_idx]);
        assert_eq!(common.nnz(), 1);
        assert_eq!(rare.nnz(), 1);
    }

    #[test]
    fn unseen_terms_ignored() {
        let v = fit_basic();
        let x = v.transform("zebra quagga");
        assert_eq!(x.nnz(), 0);
        assert_eq!(x.norm(), 0.0);
    }

    #[test]
    fn min_df_filters() {
        let v = TfIdfVectorizer::fit(vec!["a b", "a c", "a d"], 2, None).unwrap();
        assert!(v.term_index("a").is_some());
        assert!(v.term_index("b").is_none());
    }

    #[test]
    fn max_features_keeps_highest_df() {
        let v = TfIdfVectorizer::fit(vec!["a b", "a c", "a b"], 1, Some(2)).unwrap();
        assert_eq!(v.dim(), 2);
        assert!(v.term_index("a").is_some());
        assert!(v.term_index("b").is_some());
        assert!(v.term_index("c").is_none());
    }

    #[test]
    fn cosine_similarity_sensible() {
        let v = fit_basic();
        let a = v.transform("the cat sat");
        let b = v.transform("the cat sat");
        let c = v.transform("bird flew");
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
        assert!(a.cosine(&c) < 0.3);
        assert_eq!(a.cosine(&SparseVec::default()), 0.0);
    }

    #[test]
    fn sparse_dot_merge_join() {
        let a = SparseVec {
            indices: vec![0, 2, 5],
            values: vec![1.0, 2.0, 3.0],
        };
        let b = SparseVec {
            indices: vec![2, 5, 7],
            values: vec![4.0, 5.0, 6.0],
        };
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0 * 5.0);
    }

    #[test]
    fn to_dense_places_values() {
        let a = SparseVec {
            indices: vec![1, 3],
            values: vec![0.5, 0.25],
        };
        assert_eq!(a.to_dense(5), vec![0.0, 0.5, 0.0, 0.25, 0.0]);
        // Out-of-range indices are dropped, not panicking.
        assert_eq!(a.to_dense(2), vec![0.0, 0.5]);
    }

    #[test]
    fn indices_strictly_increasing() {
        let v = fit_basic();
        let x = v.transform("the dog sat the dog");
        for w in x.indices.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
