//! Feature binning — the `hist` tree method's quantile sketch.
//!
//! Each feature is mapped to at most [`MAX_BINS`] integer bins by quantile
//! cut points computed on the training data; trees then accumulate
//! gradient histograms over bins instead of scanning sorted raw values.

use serde::{Deserialize, Serialize};

use rsd_common::{Result, RsdError};

/// Maximum bins per feature.
pub const MAX_BINS: usize = 256;

/// Per-feature quantile cut points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinCuts {
    /// `cuts[f]` — ascending thresholds for feature `f`; value ≤ cut[i]
    /// lands in bin i, values above all cuts land in the last bin.
    pub cuts: Vec<Vec<f32>>,
}

impl BinCuts {
    /// Compute cuts from training rows (`rows[i]` is sample `i`'s dense
    /// feature vector).
    pub fn fit(rows: &[Vec<f32>], n_features: usize, max_bins: usize) -> Result<Self> {
        if rows.is_empty() {
            return Err(RsdError::data("BinCuts::fit: no rows"));
        }
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let mut cuts = Vec::with_capacity(n_features);
        for f in 0..n_features {
            let mut vals: Vec<f32> = rows.iter().map(|r| r[f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN features"));
            vals.dedup();
            let feature_cuts = if vals.len() <= max_bins {
                // One bin per distinct value: cut between consecutive values.
                vals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
            } else {
                (1..max_bins)
                    .map(|b| {
                        let idx = b * (vals.len() - 1) / max_bins;
                        vals[idx]
                    })
                    .collect::<Vec<f32>>()
                    .into_iter()
                    .fold(Vec::new(), |mut acc, c| {
                        if acc.last().is_none_or(|&l| c > l) {
                            acc.push(c);
                        }
                        acc
                    })
            };
            cuts.push(feature_cuts);
        }
        Ok(BinCuts { cuts })
    }

    /// Number of bins for feature `f` (cuts + 1).
    pub fn n_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// Bin index for a raw value of feature `f` (binary search).
    pub fn bin(&self, f: usize, value: f32) -> u16 {
        let cuts = &self.cuts[f];
        let mut lo = 0usize;
        let mut hi = cuts.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if value <= cuts[mid] {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo as u16
    }
}

/// A dataset binned for histogram tree growing.
///
/// Bins are stored column-major (`bins[f * n_rows + i]`): histogram
/// building reads a block of features' columns per pass over a node's
/// rows, so each feature's bins are one contiguous slice, small enough for
/// a block's columns to stay cache-resident under the random row order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedMatrix {
    /// Bin cut points (shared with any validation/test matrices).
    pub cuts: BinCuts,
    /// Column-major bin indices: `bins[f * n_rows + i]` is the bin of
    /// sample `i`, feature `f`. Stored as `u8` (indices are below
    /// [`MAX_BINS`] = 256) to halve gather bandwidth in the histogram
    /// loop. Use [`BinnedMatrix::bin`] / [`BinnedMatrix::feature_bins`]
    /// rather than indexing directly.
    pub bins: Vec<u8>,
    /// Raw rows (kept for prediction-time threshold comparisons).
    pub raw: Vec<Vec<f32>>,
    /// Feature count.
    pub n_features: usize,
    /// Sample count.
    pub n_rows: usize,
}

impl BinnedMatrix {
    /// Fit cuts on `rows` and bin them.
    pub fn fit(rows: Vec<Vec<f32>>, max_bins: usize) -> Result<Self> {
        let n_features = rows
            .first()
            .map(Vec::len)
            .ok_or_else(|| RsdError::data("BinnedMatrix::fit: no rows"))?;
        if rows.iter().any(|r| r.len() != n_features) {
            return Err(RsdError::data("BinnedMatrix::fit: ragged rows"));
        }
        let cuts = BinCuts::fit(&rows, n_features, max_bins)?;
        let bins = bin_columns(&cuts, &rows, n_features);
        Ok(BinnedMatrix {
            cuts,
            bins,
            n_features,
            n_rows: rows.len(),
            raw: rows,
        })
    }

    /// Bin new rows with existing cuts (validation/test).
    pub fn transform(&self, rows: Vec<Vec<f32>>) -> Result<BinnedMatrix> {
        if rows.iter().any(|r| r.len() != self.n_features) {
            return Err(RsdError::data("BinnedMatrix::transform: width mismatch"));
        }
        let bins = bin_columns(&self.cuts, &rows, self.n_features);
        Ok(BinnedMatrix {
            cuts: self.cuts.clone(),
            bins,
            n_features: self.n_features,
            n_rows: rows.len(),
            raw: rows,
        })
    }

    /// Bin index of sample `i`, feature `f`.
    #[inline]
    pub fn bin(&self, i: usize, f: usize) -> u16 {
        u16::from(self.bins[f * self.n_rows + i])
    }

    /// The contiguous bin column of feature `f` (indexed by sample).
    #[inline]
    pub fn feature_bins(&self, f: usize) -> &[u8] {
        &self.bins[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }
}

/// Bin `rows` into a column-major bin table, one feature column per
/// parallel chunk (each column is written by exactly one chunk, so the
/// result is thread-count independent).
fn bin_columns(cuts: &BinCuts, rows: &[Vec<f32>], n_features: usize) -> Vec<u8> {
    let n = rows.len();
    let mut bins = vec![0u8; n_features * n];
    if n == 0 {
        return bins;
    }
    rsd_par::parallel_chunks_mut(&mut bins, n, |start, chunk| {
        let f = start / n;
        for (b, row) in chunk.iter_mut().zip(rows) {
            // Indices are < MAX_BINS = 256, so the narrowing is lossless.
            *b = cuts.bin(f, row[f]) as u8;
        }
    });
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f32>> {
        (0..100)
            .map(|i| vec![i as f32, (i % 7) as f32, 0.0])
            .collect()
    }

    #[test]
    fn fit_produces_monotone_cuts() {
        let m = BinnedMatrix::fit(rows(), 16).unwrap();
        for f in 0..3 {
            for w in m.cuts.cuts[f].windows(2) {
                assert!(w[0] < w[1], "cuts must be strictly increasing");
            }
        }
    }

    #[test]
    fn constant_feature_gets_single_bin() {
        let m = BinnedMatrix::fit(rows(), 16).unwrap();
        assert_eq!(m.cuts.n_bins(2), 1);
        assert!((0..m.len()).all(|i| m.bin(i, 2) == 0));
    }

    #[test]
    fn low_cardinality_feature_gets_exact_bins() {
        let m = BinnedMatrix::fit(rows(), 16).unwrap();
        assert_eq!(m.cuts.n_bins(1), 7);
        // Binning must be order-preserving.
        assert!(m.cuts.bin(1, 0.0) < m.cuts.bin(1, 3.0));
        assert!(m.cuts.bin(1, 3.0) < m.cuts.bin(1, 6.0));
    }

    #[test]
    fn binning_respects_cut_boundaries() {
        let m = BinnedMatrix::fit(vec![vec![1.0], vec![2.0], vec![3.0]], 16).unwrap();
        // cuts = [1.5, 2.5]
        assert_eq!(m.cuts.bin(0, 1.0), 0);
        assert_eq!(m.cuts.bin(0, 1.5), 0);
        assert_eq!(m.cuts.bin(0, 2.0), 1);
        assert_eq!(m.cuts.bin(0, 99.0), 2);
        assert_eq!(m.cuts.bin(0, -99.0), 0);
    }

    #[test]
    fn transform_uses_training_cuts() {
        let train = BinnedMatrix::fit(rows(), 16).unwrap();
        let test = train.transform(vec![vec![50.0, 3.0, 0.0]]).unwrap();
        assert_eq!(test.len(), 1);
        assert_eq!(test.bin(0, 1), train.cuts.bin(1, 3.0));
        assert!(train.transform(vec![vec![1.0]]).is_err());
    }

    #[test]
    fn empty_and_ragged_rejected() {
        assert!(BinnedMatrix::fit(vec![], 16).is_err());
        assert!(BinnedMatrix::fit(vec![vec![1.0], vec![1.0, 2.0]], 16).is_err());
    }

    #[test]
    fn max_bins_respected() {
        let rows: Vec<Vec<f32>> = (0..10_000).map(|i| vec![i as f32]).collect();
        let m = BinnedMatrix::fit(rows, 64).unwrap();
        assert!(m.cuts.n_bins(0) <= 64);
        assert!(m.cuts.n_bins(0) > 32);
    }
}
