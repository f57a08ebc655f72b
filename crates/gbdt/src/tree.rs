//! Single regression trees grown greedily on gradient histograms.
//!
//! XGBoost's split objective: for a node with gradient sum `G` and hessian
//! sum `H`, the gain of a split into (L, R) is
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! and the leaf weight is `−G/(H+λ)` (times shrinkage, applied by the
//! booster).
//!
//! Histograms are built a block of features per pass over a node's rows
//! (`block_histograms`), blocks in parallel on the `rsd-par` pool, reading
//! each row's bins of a block as one packed word (`PackedBins`); trees
//! depend on neither the block width nor the thread count.

use serde::{Deserialize, Serialize};

use crate::data::BinnedMatrix;

/// Tree-growing hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f32,
    /// Minimum gain γ to accept a split.
    pub gamma: f32,
    /// Minimum hessian sum per child.
    pub min_child_weight: f32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 5,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

/// A tree node (flat arena representation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// Internal split: go left when `value ≤ threshold`.
    Split {
        /// Feature index.
        feature: usize,
        /// Raw-value threshold.
        threshold: f32,
        /// Gain realized by this split (for importance).
        gain: f32,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Leaf with an output weight.
    Leaf {
        /// Leaf weight (already includes shrinkage).
        weight: f32,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tree {
    /// Arena of nodes; root at index 0.
    pub nodes: Vec<Node>,
}

impl Tree {
    /// Grow a tree on `(grad, hess)` over the sample subset `rows` of
    /// `data`, considering only `features`. `shrinkage` scales leaf
    /// weights.
    pub fn fit(
        data: &BinnedMatrix,
        grad: &[f32],
        hess: &[f32],
        rows: &[usize],
        features: &[usize],
        cfg: &TreeConfig,
        shrinkage: f32,
    ) -> Tree {
        let packed = PackedBins::new(data, features);
        Tree::fit_packed(data, &packed, grad, hess, rows, cfg, shrinkage)
    }

    /// [`fit`](Tree::fit) over features already packed by
    /// [`PackedBins::new`], so trees that share a feature sample (one per
    /// class in a boosting round) share one packing.
    pub(crate) fn fit_packed(
        data: &BinnedMatrix,
        packed: &PackedBins<'_>,
        grad: &[f32],
        hess: &[f32],
        rows: &[usize],
        cfg: &TreeConfig,
        shrinkage: f32,
    ) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        tree.nodes.push(Node::Leaf { weight: 0.0 });
        tree.grow(data, packed, grad, hess, rows, cfg, shrinkage, 0, 0);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &mut self,
        data: &BinnedMatrix,
        packed: &PackedBins<'_>,
        grad: &[f32],
        hess: &[f32],
        rows: &[usize],
        cfg: &TreeConfig,
        shrinkage: f32,
        node: usize,
        depth: usize,
    ) {
        let features = packed.features;
        // Gather the node's gradients once: the histogram loop then
        // streams two dense arrays instead of re-chasing `grad[i]` through
        // the row index for every feature.
        let g: Vec<f32> = rows.iter().map(|&i| grad[i]).collect();
        let h: Vec<f32> = rows.iter().map(|&i| hess[i]).collect();
        let g_total: f32 = g.iter().sum();
        let h_total: f32 = h.iter().sum();
        let leaf_weight = -g_total / (h_total + cfg.lambda) * shrinkage;

        if depth >= cfg.max_depth || rows.len() < 2 {
            self.nodes[node] = Node::Leaf {
                weight: leaf_weight,
            };
            return;
        }

        // Split search runs in parallel over fixed-width feature blocks (a
        // function of the feature count only, never of thread count; each
        // candidate slot is written by exactly one block). The winner is
        // then reduced serially in `features` order with a strict `>`,
        // which keeps the serial tie-break (first feature, first bin wins).
        let parent_score = g_total * g_total / (h_total + cfg.lambda);
        let mut candidates: Vec<Option<(f32, u16)>> = vec![None; features.len()];
        rsd_par::parallel_chunks_mut(&mut candidates, FEATURE_BLOCK, |start, slots| {
            let block = &features[start..start + slots.len()];
            let bins = packed.block(start / FEATURE_BLOCK);
            let (hist, offsets) = block_histograms(data, block, bins, rows, &g, &h);
            for (k, slot) in slots.iter_mut().enumerate() {
                let bins = &hist[offsets[k]..offsets[k + 1]];
                *slot = best_split(bins, g_total, h_total, parent_score, cfg);
            }
        });
        let mut best: Option<(f32, usize, u16)> = None; // (gain, feature, bin)
        for (pos, cand) in candidates.into_iter().enumerate() {
            if let Some((gain, b)) = cand {
                if best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, features[pos], b));
                }
            }
        }

        let Some((gain, feature, bin)) = best else {
            self.nodes[node] = Node::Leaf {
                weight: leaf_weight,
            };
            return;
        };

        let threshold = data.cuts.cuts[feature][bin as usize];
        let feature_bins = data.feature_bins(feature);
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
            .iter()
            .partition(|&&i| u16::from(feature_bins[i]) <= bin);

        let left = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        let right = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: 0.0 });
        self.nodes[node] = Node::Split {
            feature,
            threshold,
            gain,
            left,
            right,
        };
        self.grow(
            data,
            packed,
            grad,
            hess,
            &left_rows,
            cfg,
            shrinkage,
            left,
            depth + 1,
        );
        self.grow(
            data,
            packed,
            grad,
            hess,
            &right_rows,
            cfg,
            shrinkage,
            right,
            depth + 1,
        );
    }

    /// Predict one raw feature row.
    pub fn predict_row(&self, row: &[f32]) -> f32 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { weight } => return *weight,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Accumulate per-feature gain into `importance`.
    pub fn accumulate_importance(&self, importance: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                importance[*feature] += f64::from(*gain);
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }
}

/// Features whose histograms one pass over a node's rows builds together.
const FEATURE_BLOCK: usize = 8;

/// A feature sample's bins packed for histogram building: block `b` holds
/// features `features[b * FEATURE_BLOCK..]` (at most [`FEATURE_BLOCK`] of
/// them), and row `i`'s bins in that block are one `[u8; FEATURE_BLOCK]`
/// (unused lanes 0). A pass over a node's rows then reads one 8-byte word
/// per row instead of one byte from each of the block's columns.
pub(crate) struct PackedBins<'a> {
    features: &'a [usize],
    n_rows: usize,
    /// `blocks[b * n_rows + i]`: row `i`'s bins in block `b`.
    blocks: Vec<[u8; FEATURE_BLOCK]>,
}

impl<'a> PackedBins<'a> {
    /// Pack `features` of `data`, one block per parallel chunk (each block
    /// is written by exactly one chunk).
    pub(crate) fn new(data: &BinnedMatrix, features: &'a [usize]) -> PackedBins<'a> {
        let n = data.n_rows;
        let mut blocks = vec![[0u8; FEATURE_BLOCK]; features.len().div_ceil(FEATURE_BLOCK) * n];
        if n > 0 {
            rsd_par::parallel_chunks_mut(&mut blocks, n, |start, rows| {
                let b = start / n;
                let block =
                    &features[b * FEATURE_BLOCK..features.len().min((b + 1) * FEATURE_BLOCK)];
                for (k, &f) in block.iter().enumerate() {
                    for (row, &bin) in rows.iter_mut().zip(data.feature_bins(f)) {
                        row[k] = bin;
                    }
                }
            });
        }
        PackedBins {
            features,
            n_rows: n,
            blocks,
        }
    }

    /// Block `b`'s packed bins, indexed by row.
    fn block(&self, b: usize) -> &[[u8; FEATURE_BLOCK]] {
        &self.blocks[b * self.n_rows..(b + 1) * self.n_rows]
    }
}

/// `(g, h)` histograms of the (at most [`FEATURE_BLOCK`]) features in
/// `block`, whose bins `packed` holds, over `rows`, in one allocation:
/// feature `k`'s bins are `hist[offsets[k]..offsets[k + 1]]`. Rows run in
/// the outer loop and the block's features in the inner one, so
/// consecutive updates land in different histograms instead of waiting on
/// each other when most rows share a bin (sparse features). Each bin still
/// adds its rows in `rows` order, so every sum equals a feature-at-a-time
/// loop's bit for bit.
fn block_histograms(
    data: &BinnedMatrix,
    block: &[usize],
    packed: &[[u8; FEATURE_BLOCK]],
    rows: &[usize],
    g: &[f32],
    h: &[f32],
) -> (Vec<[f32; 2]>, [usize; FEATURE_BLOCK + 1]) {
    let mut offsets = [0usize; FEATURE_BLOCK + 1];
    for (k, &f) in block.iter().enumerate() {
        offsets[k + 1] = offsets[k] + data.cuts.n_bins(f);
    }
    let mut hist = vec![[0.0f32; 2]; offsets[block.len()]];
    // A full block's lane count is a constant, so the lane loop unrolls.
    if block.len() == FEATURE_BLOCK {
        accumulate(&mut hist, &offsets[..FEATURE_BLOCK], packed, rows, g, h);
    } else {
        accumulate(&mut hist, &offsets[..block.len()], packed, rows, g, h);
    }
    (hist, offsets)
}

/// Add each row's `(g, h)` to its bin in every lane that `starts` covers.
#[inline(always)]
fn accumulate(
    hist: &mut [[f32; 2]],
    starts: &[usize],
    packed: &[[u8; FEATURE_BLOCK]],
    rows: &[usize],
    g: &[f32],
    h: &[f32],
) {
    for (&i, (&gj, &hj)) in rows.iter().zip(g.iter().zip(h)) {
        let bins = packed[i];
        for (&start, &bin) in starts.iter().zip(&bins) {
            add_pair(&mut hist[start + usize::from(bin)], gj, hj);
        }
    }
}

/// `cell += (g, h)` as one 64-bit load, add and store (SSE2 is part of the
/// x86-64 baseline). Lane-wise IEEE adds, so bit-identical to the two
/// scalar adds other targets run.
#[inline(always)]
fn add_pair(cell: &mut [f32; 2], g: f32, h: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{
            __m128i, _mm_add_ps, _mm_castps_si128, _mm_castsi128_ps, _mm_loadl_epi64, _mm_setr_ps,
            _mm_storel_epi64,
        };
        let p = cell.as_mut_ptr().cast::<__m128i>();
        // SAFETY: the 8-byte load and store stay inside `cell`; both are
        // unaligned (`movq`).
        unsafe {
            let sum = _mm_add_ps(
                _mm_castsi128_ps(_mm_loadl_epi64(p)),
                _mm_setr_ps(g, h, 0.0, 0.0),
            );
            _mm_storel_epi64(p, _mm_castps_si128(sum));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        cell[0] += g;
        cell[1] += h;
    }
}

/// Best `(gain, bin)` split over one feature's histogram, or `None` when no
/// bin clears the gain/γ/min-child constraints. The first of equal gains
/// wins.
fn best_split(
    hist: &[[f32; 2]],
    g_total: f32,
    h_total: f32,
    parent_score: f32,
    cfg: &TreeConfig,
) -> Option<(f32, u16)> {
    let mut best: Option<(f32, u16)> = None;
    let mut gl = 0.0f32;
    let mut hl = 0.0f32;
    for (b, cell) in hist.iter().enumerate().take(hist.len().saturating_sub(1)) {
        gl += cell[0];
        hl += cell[1];
        let gr = g_total - gl;
        let hr = h_total - hl;
        if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
            continue;
        }
        let gain = 0.5 * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) - parent_score)
            - cfg.gamma;
        if gain > 0.0 && best.is_none_or(|(bg, _)| gain > bg) {
            best = Some((gain, b as u16));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step function y = 1 if x > 5 else −1, perfectly splittable.
    fn step_data() -> (BinnedMatrix, Vec<f32>, Vec<f32>) {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32, 0.0]).collect();
        let data = BinnedMatrix::fit(rows, 32).unwrap();
        // Squared loss on residuals: grad = pred − y = −y at pred=0, hess = 1.
        let grad: Vec<f32> = (0..20).map(|i| if i > 5 { -1.0 } else { 1.0 }).collect();
        let hess = vec![1.0; 20];
        (data, grad, hess)
    }

    #[test]
    fn finds_the_obvious_split() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        let tree = Tree::fit(
            &data,
            &grad,
            &hess,
            &rows,
            &[0, 1],
            &TreeConfig::default(),
            1.0,
        );
        // Root must split on feature 0 near 5.5.
        match &tree.nodes[0] {
            Node::Split {
                feature, threshold, ..
            } => {
                assert_eq!(*feature, 0);
                assert!((*threshold - 5.5).abs() < 1.0, "threshold {threshold}");
            }
            Node::Leaf { .. } => panic!("root must split"),
        }
        // Predictions approach ±1 (λ=1 shrinks slightly).
        assert!(tree.predict_row(&[0.0, 0.0]) < -0.5);
        assert!(tree.predict_row(&[10.0, 0.0]) > 0.5);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        let cfg = TreeConfig {
            max_depth: 0,
            ..Default::default()
        };
        let tree = Tree::fit(&data, &grad, &hess, &rows, &[0, 1], &cfg, 1.0);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        let cfg = TreeConfig {
            gamma: 1e9,
            ..Default::default()
        };
        let tree = Tree::fit(&data, &grad, &hess, &rows, &[0, 1], &cfg, 1.0);
        assert_eq!(tree.n_leaves(), 1, "huge gamma must prune everything");
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        let cfg = TreeConfig {
            min_child_weight: 100.0,
            ..Default::default()
        };
        let tree = Tree::fit(&data, &grad, &hess, &rows, &[0, 1], &cfg, 1.0);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn shrinkage_scales_leaves() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        let full = Tree::fit(
            &data,
            &grad,
            &hess,
            &rows,
            &[0],
            &TreeConfig::default(),
            1.0,
        );
        let half = Tree::fit(
            &data,
            &grad,
            &hess,
            &rows,
            &[0],
            &TreeConfig::default(),
            0.5,
        );
        let p_full = full.predict_row(&[10.0]);
        let p_half = half.predict_row(&[10.0]);
        assert!((p_half - p_full * 0.5).abs() < 1e-6);
    }

    #[test]
    fn importance_lands_on_informative_feature() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        let tree = Tree::fit(
            &data,
            &grad,
            &hess,
            &rows,
            &[0, 1],
            &TreeConfig::default(),
            1.0,
        );
        let mut imp = vec![0.0f64; 2];
        tree.accumulate_importance(&mut imp);
        assert!(imp[0] > 0.0);
        assert_eq!(imp[1], 0.0, "constant feature can't gain");
    }

    #[test]
    fn constrained_feature_set_respected() {
        let (data, grad, hess) = step_data();
        let rows: Vec<usize> = (0..20).collect();
        // Only the constant feature is allowed → no split possible.
        let tree = Tree::fit(
            &data,
            &grad,
            &hess,
            &rows,
            &[1],
            &TreeConfig::default(),
            1.0,
        );
        assert_eq!(tree.n_leaves(), 1);
    }
}
