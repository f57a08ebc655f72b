//! Committed boosting digest: a multi-class booster is fitted at a fixed
//! seed on sparse data shaped like the XGBoost baseline's feature matrix
//! (most cells 0.0, row and column subsampling, depth-5 trees), and a hash
//! of every node of every tree (split feature, threshold, gain and leaf
//! weight bits, child links) must equal a committed constant. Any change to
//! histogram accumulation, the split scan or the boosting loop that moves a
//! single bit fails here, under forced-serial execution and under a
//! 4-thread pool alike. `par_determinism.rs` only compares thread counts
//! against each other; this pins the bits themselves.

use rand::Rng;
use rsd_common::rng::stream_rng;
use rsd_gbdt::tree::{Node, TreeConfig};
use rsd_gbdt::{BinnedMatrix, Booster, BoosterConfig, Tree};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

const N_ROWS: usize = 700;
/// Not a multiple of any plausible feature-block width, so partial blocks
/// are exercised too.
const N_FEATURES: usize = 29;
const N_CLASSES: usize = 3;

/// Rows where each feature is 0.0 with probability 0.8 (the first two
/// features are dense, like the time-dimension features), labels from a
/// noisy score over a handful of features.
fn sparse_data() -> (Vec<Vec<f32>>, Vec<usize>) {
    let mut rng = stream_rng(2026, "gbdt.fit_digest.data");
    (0..N_ROWS)
        .map(|_| {
            let row: Vec<f32> = (0..N_FEATURES)
                .map(|f| {
                    if f < 2 || rng.gen_bool(0.2) {
                        rng.gen_range(0.0f32..1.0)
                    } else {
                        0.0
                    }
                })
                .collect();
            let score = row[0] + 2.0 * row[3] - 1.5 * row[7] + row[11] + rng.gen_range(-0.5..0.5);
            let label = if score > 0.9 {
                0
            } else if score > 0.3 {
                1
            } else {
                2
            };
            (row, label)
        })
        .unzip()
}

fn fit_digest() -> u64 {
    let (rows, labels) = sparse_data();
    let train = BinnedMatrix::fit(rows, 64).unwrap();
    let cfg = BoosterConfig {
        seed: 11,
        n_classes: N_CLASSES,
        n_rounds: 8,
        learning_rate: 0.3,
        subsample: 0.8,
        colsample: 0.8,
        early_stopping: 0,
        tree: TreeConfig {
            max_depth: 5,
            ..Default::default()
        },
    };
    let booster = Booster::fit(&train, &labels, None, cfg).unwrap();
    // The ensemble is private to the booster; its serialized form is the
    // public view of every tree.
    let value = serde_json::to_value(&booster).unwrap();
    let trees: Vec<Vec<Tree>> = serde_json::from_value(value["trees"].clone()).unwrap();
    let mut d = Digest::new();
    d.word(trees.len() as u64);
    for tree in trees.iter().flatten() {
        d.word(tree.nodes.len() as u64);
        for node in &tree.nodes {
            match *node {
                Node::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                } => {
                    d.word(feature as u64);
                    d.word(u64::from(threshold.to_bits()));
                    d.word(u64::from(gain.to_bits()));
                    d.word(left as u64);
                    d.word(right as u64);
                }
                Node::Leaf { weight } => d.word(u64::from(weight.to_bits()) | 1 << 32),
            }
        }
    }
    d.0
}

const FIT_DIGEST: u64 = 0x206d_7b14_ca21_f183;

#[test]
fn fitted_trees_match_committed_digest() {
    for (what, got) in [
        ("serial", rsd_par::run_serial(fit_digest)),
        ("4-thread pool", rsd_par::with_local_pool(4, fit_digest)),
    ] {
        assert_eq!(
            got, FIT_DIGEST,
            "{what}: fitted-tree digest moved: {got:#018x}"
        );
    }
}
