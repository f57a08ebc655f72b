//! Committed digests of the int8 engine's logits.
//!
//! Each case exports a synthetic PLM, scores a fixed set of window
//! shapes through `logits_i8` and folds every logit's bits into an
//! FNV-1a digest. The shapes cover the base configuration and an odd
//! one (odd head dim, odd FFN width, odd sequence lengths), so a change
//! to the packing or the integer kernels that moves a single bit, or
//! that only goes wrong on a zero-padded tail, changes a digest. Every
//! case runs serially and on a 4-thread pool; both must give the
//! committed value.

use rsd_corpus::RiskLevel;
use rsd_models::encoding::TIME_FEATURE_DIM;
use rsd_models::{EncodedWindow, FittedPlm, PlmConfig, PlmInferenceModel, PlmKind, PlmScratch};

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

/// `(posts, tokens per post)`: sequence lengths 1, 7, 17, 34 and the
/// window cap reached from below and from above.
const SHAPES: [(usize, usize); 7] = [(1, 1), (1, 7), (2, 4), (2, 9), (3, 12), (5, 20), (4, 31)];

fn window(vocab: usize, posts: usize, tokens: usize, salt: u64) -> EncodedWindow {
    let hash = |i: u64| {
        (i ^ salt)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(21)
    };
    EncodedWindow {
        post_tokens: (0..posts)
            .map(|p| {
                (0..tokens)
                    .map(|t| (hash((p * tokens + t) as u64) % vocab as u64) as u32)
                    .collect()
            })
            .collect(),
        time_feats: (0..posts)
            .map(|p| {
                std::array::from_fn(|d| {
                    let h = hash((100_000 + p * TIME_FEATURE_DIM + d) as u64);
                    ((h % 1000) as f32) / 500.0 - 1.0
                })
            })
            .collect(),
        label: 0,
    }
}

/// Dim 18 over 2 heads (head dim 9), FFN 37, 31-token windows.
fn odd(kind: PlmKind) -> PlmConfig {
    PlmConfig {
        dim: 18,
        heads: 2,
        ffn_dim: 37,
        window_tokens: 31,
        radius: 5,
        ..PlmConfig::base(kind)
    }
}

fn digest_of(logits: &[[f32; RiskLevel::COUNT]]) -> u64 {
    let mut d = Digest::new();
    for row in logits {
        for v in row {
            d.word(u64::from(v.to_bits()));
        }
    }
    d.0
}

fn logits_digest(cfg: PlmConfig, seed: u64) -> u64 {
    let fitted = FittedPlm::synthetic(cfg, seed);
    let vocab = fitted.encoder.vocab.len();
    let model = PlmInferenceModel::export(&fitted);
    let windows: Vec<EncodedWindow> = SHAPES
        .iter()
        .enumerate()
        .map(|(i, &(posts, tokens))| window(vocab, posts, tokens, 0x51ED + i as u64))
        .collect();
    let score = || {
        let mut out = vec![[0.0f32; RiskLevel::COUNT]; windows.len()];
        rsd_par::parallel_chunks_mut(&mut out, 1, |start, chunk| {
            let mut scratch = PlmScratch::default();
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = model.logits_i8(&windows[start + off], &mut scratch);
            }
        });
        out
    };
    let serial = digest_of(&rsd_par::run_serial(score));
    let pooled = digest_of(&rsd_par::with_local_pool(4, score));
    assert_eq!(serial, pooled, "serial and 4-thread digests differ");
    serial
}

#[test]
fn int8_logits_match_committed_digests() {
    let got = [
        logits_digest(PlmConfig::base(PlmKind::Deberta), 29),
        logits_digest(PlmConfig::base(PlmKind::Roberta), 29),
        logits_digest(odd(PlmKind::Deberta), 31),
        logits_digest(odd(PlmKind::Roberta), 31),
    ];
    let want: [u64; 4] = [
        0xf59b_9b31_aa92_ea6c,
        0x15d6_c98c_eb4d_11d4,
        0xb3f3_8d15_885c_bfc9,
        0x629b_dd9b_9f99_89ca,
    ];
    let show = |d: &[u64]| d.iter().map(|v| format!("{v:016x}")).collect::<Vec<_>>();
    assert_eq!(show(&got), show(&want));
}
