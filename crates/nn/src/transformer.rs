//! Transformer encoder stack and MLM pretraining head.
//!
//! Two position regimes, matching the two PLM baselines:
//!
//! * [`PositionMode::Absolute`] — learned absolute position embeddings
//!   added to token embeddings, standard attention (RoBERTa-style).
//! * [`PositionMode::Relative`] — no absolute embeddings; disentangled
//!   attention with relative position embeddings in every block
//!   (DeBERTa-style).
//!
//! Blocks are pre-norm (`x + attn(ln(x))`, `x + ffn(ln(x))`) — the stable
//! choice for small models trained from scratch.

use rand::rngs::StdRng;

use crate::attention::MultiHeadAttention;
use crate::layers::{Embedding, LayerNorm, Linear};
use crate::params::ParamStore;
use crate::tape::{Tape, Var};

/// Positional-information regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionMode {
    /// Learned absolute positions added to the input (RoBERTa-style).
    Absolute,
    /// Disentangled relative attention (DeBERTa-style) with the given
    /// maximum relative distance.
    Relative {
        /// Maximum relative offset represented exactly.
        radius: usize,
    },
}

/// Encoder hyperparameters.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub dim: usize,
    /// Number of blocks.
    pub layers: usize,
    /// Attention heads per block.
    pub heads: usize,
    /// FFN inner width.
    pub ffn_dim: usize,
    /// Maximum sequence length (for absolute position tables).
    pub max_len: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Position regime.
    pub positions: PositionMode,
}

/// One pre-norm encoder block.
pub struct EncoderBlock {
    /// Norm before attention.
    pub ln1: LayerNorm,
    /// Self-attention, with a relative table under
    /// [`PositionMode::Relative`].
    pub attn: MultiHeadAttention,
    /// Norm before the feed-forward network.
    pub ln2: LayerNorm,
    /// Feed-forward expansion (dim → ffn_dim).
    pub ffn1: Linear,
    /// Feed-forward projection back (ffn_dim → dim).
    pub ffn2: Linear,
}

impl EncoderBlock {
    fn new(store: &mut ParamStore, name: &str, cfg: &EncoderConfig, rng: &mut StdRng) -> Self {
        let attn_name = format!("{name}.attn");
        let attn = match cfg.positions {
            PositionMode::Absolute => {
                MultiHeadAttention::new(store, &attn_name, cfg.dim, cfg.heads, rng)
            }
            PositionMode::Relative { radius } => {
                MultiHeadAttention::relative(store, &attn_name, cfg.dim, cfg.heads, radius, rng)
            }
        };
        EncoderBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), cfg.dim),
            attn,
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), cfg.dim),
            ffn1: Linear::new(store, &format!("{name}.ffn1"), cfg.dim, cfg.ffn_dim, rng),
            ffn2: Linear::new(store, &format!("{name}.ffn2"), cfg.ffn_dim, cfg.dim, rng),
        }
    }

    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Var {
        let normed = self.ln1.forward(tape, store, x);
        let attn_out = self.attn.forward(tape, store, normed);
        let attn_out = tape.dropout(attn_out, dropout, rng);
        let x = tape.add(x, attn_out);

        let normed = self.ln2.forward(tape, store, x);
        let h = self.ffn1.forward(tape, store, normed);
        let h = tape.gelu(h);
        let h = self.ffn2.forward(tape, store, h);
        let h = tape.dropout(h, dropout, rng);
        tape.add(x, h)
    }
}

/// The encoder stack.
pub struct Encoder {
    /// Hyperparameters.
    pub cfg: EncoderConfig,
    /// Token embeddings.
    pub token_emb: Embedding,
    /// Absolute position embeddings ([`PositionMode::Absolute`] only).
    pub pos_emb: Option<Embedding>,
    /// The blocks, in order.
    pub blocks: Vec<EncoderBlock>,
    /// Norm after the last block.
    pub final_ln: LayerNorm,
}

impl Encoder {
    /// Register a full encoder in `store`.
    pub fn new(store: &mut ParamStore, name: &str, cfg: EncoderConfig, rng: &mut StdRng) -> Self {
        let token_emb = Embedding::new(store, &format!("{name}.tok"), cfg.vocab, cfg.dim, rng);
        let pos_emb = match cfg.positions {
            PositionMode::Absolute => Some(Embedding::new(
                store,
                &format!("{name}.pos"),
                cfg.max_len,
                cfg.dim,
                rng,
            )),
            PositionMode::Relative { .. } => None,
        };
        let blocks = (0..cfg.layers)
            .map(|i| EncoderBlock::new(store, &format!("{name}.block{i}"), &cfg, rng))
            .collect();
        let final_ln = LayerNorm::new(store, &format!("{name}.ln_f"), cfg.dim);
        Encoder {
            cfg,
            token_emb,
            pos_emb,
            blocks,
            final_ln,
        }
    }

    /// Encode token ids into contextual states (seq×dim).
    ///
    /// `extra` — optional per-token feature rows (seq×dim) added to the
    /// embeddings before the first block; the temporal-feature fusion path
    /// the paper's PLM baselines use.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        ids: &[u32],
        extra: Option<Var>,
        rng: &mut StdRng,
    ) -> Var {
        assert!(!ids.is_empty(), "Encoder::forward: empty sequence");
        assert!(
            ids.len() <= self.cfg.max_len,
            "sequence longer than max_len"
        );
        let mut x = self.token_emb.forward(tape, store, ids);
        if let Some(pos) = &self.pos_emb {
            let positions: Vec<u32> = (0..ids.len() as u32).collect();
            let p = pos.forward(tape, store, &positions);
            x = tape.add(x, p);
        }
        if let Some(extra) = extra {
            x = tape.add(x, extra);
        }
        let x = tape.dropout(x, self.cfg.dropout, rng);
        let mut h = x;
        for block in &self.blocks {
            h = block.forward(tape, store, h, self.cfg.dropout, rng);
        }
        self.final_ln.forward(tape, store, h)
    }
}

/// Masked-language-model head: projects contextual states back to vocab
/// logits. Used for the in-domain pretraining that substitutes for public
/// PLM checkpoints.
pub struct MlmHead {
    proj: Linear,
}

impl MlmHead {
    /// Register the head.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        vocab: usize,
        rng: &mut StdRng,
    ) -> Self {
        MlmHead {
            proj: Linear::new(store, &format!("{name}.proj"), dim, vocab, rng),
        }
    }

    /// Logits (seq×vocab) from encoder states.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, states: Var) -> Var {
        self.proj.forward(tape, store, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn cfg(positions: PositionMode) -> EncoderConfig {
        EncoderConfig {
            vocab: 50,
            dim: 16,
            layers: 2,
            heads: 2,
            ffn_dim: 32,
            max_len: 12,
            dropout: 0.0,
            positions,
        }
    }

    #[test]
    fn absolute_encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, "e", cfg(PositionMode::Absolute), &mut rng);
        let mut tape = Tape::inference();
        let h = enc.forward(&mut tape, &store, &[1, 2, 3, 4], None, &mut rng);
        assert_eq!(tape.shape(h), (4, 16));
    }

    #[test]
    fn relative_encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc = Encoder::new(
            &mut store,
            "e",
            cfg(PositionMode::Relative { radius: 4 }),
            &mut rng,
        );
        let mut tape = Tape::inference();
        let h = enc.forward(&mut tape, &store, &[1, 2, 3], None, &mut rng);
        assert_eq!(tape.shape(h), (3, 16));
    }

    #[test]
    fn position_information_differentiates_orders() {
        // Same bag of tokens, different order → different CLS state, in
        // both position regimes.
        for mode in [PositionMode::Absolute, PositionMode::Relative { radius: 4 }] {
            let mut rng = StdRng::seed_from_u64(3);
            let mut store = ParamStore::new();
            let enc = Encoder::new(&mut store, "e", cfg(mode), &mut rng);
            let encode = |ids: &[u32]| {
                let mut t = Tape::inference();
                let mut r = StdRng::seed_from_u64(0);
                let h = enc.forward(&mut t, &store, ids, None, &mut r);
                t.value(h).row(0).to_vec()
            };
            let a = encode(&[5, 6, 7, 8]);
            let b = encode(&[5, 8, 7, 6]);
            let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(diff > 1e-4, "{mode:?} must be order-sensitive");
        }
    }

    #[test]
    fn mlm_head_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, "e", cfg(PositionMode::Absolute), &mut rng);
        let head = MlmHead::new(&mut store, "mlm", 16, 50, &mut rng);
        let mut tape = Tape::new();
        let h = enc.forward(&mut tape, &store, &[1, 2, 3], None, &mut rng);
        let logits = head.forward(&mut tape, &store, h);
        assert_eq!(tape.shape(logits), (3, 50));
    }

    #[test]
    fn encoder_trains_on_a_toy_task() {
        // Distinguish sequences by their first token (needs positions).
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, "e", cfg(PositionMode::Absolute), &mut rng);
        let head = crate::layers::Linear::new(&mut store, "cls", 16, 2, &mut rng);
        let mut opt = crate::optim::Adam::new(0.01);
        let data: Vec<(Vec<u32>, usize)> = vec![
            (vec![10, 20, 30], 0),
            (vec![11, 20, 30], 1),
            (vec![10, 21, 31], 0),
            (vec![11, 21, 31], 1),
        ];
        for _ in 0..60 {
            for (ids, y) in &data {
                let mut tape = Tape::new();
                let h = enc.forward(&mut tape, &store, ids, None, &mut rng);
                let cls = tape.select_row(h, 0);
                let logits = head.forward(&mut tape, &store, cls);
                let loss = tape.cross_entropy(logits, &[*y]);
                tape.backward(loss);
                tape.harvest_grads(&mut store);
                opt.step(&mut store);
            }
        }
        let mut correct = 0;
        for (ids, y) in &data {
            let mut tape = Tape::inference();
            let h = enc.forward(&mut tape, &store, ids, None, &mut rng);
            let cls = tape.select_row(h, 0);
            let logits = head.forward(&mut tape, &store, cls);
            if crate::loss::argmax_rows(tape.value(logits))[0] == *y {
                correct += 1;
            }
        }
        assert_eq!(correct, 4);
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, "e", cfg(PositionMode::Absolute), &mut rng);
        let mut tape = Tape::new();
        enc.forward(&mut tape, &store, &[], None, &mut rng);
    }
}
