//! In-domain masked-language-model pretraining.
//!
//! The paper fine-tunes publicly pretrained RoBERTa/DeBERTa checkpoints;
//! no such weights exist for a from-scratch reproduction, so the PLM
//! baselines are first pretrained with BERT-style MLM on the large
//! *unannotated* pool the crawl produced — the same in-domain-knowledge
//! advantage, acquired the same way (self-supervision on unlabelled text).
//!
//! Standard 80/10/10 masking: of the 15 % selected positions, 80 % become
//! `[MASK]`, 10 % a random token, 10 % stay unchanged; loss is computed on
//! selected positions only.

use rand::rngs::StdRng;
use rand::Rng;

use crate::encoding::TaskEncoder;
use rsd_common::rng::{shuffle, stream_rng};
use rsd_common::{Result, RsdError};
use rsd_nn::transformer::{Encoder, MlmHead};
use rsd_nn::{Adam, ParamStore, Tape};
use rsd_text::SpecialToken;

/// MLM pretraining parameters.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    /// Fraction of positions selected for prediction.
    pub mask_prob: f32,
    /// Passes over the pretraining texts.
    pub epochs: usize,
    /// Minibatch size (gradient accumulation).
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            mask_prob: 0.15,
            epochs: 1,
            batch: 16,
            lr: 1e-3,
        }
    }
}

/// Apply BERT-style masking. Returns `(input_ids, targets)` where targets
/// pairs `(position, original_id)` for selected positions.
pub fn mask_tokens(
    ids: &[u32],
    vocab_size: usize,
    mask_prob: f32,
    rng: &mut StdRng,
) -> (Vec<u32>, Vec<(usize, u32)>) {
    let mut input = ids.to_vec();
    let mut targets = Vec::new();
    for (pos, &orig) in ids.iter().enumerate() {
        // Never mask [CLS]/[PAD].
        if orig == SpecialToken::Cls.id() || orig == SpecialToken::Pad.id() {
            continue;
        }
        if rng.gen::<f32>() >= mask_prob {
            continue;
        }
        targets.push((pos, orig));
        let roll: f32 = rng.gen();
        input[pos] = if roll < 0.8 {
            SpecialToken::Mask.id()
        } else if roll < 0.9 {
            rng.gen_range(SpecialToken::ALL.len() as u32..vocab_size as u32)
        } else {
            orig
        };
    }
    (input, targets)
}

/// Run MLM pretraining of `encoder` (+`head`) over `texts`. Returns the
/// mean masked-token loss of the final epoch.
pub fn mlm_pretrain(
    encoder: &Encoder,
    head: &MlmHead,
    store: &mut ParamStore,
    task_encoder: &TaskEncoder,
    texts: &[String],
    cfg: &PretrainConfig,
    seed: u64,
) -> Result<f32> {
    if texts.is_empty() {
        return Err(RsdError::data("mlm_pretrain: no texts"));
    }
    let vocab_size = task_encoder.vocab.len();
    let mut rng = stream_rng(seed, "pretrain.mlm");
    let mut opt = Adam::new(cfg.lr);
    let mut last_epoch_loss = 0.0f32;

    for _epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..texts.len()).collect();
        shuffle(&mut rng, &mut order);
        let mut epoch_loss = 0.0f64;
        let mut examples = 0usize;
        let mut in_batch = 0usize;

        for &i in &order {
            let ids = task_encoder.encode_text(&texts[i]);
            if ids.len() < 4 {
                continue;
            }
            let (input, targets) = mask_tokens(&ids, vocab_size, cfg.mask_prob, &mut rng);
            if targets.is_empty() {
                continue;
            }
            let mut tape = Tape::new();
            let states = encoder.forward(&mut tape, store, &input, None, &mut rng);
            let logits = head.forward(&mut tape, store, states);
            // Gather the masked rows and score them.
            let rows: Vec<_> = targets
                .iter()
                .map(|&(pos, _)| tape.select_row(logits, pos))
                .collect();
            let masked_logits = tape.concat_rows(&rows);
            let target_ids: Vec<usize> = targets.iter().map(|&(_, t)| t as usize).collect();
            let loss = tape.cross_entropy(masked_logits, &target_ids);
            epoch_loss += f64::from(tape.value(loss).data[0]);
            examples += 1;
            tape.backward(loss);
            tape.harvest_grads(store);
            in_batch += 1;
            if in_batch >= cfg.batch {
                store.scale_grads(1.0 / in_batch as f32);
                store.clip_grad_norm(5.0);
                opt.step(store);
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            store.scale_grads(1.0 / in_batch as f32);
            store.clip_grad_norm(5.0);
            opt.step(store);
        }
        rsd_nn::tape::publish_op_times();
        last_epoch_loss = if examples > 0 {
            (epoch_loss / examples as f64) as f32
        } else {
            0.0
        };
    }
    Ok(last_epoch_loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsd_nn::transformer::{EncoderConfig, PositionMode};

    #[test]
    fn masking_respects_specials_and_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let ids: Vec<u32> = std::iter::once(SpecialToken::Cls.id())
            .chain(10..200u32)
            .collect();
        let (input, targets) = mask_tokens(&ids, 300, 0.15, &mut rng);
        assert_eq!(input[0], SpecialToken::Cls.id(), "[CLS] never masked");
        let rate = targets.len() as f64 / (ids.len() - 1) as f64;
        assert!((rate - 0.15).abs() < 0.08, "mask rate {rate}");
        for &(pos, orig) in &targets {
            assert_eq!(ids[pos], orig, "targets store original ids");
        }
        // Most selected positions become [MASK].
        let masked = targets
            .iter()
            .filter(|&&(pos, _)| input[pos] == SpecialToken::Mask.id())
            .count();
        assert!(masked as f64 / targets.len() as f64 > 0.6);
    }

    #[test]
    fn pretraining_reduces_loss_on_repetitive_corpus() {
        // A highly repetitive corpus is easy to model; two epochs of MLM
        // must beat the uniform-guess loss ln(vocab).
        let texts: Vec<String> = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    "the cat sat on the mat again tonight".to_string()
                } else {
                    "the dog slept on the rug all day".to_string()
                }
            })
            .collect();
        let task_encoder = TaskEncoder::fit_on_texts(&texts, 100, 12);
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc_cfg = EncoderConfig {
            vocab: task_encoder.vocab.len(),
            dim: 16,
            layers: 1,
            heads: 2,
            ffn_dim: 32,
            max_len: 12,
            dropout: 0.0,
            positions: PositionMode::Absolute,
        };
        let encoder = Encoder::new(&mut store, "enc", enc_cfg, &mut rng);
        let head = MlmHead::new(&mut store, "mlm", 16, task_encoder.vocab.len(), &mut rng);
        let cfg = PretrainConfig {
            epochs: 3,
            batch: 8,
            ..Default::default()
        };
        let loss =
            mlm_pretrain(&encoder, &head, &mut store, &task_encoder, &texts, &cfg, 7).unwrap();
        let uniform = (task_encoder.vocab.len() as f32).ln();
        assert!(
            loss < uniform * 0.8,
            "MLM loss {loss} should beat uniform {uniform}"
        );
    }

    #[test]
    fn empty_corpus_rejected() {
        let texts: Vec<String> = vec!["a b c d e".to_string()];
        let task_encoder = TaskEncoder::fit_on_texts(&texts, 50, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let enc_cfg = EncoderConfig {
            vocab: task_encoder.vocab.len(),
            dim: 8,
            layers: 1,
            heads: 1,
            ffn_dim: 16,
            max_len: 8,
            dropout: 0.0,
            positions: PositionMode::Absolute,
        };
        let encoder = Encoder::new(&mut store, "enc", enc_cfg, &mut rng);
        let head = MlmHead::new(&mut store, "mlm", 8, task_encoder.vocab.len(), &mut rng);
        assert!(mlm_pretrain(
            &encoder,
            &head,
            &mut store,
            &task_encoder,
            &[],
            &PretrainConfig::default(),
            4
        )
        .is_err());
    }
}
