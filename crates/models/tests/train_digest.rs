//! Committed training digests: a toy BiLSTM, a toy HiGRU and a toy DeBERTa
//! are trained at a fixed seed, and a hash of every trained parameter bit plus the
//! validation macro-F1 history must equal a committed constant. Any
//! change to the f32 tape, its kernels, the trainer's gradient harvest
//! or the optimizer that moves a single bit of a trained weight fails
//! here, under forced-serial execution and under a 4-thread pool alike.

use rand::rngs::StdRng;
use rsd_common::rng::stream_rng;
use rsd_corpus::RiskLevel;
use rsd_models::pretrain::{mlm_pretrain, PretrainConfig};
use rsd_models::trainer::{train_classifier, ForwardFn};
use rsd_models::{EncodedWindow, TaskEncoder, TrainConfig, TIME_FEATURE_DIM};
use rsd_nn::attention::MultiHeadAttention;
use rsd_nn::layers::{Embedding, LayerNorm, Linear};
use rsd_nn::matrix::Matrix;
use rsd_nn::rnn::{Gru, Lstm};
use rsd_nn::transformer::{Encoder, EncoderConfig, MlmHead, PositionMode};
use rsd_nn::{ParamStore, Tape, Var};

const SEED: u64 = 2026;

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

/// Every parameter's shape and value bits, in registration order, then
/// the validation history's bits.
fn digest(store: &ParamStore, history: &[f64]) -> u64 {
    let mut d = Digest::new();
    for id in store.ids() {
        let m = store.value(id);
        d.word(m.rows as u64);
        d.word(m.cols as u64);
        for v in &m.data {
            d.word(u64::from(v.to_bits()));
        }
    }
    d.word(history.len() as u64);
    for f in history {
        d.word(f.to_bits());
    }
    d.0
}

/// Deterministic xorshift stream for the synthetic corpus.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }
}

/// A text whose words lean towards `label`'s quarter of the vocabulary.
fn text(rng: &mut Lcg, label: usize, len: usize) -> String {
    (0..len)
        .map(|_| {
            let word = if rng.next(3) == 0 {
                rng.next(48)
            } else {
                label * 12 + rng.next(12)
            };
            format!("w{word}")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

struct Corpus {
    encoder: TaskEncoder,
    texts: Vec<String>,
    train: Vec<EncodedWindow>,
    valid: Vec<EncodedWindow>,
}

fn corpus() -> Corpus {
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    let texts: Vec<String> = (0..40)
        .map(|i| {
            let len = 6 + rng.next(6);
            text(&mut rng, i % RiskLevel::COUNT, len)
        })
        .collect();
    let encoder = TaskEncoder::fit_on_texts(&texts, 60, 9);
    let mut window = |label: usize| {
        let posts = 1 + rng.next(3);
        let mut post_tokens = Vec::new();
        let mut time_feats = Vec::new();
        for p in 0..posts {
            let len = 3 + rng.next(7);
            post_tokens.push(encoder.encode_text(&text(&mut rng, label, len)));
            let mut feats = [0.0f32; TIME_FEATURE_DIM];
            for (k, f) in feats.iter_mut().enumerate() {
                *f = (rng.next(2001) as f32 - 1000.0) * 1e-3 + (p + k) as f32 * 0.01;
            }
            time_feats.push(feats);
        }
        EncodedWindow {
            post_tokens,
            time_feats,
            label,
        }
    };
    let train = (0..36)
        .map(|i| window((i * 7) % RiskLevel::COUNT))
        .collect();
    let valid = (0..12).map(|i| window(i % RiskLevel::COUNT)).collect();
    Corpus {
        encoder,
        texts,
        train,
        valid,
    }
}

fn time_rows(tape: &mut Tape, example: &EncodedWindow) -> Var {
    let data: Vec<f32> = example.time_feats.iter().flatten().copied().collect();
    tape.constant(Matrix::from_vec(
        example.time_feats.len(),
        TIME_FEATURE_DIM,
        data,
    ))
}

/// Same structure as the BiLSTM baseline at toy width: time rows and
/// token embeddings fused by attention, a BiLSTM, mean pooling, a head.
fn toy_bilstm(c: &Corpus) -> u64 {
    const EMB: usize = 12;
    const HIDDEN: usize = 10;
    let mut rng = stream_rng(SEED, "digest.bilstm.init");
    let mut store = ParamStore::new();
    let vocab = c.encoder.vocab.len();
    let emb = Embedding::new(&mut store, "emb", vocab, EMB, &mut rng);
    let time_proj = Linear::new(&mut store, "time", TIME_FEATURE_DIM, EMB, &mut rng);
    let fusion = MultiHeadAttention::new(&mut store, "fusion", EMB, 2, &mut rng);
    let lstm = Lstm::new(&mut store, "lstm", EMB, HIDDEN, &mut rng);
    let head = Linear::new(&mut store, "head", 2 * HIDDEN, RiskLevel::COUNT, &mut rng);
    let forward = |tape: &mut Tape, store: &ParamStore, ex: &EncodedWindow, _: &mut StdRng| {
        let raw = time_rows(tape, ex);
        let time = time_proj.forward(tape, store, raw);
        let tokens = emb.forward(tape, store, &ex.window_tokens(20));
        let combined = tape.concat_rows(&[time, tokens]);
        let fused = fusion.forward(tape, store, combined);
        let residual = tape.add(combined, fused);
        let fwd = lstm.run(tape, store, residual, false);
        let bwd = lstm.run(tape, store, residual, true);
        let states = tape.concat_cols(&[fwd, bwd]);
        let pooled = tape.mean_rows(states);
        head.forward(tape, store, pooled)
    };
    let cfg = TrainConfig {
        epochs: 2,
        batch: 4,
        lr: 2e-3,
        patience: 0,
        ..Default::default()
    };
    let history = train_classifier(&mut store, &forward, &c.train, &c.valid, &cfg, SEED).unwrap();
    digest(&store, &history)
}

/// Same structure as the HiGRU baseline at toy width: a bidirectional
/// token GRU per post (final states plus a projected bag-of-embeddings
/// residual, layer-normed) with the post's projected time row added, a
/// post-level GRU, attention over its states, and a head on the last
/// state beside the mean attended state.
fn toy_higru(c: &Corpus) -> u64 {
    const EMB: usize = 8;
    const TOKEN_HIDDEN: usize = 5;
    const POST_HIDDEN: usize = 8;
    let post_dim = 2 * TOKEN_HIDDEN;
    let mut rng = stream_rng(SEED, "digest.higru.init");
    let mut store = ParamStore::new();
    let vocab = c.encoder.vocab.len();
    let emb = Embedding::new(&mut store, "emb", vocab, EMB, &mut rng);
    let token_gru = Gru::new(&mut store, "token_gru", EMB, TOKEN_HIDDEN, &mut rng);
    let token_ln = LayerNorm::new(&mut store, "token_ln", post_dim);
    let token_res = Linear::new(&mut store, "token_res", EMB, post_dim, &mut rng);
    let time_proj = Linear::new(&mut store, "time", TIME_FEATURE_DIM, post_dim, &mut rng);
    let post_gru = Gru::new(&mut store, "post_gru", post_dim, POST_HIDDEN, &mut rng);
    let attention = MultiHeadAttention::new(&mut store, "attn", POST_HIDDEN, 2, &mut rng);
    let head = Linear::new(
        &mut store,
        "head",
        2 * POST_HIDDEN,
        RiskLevel::COUNT,
        &mut rng,
    );
    let forward = |tape: &mut Tape, store: &ParamStore, ex: &EncodedWindow, _: &mut StdRng| {
        let mut post_rows = Vec::with_capacity(ex.post_tokens.len());
        for (tokens, time) in ex.post_tokens.iter().zip(&ex.time_feats) {
            let embs = emb.forward(tape, store, tokens);
            let fwd = token_gru.run(tape, store, embs, false);
            let bwd = token_gru.run(tape, store, embs, true);
            let (n, _) = tape.shape(fwd);
            let fwd_last = tape.select_row(fwd, n - 1);
            let bwd_first = tape.select_row(bwd, 0);
            let pooled = tape.concat_cols(&[fwd_last, bwd_first]);
            let bag = tape.mean_rows(embs);
            let res = token_res.forward(tape, store, bag);
            let summed = tape.add(pooled, res);
            let text_vec = token_ln.forward(tape, store, summed);
            let t = tape.constant(Matrix::row_vec(time.to_vec()));
            let t = time_proj.forward(tape, store, t);
            post_rows.push(tape.add(text_vec, t));
        }
        let posts = tape.concat_rows(&post_rows);
        let states = post_gru.run(tape, store, posts, false);
        let attended = attention.forward(tape, store, states);
        let (n_posts, _) = tape.shape(states);
        let last_state = tape.select_row(states, n_posts - 1);
        let ctx = tape.mean_rows(attended);
        let both = tape.concat_cols(&[last_state, ctx]);
        head.forward(tape, store, both)
    };
    let cfg = TrainConfig {
        epochs: 2,
        batch: 4,
        lr: 2e-3,
        patience: 0,
        ..Default::default()
    };
    let history = train_classifier(&mut store, &forward, &c.train, &c.valid, &cfg, SEED).unwrap();
    digest(&store, &history)
}

/// Same structure as the DeBERTa baseline at toy width: one MLM epoch on
/// the texts, then one fine-tuning epoch with dropout and temporal fusion.
fn toy_deberta(c: &Corpus) -> u64 {
    const DIM: usize = 12;
    let mut rng = stream_rng(SEED, "digest.deberta.init");
    let mut store = ParamStore::new();
    let vocab = c.encoder.vocab.len();
    let encoder = Encoder::new(
        &mut store,
        "enc",
        EncoderConfig {
            vocab,
            dim: DIM,
            layers: 1,
            heads: 2,
            ffn_dim: 20,
            max_len: 24,
            dropout: 0.1,
            positions: PositionMode::Relative { radius: 3 },
        },
        &mut rng,
    );
    let time_proj = Linear::new(&mut store, "time", TIME_FEATURE_DIM, DIM, &mut rng);
    let head = Linear::new(&mut store, "head", DIM, RiskLevel::COUNT, &mut rng);
    let mlm = MlmHead::new(&mut store, "mlm", DIM, vocab, &mut rng);
    let pretrain = PretrainConfig {
        batch: 4,
        ..Default::default()
    };
    let mlm_loss = mlm_pretrain(
        &encoder, &mlm, &mut store, &c.encoder, &c.texts, &pretrain, SEED,
    )
    .unwrap();

    let forward = |tape: &mut Tape, store: &ParamStore, ex: &EncodedWindow, rng: &mut StdRng| {
        let ids = ex.window_tokens(24);
        let raw = time_rows(tape, ex);
        let projected = time_proj.forward(tape, store, raw);
        let summary = tape.mean_rows(projected);
        let ones = tape.constant(Matrix::full(ids.len(), 1, 1.0));
        let extra = tape.matmul(ones, summary);
        let states = encoder.forward(tape, store, &ids, Some(extra), rng);
        let pooled = tape.mean_rows(states);
        head.forward(tape, store, pooled)
    };
    let forward: &ForwardFn<'_> = &forward;
    let cfg = TrainConfig {
        epochs: 1,
        batch: 4,
        patience: 0,
        ..Default::default()
    };
    let mut history =
        train_classifier(&mut store, forward, &c.train, &c.valid, &cfg, SEED).unwrap();
    history.push(f64::from(mlm_loss));
    digest(&store, &history)
}

fn digests() -> (u64, u64, u64) {
    let c = corpus();
    (toy_bilstm(&c), toy_higru(&c), toy_deberta(&c))
}

const BILSTM_DIGEST: u64 = 0xf83d_37df_c2a5_3666;
const HIGRU_DIGEST: u64 = 0x8e25_9624_64de_d849;
const DEBERTA_DIGEST: u64 = 0xbb80_4704_b0f8_6701;

#[test]
fn trained_weights_match_committed_digest() {
    for (what, got) in [
        ("serial", rsd_par::run_serial(digests)),
        ("4-thread pool", rsd_par::with_local_pool(4, digests)),
    ] {
        assert_eq!(
            got,
            (BILSTM_DIGEST, HIGRU_DIGEST, DEBERTA_DIGEST),
            "{what}: trained-weight digests (bilstm, higru, deberta) moved: \
             {:#018x}, {:#018x}, {:#018x}",
            got.0,
            got.1,
            got.2
        );
    }
}
