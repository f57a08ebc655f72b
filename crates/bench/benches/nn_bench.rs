//! Microbenches for the neural substrate: forward/backward of the
//! attention variants (absolute vs disentangled — the DeBERTa ablation's
//! compute cost) and an LSTM step.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsd_nn::attention::MultiHeadAttention;
use rsd_nn::matrix::Matrix;
use rsd_nn::rnn::Lstm;
use rsd_nn::{ParamStore, Tape};

const SEQ: usize = 48;
const DIM: usize = 48;

fn input() -> Matrix {
    Matrix::from_vec(
        SEQ,
        DIM,
        (0..SEQ * DIM)
            .map(|i| ((i % 13) as f32) * 0.1 - 0.6)
            .collect(),
    )
}

fn bench_absolute_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::new(&mut store, "a", DIM, 4, &mut rng);
    c.bench_function("nn/attention_absolute_fwd_bwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(input());
            let y = attn.forward(&mut tape, &store, x);
            let loss = tape.mean_rows(y);
            tape.backward(loss);
            tape.grad(x)
        })
    });
}

fn bench_disentangled_attention(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::relative(&mut store, "d", DIM, 4, 8, &mut rng);
    c.bench_function("nn/attention_disentangled_fwd_bwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(input());
            let y = attn.forward(&mut tape, &store, x);
            let loss = tape.mean_rows(y);
            tape.backward(loss);
            tape.grad(x)
        })
    });
}

fn bench_lstm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, "l", DIM, DIM, &mut rng);
    c.bench_function("nn/bilstm_seq48_fwd_bwd", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let x = tape.constant(input());
            let fwd = lstm.run(&mut tape, &store, x, false);
            let bwd = lstm.run(&mut tape, &store, x, true);
            let both = tape.concat_cols(&[fwd, bwd]);
            let loss = tape.mean_rows(both);
            tape.backward(loss);
            tape.grad(x)
        })
    });
}

criterion_group!(
    benches,
    bench_absolute_attention,
    bench_disentangled_attention,
    bench_lstm
);
criterion_main!(benches);
