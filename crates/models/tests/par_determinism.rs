//! Thread-count independence of the training loop: `train_classifier`
//! and `evaluate` must produce bit-identical histories and identical
//! confusion matrices whether examples fan out over 1 thread, 4
//! threads, or run serially — the satellite guarantee behind "same
//! table-3 metrics for any `RSD_THREADS`".

use rand::rngs::StdRng;
use rand::Rng;
use rsd_common::rng::stream_rng;
use rsd_models::encoding::TIME_FEATURE_DIM;
use rsd_models::trainer::{evaluate, train_classifier};
use rsd_models::{EncodedWindow, TrainConfig};
use rsd_nn::{ParamStore, Tape, Var};

/// A toy forward that ignores text and learns only the bias.
fn bias_only_forward(
    n_classes: usize,
) -> (
    ParamStore,
    impl Fn(&mut Tape, &ParamStore, &EncodedWindow, &mut StdRng) -> Var,
) {
    let mut store = ParamStore::new();
    let bias = store.register_zeros("bias", 1, n_classes);
    (
        store,
        move |tape: &mut Tape, store: &ParamStore, _ex: &EncodedWindow, rng: &mut StdRng| {
            let _ = rng.gen::<u32>();
            tape.param(store, bias)
        },
    )
}

fn toy_examples(n: usize) -> Vec<EncodedWindow> {
    (0..n)
        .map(|i| {
            let label = i % 4;
            EncodedWindow {
                post_tokens: vec![vec![2, 5 + label as u32]],
                time_feats: vec![[0.0; TIME_FEATURE_DIM]],
                label,
            }
        })
        .collect()
}

fn run_once() -> (Vec<u64>, Vec<Vec<u64>>) {
    let (mut store, forward) = bias_only_forward(4);
    let train = toy_examples(60);
    let valid = toy_examples(24);
    let cfg = TrainConfig {
        epochs: 3,
        batch: 8,
        patience: 0,
        ..Default::default()
    };
    let history = train_classifier(&mut store, &forward, &train, &valid, &cfg, 11).unwrap();
    let mut rng = stream_rng(11, "par.determinism.eval");
    let confusion = evaluate(&store, &forward, &valid, &mut rng).unwrap();
    let table: Vec<Vec<u64>> = (0..confusion.n_classes())
        .map(|t| {
            (0..confusion.n_classes())
                .map(|p| confusion.get(t, p))
                .collect()
        })
        .collect();
    (history.iter().map(|f| f.to_bits()).collect(), table)
}

#[test]
fn training_metrics_identical_across_thread_counts() {
    let serial = rsd_par::run_serial(run_once);
    let one = rsd_par::with_local_pool(1, run_once);
    let four = rsd_par::with_local_pool(4, run_once);
    assert_eq!(serial, one, "serial vs 1-thread pool diverged");
    assert_eq!(serial, four, "serial vs 4-thread pool diverged");
}
