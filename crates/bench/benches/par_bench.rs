//! Microbenches for the `rsd-par` hot paths: the blocked matmul kernels
//! at 128/256/512 dims (reference vs new-serial vs 4-thread pool) and a
//! GBDT boosting round. `scripts/bench_kernels` (the `bench_kernels`
//! bin) writes the committed `BENCH_kernels.json` artifact from the same
//! workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use rsd_bench::reference;
use rsd_gbdt::{BinnedMatrix, Booster, BoosterConfig};
use rsd_nn::matrix::Matrix;

fn pseudo_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u64 ^ salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            ((h % 1000) as f32) / 500.0 - 1.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn bench_matmul(c: &mut Criterion) {
    for &dim in &[128usize, 256, 512] {
        let a = pseudo_matrix(dim, dim, 1);
        let b = pseudo_matrix(dim, dim, 2);
        c.bench_function(&format!("par/matmul_{dim}_reference"), |bch| {
            bch.iter(|| reference::matmul(&a, &b))
        });
        c.bench_function(&format!("par/matmul_{dim}_serial"), |bch| {
            bch.iter(|| rsd_par::run_serial(|| a.matmul(&b)))
        });
        c.bench_function(&format!("par/matmul_{dim}_pool4"), |bch| {
            bch.iter(|| rsd_par::with_local_pool(4, || a.matmul(&b)))
        });
    }
}

fn gbdt_data(n_rows: usize, n_features: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
    (0..n_rows)
        .map(|i| {
            let row: Vec<f32> = (0..n_features)
                .map(|f| {
                    let h = ((i * n_features + f) as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(13);
                    ((h % 1000) as f32) / 500.0 - 1.0
                })
                .collect();
            let label = ((row[0] > 0.0) as usize) * 2 + ((row[1] > 0.0) as usize);
            (row, label)
        })
        .unzip()
}

fn bench_gbdt_round(c: &mut Criterion) {
    let (rows, labels) = gbdt_data(1500, 32);
    let train = BinnedMatrix::fit(rows, 64).unwrap();
    let cfg = BoosterConfig {
        n_classes: 4,
        n_rounds: 1,
        early_stopping: 0,
        ..Default::default()
    };
    c.bench_function("par/gbdt_round_serial", |bch| {
        bch.iter(|| {
            rsd_par::run_serial(|| Booster::fit(&train, &labels, None, cfg.clone()).unwrap())
        })
    });
    c.bench_function("par/gbdt_round_pool4", |bch| {
        bch.iter(|| {
            rsd_par::with_local_pool(4, || {
                Booster::fit(&train, &labels, None, cfg.clone()).unwrap()
            })
        })
    });
}

criterion_group!(benches, bench_matmul, bench_gbdt_round);
criterion_main!(benches);
