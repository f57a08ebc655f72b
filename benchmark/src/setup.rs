//! Set-up: build the dataset, validate it, split it and lay out the
//! replay stream. Repeated so `setup_s` is a median, not one sample.

use std::time::Instant;

use rsd_dataset::{BuildConfig, DatasetBuilder, DatasetSplits, Rsd15k, SplitConfig};

use crate::serve::Stream;

/// Set-ups per run; `setup_s` is their median.
pub const REPS: usize = 3;

pub struct Setup {
    pub dataset: Rsd15k,
    pub unlabeled: Vec<String>,
    pub splits: DatasetSplits,
    pub stream: Stream,
    /// Whole set-up, per repetition.
    pub setup_s: Vec<f64>,
    /// `DatasetBuilder::build_with_pool`, per repetition.
    pub build_s: Vec<f64>,
    /// Repetitions whose `Rsd15k::validate` failed.
    pub invalid: u64,
}

pub fn run(cfg: &BuildConfig, seed: u64) -> Setup {
    let mut setup_s = Vec::with_capacity(REPS);
    let mut build_s = Vec::with_capacity(REPS);
    let mut invalid = 0;
    let mut last: Option<(Rsd15k, Vec<String>, DatasetSplits, Stream)> = None;
    for _ in 0..REPS {
        // Free the previous repetition first, so peak memory is one build's.
        drop(last.take());
        let t0 = Instant::now();
        let (dataset, unlabeled, _report) = DatasetBuilder::new(cfg.clone())
            .build_with_pool()
            .expect("dataset build");
        build_s.push(t0.elapsed().as_secs_f64());
        if let Err(e) = dataset.validate() {
            eprintln!("check failed: Rsd15k::validate: {e}");
            invalid += 1;
        }
        let splits = DatasetSplits::new(
            &dataset,
            SplitConfig {
                seed,
                ..SplitConfig::default()
            },
        )
        .expect("dataset splits");
        let stream = Stream::new(&dataset);
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((dataset, unlabeled, splits, stream));
    }
    let (dataset, unlabeled, splits, stream) = last.expect("REPS > 0");
    Setup {
        dataset,
        unlabeled,
        splits,
        stream,
        setup_s,
        build_s,
        invalid,
    }
}
