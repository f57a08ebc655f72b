//! The streaming build's contract: the same bytes under any shard
//! geometry, thread count, or kill/resume schedule, with one wave of
//! shards resident at a time. The committed digests in
//! `crates/dataset/tests/build_digest.rs` pin those bytes at smoke and mid
//! scale; the tests here compare streaming runs with each other.

use std::path::PathBuf;

use rsd_dataset::io::to_jsonl;
use rsd_dataset::{BuildConfig, DatasetBuilder, StreamingBuild, StreamingOptions};
use rsd_pipeline::PipelineConfig;

fn small_cfg(seed: u64) -> BuildConfig {
    // Matches `Scale::Small` in rsd-bench.
    BuildConfig::scaled(seed, 2_500, 48)
}

fn opts(shard_users: usize, shards_in_flight: usize) -> StreamingOptions {
    StreamingOptions {
        pipeline: PipelineConfig {
            shard_users,
            shards_in_flight,
            interrupt_after_shards: None,
        },
        checkpoint_dir: None,
        interrupt_after_stage: None,
    }
}

fn jsonl(dataset: &rsd_dataset::Rsd15k) -> Vec<u8> {
    let mut buf = Vec::new();
    to_jsonl(dataset, &mut buf).unwrap();
    buf
}

fn stream(cfg: &BuildConfig, opts: &StreamingOptions) -> (Vec<u8>, Vec<String>, String) {
    let out = DatasetBuilder::new(cfg.clone())
        .build_streaming(opts)
        .unwrap();
    let report = serde_json::to_string(&out.report).unwrap();
    (jsonl(&out.dataset), out.unlabeled, report)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsd_stream_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn streaming_is_bit_identical_across_shard_geometries_at_small_scale() {
    let cfg = small_cfg(2026);
    // One shard holding every user crawls the whole pool at once; the
    // others divide the users unevenly.
    let whole = stream(&cfg, &opts(2_500, 1));
    for (shard_users, in_flight) in [(700, 2), (512, 4)] {
        let got = stream(&cfg, &opts(shard_users, in_flight));
        assert_eq!(
            whole.0, got.0,
            "dataset JSONL diverged (shard_users={shard_users}, in_flight={in_flight})"
        );
        assert_eq!(whole.1, got.1, "unlabeled pool diverged");
        assert_eq!(whole.2, got.2, "build report diverged");
    }
}

#[test]
fn streaming_equivalence_holds_single_threaded() {
    let cfg = small_cfg(7);
    let sharded = rsd_par::run_serial(|| stream(&cfg, &opts(600, 3)));
    let single = rsd_par::with_local_pool(4, || stream(&cfg, &opts(2_500, 1)));
    assert_eq!(sharded, single);
}

/// Mid-scale residency run — minutes of debug-build wall-clock, so gated
/// behind `--ignored` and run by CI in release mode.
#[test]
#[ignore]
fn mid_scale_residency_stays_within_one_wave() {
    let cfg = BuildConfig::scaled(2026, 24_000, 400);
    let (shard_users, in_flight) = (4_096, 4);
    let out = DatasetBuilder::new(cfg)
        .build_streaming(&opts(shard_users, in_flight))
        .unwrap();
    // The bounded-memory claim at mid scale: one wave of shards, not the
    // full raw pool.
    let peak = out.pipeline.peak_resident_posts;
    let bound = (shard_users * in_flight * 120) as u64;
    assert!(peak <= bound, "peak {peak} exceeds wave bound {bound}");
    assert!(peak < out.report.raw_posts as u64);
}

#[test]
fn killed_build_resumes_from_checkpoints() {
    let cfg = small_cfg(33);
    let dir = fresh_dir("resume");
    let golden = stream(&cfg, &opts(600, 2));

    // First run dies after two shards; its completed boundaries persist.
    let mut killed = opts(600, 2);
    killed.checkpoint_dir = Some(dir.clone());
    killed.pipeline.interrupt_after_shards = Some(2);
    let err = DatasetBuilder::new(cfg.clone())
        .build_streaming(&killed)
        .unwrap_err();
    assert!(err.to_string().contains("interrupted"), "{err}");

    // The resumed run replays those shards from disk and must reproduce
    // the uninterrupted dataset exactly.
    let mut resume = opts(600, 2);
    resume.checkpoint_dir = Some(dir.clone());
    let out: StreamingBuild = DatasetBuilder::new(cfg.clone())
        .build_streaming(&resume)
        .unwrap();
    assert!(
        out.pipeline.checkpoint_hits >= 2,
        "resume replayed {} checkpoints",
        out.pipeline.checkpoint_hits
    );
    assert_eq!(golden.0, jsonl(&out.dataset));
    assert_eq!(golden.1, out.unlabeled);
    assert_eq!(golden.2, serde_json::to_string(&out.report).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_after_global_stage_resumes_identically() {
    let cfg = small_cfg(41);
    let dir = fresh_dir("resume_global");
    let golden = stream(&cfg, &opts(600, 2));

    let mut killed = opts(600, 2);
    killed.checkpoint_dir = Some(dir.clone());
    killed.interrupt_after_stage = Some("pipeline.select".to_string());
    let err = DatasetBuilder::new(cfg.clone())
        .build_streaming(&killed)
        .unwrap_err();
    assert!(err.to_string().contains("pipeline.select"), "{err}");

    let mut resume = opts(600, 2);
    resume.checkpoint_dir = Some(dir.clone());
    let out = DatasetBuilder::new(cfg.clone())
        .build_streaming(&resume)
        .unwrap();
    // Every shard plus the selection stage replays from disk.
    assert!(out.pipeline.checkpoint_hits > out.pipeline.shards as u64);
    assert_eq!(golden.0, jsonl(&out.dataset));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resident_posts_stay_bounded_by_the_wave() {
    let cfg = BuildConfig::scaled(9, 8_000, 60);
    let (shard_users, in_flight) = (1_024, 2);
    let out = DatasetBuilder::new(cfg)
        .build_streaming(&opts(shard_users, in_flight))
        .unwrap();
    let peak = out.pipeline.peak_resident_posts;
    assert!(peak > 0, "gauge never engaged");
    // The corpus model tops out well under 120 posts/user, so one wave of
    // shards bounds residency at shard_users * in_flight * 120 — far
    // below the full raw pool.
    let bound = (shard_users * in_flight * 120) as u64;
    assert!(peak <= bound, "peak {peak} exceeds wave bound {bound}");
    assert!(
        peak < out.report.raw_posts as u64,
        "peak {peak} not below raw pool {}",
        out.report.raw_posts
    );
}
