//! Allocation-tracking proof of the streaming pipeline's bounded-memory
//! claim: with the counting allocator installed, a build over small shards
//! must peak below the same build run as one shard holding every user,
//! which keeps the whole raw pool resident at once. Lives in its own test
//! binary because `#[global_allocator]` is process-wide and the telemetry
//! mode latches on first use.

use rsd15k::obs;
use rsd_dataset::{BuildConfig, DatasetBuilder, StreamingOptions};
use rsd_pipeline::PipelineConfig;

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

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

/// Peak live bytes above the starting level while `build` runs, and the
/// built dataset's post count.
fn peak_of(build: impl FnOnce() -> usize) -> (u64, usize) {
    let base = obs::alloc::live_bytes();
    obs::alloc::reset_peak();
    let posts = build();
    (obs::alloc::peak_live_bytes().saturating_sub(base), posts)
}

#[test]
fn small_shards_peak_below_one_whole_pool_shard() {
    // Registry on, no NDJSON sink — we only want gauges. Counting arms
    // at init; the probe allocation below is the first one observed.
    assert!(obs::init(obs::Mode::Silent));
    std::hint::black_box(vec![0u8; 4096]);
    assert!(obs::alloc::active(), "counting allocator not installed");

    let n_users = 8_000;
    let builder = DatasetBuilder::new(BuildConfig::scaled(2026, n_users, 96));
    let build = |opts: StreamingOptions| builder.build_streaming(&opts).unwrap().dataset.n_posts();

    let (whole_peak, whole_posts) = peak_of(|| build(opts(n_users, 1)));
    assert!(whole_peak > 0, "allocator saw no single-shard traffic");
    // Small shards, two in flight: the working set is a wave, not the
    // whole raw corpus.
    let (stream_peak, stream_posts) = peak_of(|| build(opts(16, 2)));

    assert_eq!(whole_posts, stream_posts, "builds diverged");
    assert!(
        stream_peak < whole_peak,
        "16-user shards peak {stream_peak} B not below single-shard peak {whole_peak} B"
    );

    // The successful streaming build published the allocator gauges.
    let gauges = &obs::snapshot()["gauges"];
    for key in [
        "alloc.allocated_bytes",
        "alloc.live_bytes",
        "alloc.peak_live_bytes",
        "alloc.allocations",
    ] {
        assert!(
            gauges[key].as_f64().is_some(),
            "missing allocator gauge {key}: {gauges}"
        );
    }
    assert!(gauges["alloc.peak_live_bytes"].as_f64().unwrap() > 0.0);
}
