//! Build the dataset and write it as JSONL — the harness entry point for
//! the streaming pipeline and the CI equivalence/resume gates.
//!
//! * `RSD_BUILD_MODE=stream` *(default)* runs the sharded streaming
//!   pipeline; `batch` runs the monolithic reference path. Both produce
//!   byte-identical JSONL for the same scale/seed.
//! * `RSD_BUILD_OUT=<path>` writes there (parent dirs created); unset
//!   writes to stdout.
//! * `RSD_CHECKPOINT_DIR=<dir>` checkpoints the streaming build there
//!   and resumes from it; unset, this binary uses
//!   `bench_runs/<scale>/checkpoints`, and `off` disables it. Batch mode
//!   never checkpoints.
//! * `RSD_SHARD_USERS` sizes the streaming executor's shards;
//!   `RSD_INTERRUPT_AFTER_SHARDS` injects a mid-build kill for resume
//!   testing (exit code 9, so scripts can tell an injected interrupt
//!   from a real failure).

use std::process::ExitCode;

use rsd_bench::BinHarness;
use rsd_common::RsdError;
use rsd_dataset::{io, DatasetBuilder, StreamingOptions};
use rsd_obs::knob;

// The streaming build is the workload whose memory profile matters (its
// whole point is bounded residency), so this binary hosts the counting
// allocator. The timed table bins deliberately do not: a custom global
// allocator suppresses rustc's allocation-elision optimizations, which
// alone costs several percent of wall-clock even with counting dormant.
#[global_allocator]
static ALLOC: rsd_obs::alloc::CountingAlloc = rsd_obs::alloc::CountingAlloc::new();

fn run() -> Result<ExitCode, RsdError> {
    let mut h = BinHarness::start("build_dataset");
    let scale = h.scale;
    let mode: String = knob::BUILD_MODE.get();
    let builder = DatasetBuilder::new(scale.build_config(h.seed));

    let dataset = if mode == "batch" {
        let (dataset, _pool, report) = builder.build_batch_with_pool()?;
        eprintln!(
            "batch build: {} posts / {} users (raw {} posts)",
            dataset.n_posts(),
            dataset.n_users(),
            report.raw_posts
        );
        dataset
    } else {
        let mut opts = StreamingOptions::from_env();
        if !knob::CHECKPOINT_DIR.is_set() {
            opts.checkpoint_dir = Some(format!("bench_runs/{}/checkpoints", scale.name()).into());
        }
        if let Some(dir) = &opts.checkpoint_dir {
            // `meta.knobs` shows the knob; this is where checkpoints went.
            h.run.set(
                "checkpoint_dir",
                rsd_obs::Value::from(dir.display().to_string()),
            );
        }
        let out = builder.build_streaming(&opts)?;
        let p = &out.pipeline;
        eprintln!(
            "streaming build: {} posts / {} users | {} shards x {} users, {} in flight, \
                 peak resident {} posts, checkpoints {} hit / {} written",
            out.dataset.n_posts(),
            out.dataset.n_users(),
            p.shards,
            p.shard_users,
            p.shards_in_flight,
            p.peak_resident_posts,
            p.checkpoint_hits,
            p.checkpoint_writes
        );
        out.dataset
    };

    match knob::BUILD_OUT.get::<Option<String>>() {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).map_err(RsdError::from)?;
            }
            io::save(&dataset, &path)?;
            eprintln!("wrote {}", path.display());
        }
        None => {
            let stdout = std::io::stdout();
            io::to_jsonl(&dataset, stdout.lock())?;
        }
    }

    h.run
        .set("mode", rsd_obs::Value::from(mode.as_str()))
        .set("posts", rsd_obs::Value::Int(dataset.n_posts() as i128))
        .set("users", rsd_obs::Value::Int(dataset.n_users() as i128));
    // The allocator gauges must land after the final series snapshot but
    // before the report's registry snapshot, hence the split finish.
    h.finish_telemetry();
    rsd_obs::alloc::publish_gauges();
    h.try_finish().map_err(RsdError::from)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        // Injected interrupts (resume tests) exit 9; real failures exit 1.
        Err(RsdError::PipelineState(msg)) if msg.contains("interrupted") => {
            eprintln!("interrupted: {msg}");
            ExitCode::from(9)
        }
        Err(e) => {
            eprintln!("build failed: {e}");
            ExitCode::FAILURE
        }
    }
}
