//! `run_shards` must leave the stall watchdog on every exit path: a
//! `pipeline.shards` registration that is never finished would be
//! reported as stalled, and `/health` would latch as degraded, for a stage
//! that is no longer running. Own test binary because the registry's
//! watch flags are process-global.

use rsd_common::{Result, RsdError};
use rsd_pipeline::{run_shards, PipelineConfig, ShardPlan, ShardSpec};

const STAGE: &str = "pipeline.shards";

/// Each shard reports whether the stage was watched while it ran; the
/// fold asserts it and counts the shards it saw.
fn watched_shard(s: &ShardSpec) -> Result<(usize, bool)> {
    match s.index {
        4 => Err(RsdError::data("injected shard failure")),
        i => Ok((i, rsd_obs::registry().watching(STAGE))),
    }
}

#[test]
fn every_exit_path_finishes_the_shards_stage() {
    assert!(rsd_obs::init(rsd_obs::Mode::Silent));
    let plan = ShardPlan::new(100, 10).unwrap();
    let cfg = PipelineConfig {
        shards_in_flight: 2,
        ..Default::default()
    };
    let mut folded = 0;
    let mut fold = |_: &ShardSpec, (i, watched): (usize, bool)| -> Result<()> {
        assert!(watched, "shard {i} ran outside the watchdog");
        folded += 1;
        Ok(())
    };

    // Interrupt path: three shards fold, then the build aborts.
    let interrupted = PipelineConfig {
        interrupt_after_shards: Some(3),
        ..cfg.clone()
    };
    let out = run_shards(&interrupted, &plan, watched_shard, &mut fold);
    assert!(matches!(out, Err(RsdError::PipelineState(_))), "{out:?}");
    assert!(
        !rsd_obs::registry().watching(STAGE),
        "interrupt leaked the registration"
    );

    // Shard-error path: shards 0..4 fold, shard 4 fails.
    let out = run_shards(&cfg, &plan, watched_shard, &mut fold);
    assert!(matches!(out, Err(RsdError::InvalidData(_))), "{out:?}");
    assert!(
        !rsd_obs::registry().watching(STAGE),
        "shard error leaked the registration"
    );
    assert_eq!(folded, 3 + 4);
}
