//! `run_shards` must leave the stall watchdog on every exit path: a
//! `pipeline.shards` registration that is never finished would be
//! reported as stalled, and `/health` would latch as degraded, for a stage
//! that is no longer running. Own test binary because the event ring is
//! process-global.

use rsd_common::{Result, RsdError};
use rsd_obs::ring::{self, EventKind};
use rsd_pipeline::{run_shards, PipelineConfig, ShardPlan};

#[test]
fn every_exit_path_finishes_the_shards_stage() {
    assert!(rsd_obs::init(rsd_obs::Mode::Silent));
    ring::set_armed(true);
    let plan = ShardPlan::new(100, 10).unwrap();
    let cfg = PipelineConfig {
        shards_in_flight: 2,
        ..Default::default()
    };

    let interrupted = PipelineConfig {
        interrupt_after_shards: Some(3),
        ..cfg.clone()
    };
    let out = run_shards(&interrupted, &plan, |s| Ok(s.index), |_, _| Ok(()));
    assert!(matches!(out, Err(RsdError::PipelineState(_))), "{out:?}");

    let out = run_shards(
        &cfg,
        &plan,
        |s| -> Result<usize> {
            match s.index {
                4 => Err(RsdError::data("injected shard failure")),
                i => Ok(i),
            }
        },
        |_, _| Ok(()),
    );
    assert!(matches!(out, Err(RsdError::InvalidData(_))), "{out:?}");
    ring::set_armed(false);

    let (mut registered, mut finished) = (0, 0);
    ring::global().drain(|ev| match ev.kind {
        EventKind::StageRegister if ev.label == "pipeline.shards" => registered += 1,
        EventKind::StageFinish if ev.label == "pipeline.shards" => finished += 1,
        _ => {}
    });
    assert_eq!(registered, 2);
    assert_eq!(
        finished, registered,
        "a pipeline.shards registration leaked"
    );
}
