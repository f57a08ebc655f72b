//! The bounded deterministic executor.
//!
//! Shards run in waves of at most `shards_in_flight`: each wave's shards
//! execute concurrently on the `rsd-par` pool, then fold in ascending
//! shard order before the next wave starts. At most one wave of
//! shard artifacts is ever materialized, which is what bounds residency;
//! the in-order fold is what makes the merged output independent of
//! scheduling (and therefore of the thread count).

use crate::shard::{ShardPlan, ShardSpec};
use rsd_common::{Result, RsdError};
use rsd_obs::knob::{INTERRUPT_AFTER_SHARDS, SHARD_USERS};

/// Streaming-executor knobs, usually read from the environment.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Users per shard (`RSD_SHARD_USERS`, default 4096).
    pub shard_users: usize,
    /// Max shards materialized concurrently (default: the `rsd-par` pool
    /// size).
    pub shards_in_flight: usize,
    /// Fault injection for resume tests (`RSD_INTERRUPT_AFTER_SHARDS`):
    /// abort the build once this many shards have been folded.
    pub interrupt_after_shards: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            shard_users: SHARD_USERS.parse_as::<u64>(None) as usize,
            shards_in_flight: rsd_par::num_threads().max(1),
            interrupt_after_shards: None,
        }
    }
}

impl PipelineConfig {
    /// Read `RSD_SHARD_USERS` and `RSD_INTERRUPT_AFTER_SHARDS`; invalid
    /// values abort naming the knob.
    pub fn from_env() -> Self {
        PipelineConfig {
            shard_users: SHARD_USERS.get::<u64>() as usize,
            interrupt_after_shards: INTERRUPT_AFTER_SHARDS
                .get::<Option<u64>>()
                .map(|n| n as usize),
            ..PipelineConfig::default()
        }
    }
}

/// What the streaming executor did, surfaced next to the build report.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PipelineReport {
    /// Shards in the plan.
    pub shards: usize,
    /// Users per shard.
    pub shard_users: usize,
    /// Concurrency bound used.
    pub shards_in_flight: usize,
    /// High-water mark of raw posts resident in shard stages.
    pub peak_resident_posts: u64,
    /// Stage-boundary artifacts replayed from checkpoints.
    pub checkpoint_hits: u64,
    /// Stage-boundary artifacts written.
    pub checkpoint_writes: u64,
}

/// Run every shard of `plan` through `per_shard` on the `rsd-par` pool,
/// handing each result to `fold` in ascending shard order. Returns the
/// number of shards folded.
///
/// With `interrupt_after_shards` set, the build aborts with a
/// [`RsdError::PipelineState`] once that many shards have folded —
/// completed boundaries keep their checkpoints, which is exactly the
/// state a killed build leaves behind. The `pipeline.shards` stall-
/// watchdog registration is finished on every exit: success, a shard or
/// fold error, and an interrupt.
pub fn run_shards<T: Send>(
    cfg: &PipelineConfig,
    plan: &ShardPlan,
    per_shard: impl Fn(&ShardSpec) -> Result<T> + Sync,
    mut fold: impl FnMut(&ShardSpec, T) -> Result<()>,
) -> Result<usize> {
    let _span = rsd_obs::Span::enter("pipeline.shards");
    let in_flight = cfg.shards_in_flight.max(1);
    rsd_obs::gauge("pipeline.shards_in_flight", in_flight as f64);
    rsd_obs::stage_register("pipeline.shards");
    let out = fold_waves(cfg, plan, in_flight, &per_shard, &mut fold);
    rsd_obs::stage_finish("pipeline.shards");
    out
}

/// The wave loop of [`run_shards`], split out so that every return,
/// early or not, passes through the caller's `stage_finish`.
fn fold_waves<T: Send>(
    cfg: &PipelineConfig,
    plan: &ShardPlan,
    in_flight: usize,
    per_shard: &(impl Fn(&ShardSpec) -> Result<T> + Sync),
    fold: &mut impl FnMut(&ShardSpec, T) -> Result<()>,
) -> Result<usize> {
    let total = plan.n_shards();
    let limit = cfg.interrupt_after_shards.unwrap_or(usize::MAX);
    let mut folded = 0usize;
    let mut next = 0usize;
    let mut wave_idx = 0usize;
    while next < total && folded < limit {
        let wave = in_flight.min(total - next).min(limit - folded);
        rsd_obs::event(
            "pipeline.wave",
            &[
                ("wave", rsd_obs::Value::Int(wave_idx as i128)),
                ("first_shard", rsd_obs::Value::Int(next as i128)),
                ("shards", rsd_obs::Value::Int(wave as i128)),
            ],
        );
        let mut slots: Vec<(ShardSpec, Option<Result<T>>)> =
            (next..next + wave).map(|i| (plan.shard(i), None)).collect();
        // Grain 1: one pool chunk per shard. The fold below consumes
        // slots in vector (= shard) order regardless of which worker
        // filled them first.
        rsd_par::parallel_chunks_mut(&mut slots, 1, |_, chunk| {
            for (spec, slot) in chunk.iter_mut() {
                let t0 = std::time::Instant::now();
                *slot = Some(per_shard(spec));
                rsd_obs::latency_ns("pipeline.shard", t0.elapsed().as_nanos() as u64);
            }
        });
        for (spec, slot) in slots {
            let artifact = slot.expect("executor filled every slot")?;
            fold(&spec, artifact)?;
            rsd_obs::stage_progress("pipeline.shards", spec.n_users() as u64, 0);
            folded += 1;
        }
        rsd_obs::counter_add("pipeline.shards", wave as u64);
        next += wave;
        wave_idx += 1;
    }

    if folded < total {
        return Err(RsdError::PipelineState(format!(
            "pipeline interrupted after {folded} of {total} shards"
        )));
    }
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run the plan squaring each user id; returns (fold order, values).
    fn run(cfg: &PipelineConfig, plan: &ShardPlan) -> (Result<usize>, Vec<usize>, Vec<u64>) {
        let mut order = Vec::new();
        let mut values = Vec::new();
        let out = run_shards(
            cfg,
            plan,
            |shard| Ok(shard.users().map(|u| u64::from(u) * u64::from(u)).collect()),
            |shard, item: Vec<u64>| {
                order.push(shard.index);
                values.extend(item);
                Ok(())
            },
        );
        (out, order, values)
    }

    #[test]
    fn folds_in_shard_order_for_any_concurrency() {
        let plan = ShardPlan::new(1_000, 64).unwrap();
        let serial = PipelineConfig {
            shards_in_flight: 1,
            ..Default::default()
        };
        let (out, order, values) = run(&serial, &plan);
        assert_eq!(out.unwrap(), 16);
        assert_eq!(order, (0..16).collect::<Vec<_>>());
        for in_flight in [2, 3, 8, 64] {
            let cfg = PipelineConfig {
                shards_in_flight: in_flight,
                ..Default::default()
            };
            let (_, o, v) = run(&cfg, &plan);
            assert_eq!(o, order, "in_flight={in_flight}");
            assert_eq!(v, values, "in_flight={in_flight}");
        }
    }

    #[test]
    fn interrupt_folds_prefix_then_errors() {
        let plan = ShardPlan::new(1_000, 100).unwrap();
        let cfg = PipelineConfig {
            shards_in_flight: 4,
            interrupt_after_shards: Some(3),
            ..Default::default()
        };
        let (out, order, _) = run(&cfg, &plan);
        assert!(matches!(out.unwrap_err(), RsdError::PipelineState(_)));
        assert_eq!(order, vec![0, 1, 2]);
    }
}
