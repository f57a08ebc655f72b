//! The bounded deterministic executor.
//!
//! Shards run in waves of at most `shards_in_flight`: each wave's shards
//! execute concurrently on the `rsd-par` pool, then fold into the sink in
//! ascending shard order before the next wave starts. At most one wave of
//! shard artifacts is ever materialized, which is what bounds residency;
//! the in-order fold is what makes the merged output independent of
//! scheduling (and therefore bit-identical to a batch run).

use crate::checkpoint::Checkpointer;
use crate::shard::{ShardPlan, ShardSpec};
use crate::stage::{ShardTask, Sink};
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

/// Run every shard of `plan` through `task`, folding artifacts into
/// `sink` in ascending shard order. Returns the number of shards folded.
///
/// With `interrupt_after_shards` set, the build aborts with a
/// [`RsdError::PipelineState`] once that many shards have folded —
/// completed boundaries keep their checkpoints, which is exactly the
/// state a killed build leaves behind.
pub fn run_shards<T, K>(
    cfg: &PipelineConfig,
    plan: &ShardPlan,
    task: &T,
    ckpt: Option<&Checkpointer>,
    sink: &mut K,
) -> Result<usize>
where
    T: ShardTask,
    K: Sink<T::Out>,
{
    let _span = rsd_obs::Span::enter("pipeline.shards");
    let total = plan.n_shards();
    let in_flight = cfg.shards_in_flight.max(1);
    rsd_obs::gauge("pipeline.shards_in_flight", in_flight as f64);
    rsd_obs::stage_register("pipeline.shards");
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
        let mut slots: Vec<(ShardSpec, Option<Result<T::Out>>)> =
            (next..next + wave).map(|i| (plan.shard(i), None)).collect();
        // Grain 1: one pool chunk per shard. The fold below consumes
        // slots in vector (= shard) order regardless of which worker
        // filled them first.
        rsd_par::parallel_chunks_mut(&mut slots, 1, |_, chunk| {
            for (spec, slot) in chunk.iter_mut() {
                let t0 = std::time::Instant::now();
                *slot = Some(task.run(spec, ckpt));
                rsd_obs::latency_ns("pipeline.shard", t0.elapsed().as_nanos() as u64);
            }
        });
        for (spec, slot) in slots {
            let artifact = slot.expect("executor filled every slot")?;
            let shard_users = spec.n_users() as u64;
            sink.accept(&spec, artifact)?;
            rsd_obs::stage_progress("pipeline.shards", shard_users, 0);
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
    rsd_obs::stage_finish("pipeline.shards");
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Source, SourceTask};

    struct SquareSource;

    impl Source for SquareSource {
        type Out = Vec<u64>;

        fn name(&self) -> &'static str {
            "test.square"
        }

        fn load(&self, shard: &ShardSpec) -> Result<Vec<u64>> {
            Ok(shard.users().map(|u| u64::from(u) * u64::from(u)).collect())
        }
    }

    /// Sink that records fold order and concatenates artifacts.
    #[derive(Default)]
    struct Collect {
        order: Vec<usize>,
        values: Vec<u64>,
    }

    impl Sink<Vec<u64>> for Collect {
        fn accept(&mut self, shard: &ShardSpec, item: Vec<u64>) -> Result<()> {
            self.order.push(shard.index);
            self.values.extend(item);
            Ok(())
        }
    }

    fn run(cfg: &PipelineConfig, n_users: u32, shard_users: u32) -> Collect {
        let plan = ShardPlan::new(n_users, shard_users).unwrap();
        let mut sink = Collect::default();
        run_shards(cfg, &plan, &SourceTask(SquareSource), None, &mut sink).unwrap();
        sink
    }

    #[test]
    fn folds_in_shard_order_for_any_concurrency() {
        let serial = run(
            &PipelineConfig {
                shards_in_flight: 1,
                ..Default::default()
            },
            1_000,
            64,
        );
        assert_eq!(serial.order, (0..16).collect::<Vec<_>>());
        for in_flight in [2, 3, 8, 64] {
            let cfg = PipelineConfig {
                shards_in_flight: in_flight,
                ..Default::default()
            };
            let out = run(&cfg, 1_000, 64);
            assert_eq!(out.order, serial.order, "in_flight={in_flight}");
            assert_eq!(out.values, serial.values, "in_flight={in_flight}");
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
        let mut sink = Collect::default();
        let err = run_shards(&cfg, &plan, &SourceTask(SquareSource), None, &mut sink).unwrap_err();
        assert!(matches!(err, RsdError::PipelineState(_)));
        assert_eq!(sink.order, vec![0, 1, 2]);
    }
}
