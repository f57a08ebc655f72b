//! Serving configuration: fixed capacities plus the two serving knobs,
//! `RSD_SERVE_MODEL` and `RSD_SERVE_INJECT_STALL_MS`.

use rsd_models::ServeModel;
use rsd_obs::knob::{SERVE_INJECT_STALL_MS, SERVE_MODEL};

/// Configuration for [`RiskService`](crate::RiskService).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of user-state shards (default 8).
    pub shards: usize,
    /// Maximum resident users across all shards (default 65 536).
    pub lru_capacity: usize,
    /// Micro-batch size cap for the scoring worker (default 64).
    pub batch_max: usize,
    /// Bounded-channel capacity for ingress and results (default 1024).
    pub channel_cap: usize,
    /// Scoring backend the service is expected to run
    /// (`RSD_SERVE_MODEL`: `gbdt | plm-f32 | plm-int8`, default `gbdt`).
    /// The fitting side (loadgen, deployment harness) routes on this to
    /// build the matching [`ScoringModel`](rsd_models::ScoringModel).
    pub model: ServeModel,
    /// Fault injection for the SLO self-test
    /// (`RSD_SERVE_INJECT_STALL_MS`): when set, the scoring worker
    /// sleeps this long once, right after its first micro-batch, so CI
    /// can assert the burn-rate monitor trips on a real stall. Unset
    /// (or `0`/`off`) in every production configuration.
    pub inject_stall_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 8,
            lru_capacity: 65_536,
            batch_max: 64,
            channel_cap: 1024,
            model: serve_model(SERVE_MODEL.parse_as(None)),
            inject_stall_ms: None,
        }
    }
}

impl ServeConfig {
    /// The defaults with the serving knobs read from the environment;
    /// invalid values abort naming the knob.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            model: serve_model(SERVE_MODEL.get()),
            inject_stall_ms: SERVE_INJECT_STALL_MS.get(),
            ..ServeConfig::default()
        }
    }
}

/// The backend for a spelling the knob table has already accepted.
fn serve_model(name: String) -> ServeModel {
    ServeModel::from_name(&name).expect("a listed RSD_SERVE_MODEL choice")
}
