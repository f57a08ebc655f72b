//! Reproduction harness: shared plumbing for the per-table/per-figure
//! binaries.
//!
//! Every binary follows the same shape: build (or reuse) the dataset at
//! the requested scale, run the experiment, print rows in the paper's
//! layout. Scale is controlled by `RSD_SCALE`:
//!
//! * `paper` — full scale (76,186 raw users → 1,265 annotated users,
//!   ≈14.6k posts). Minutes of wall-clock on one core.
//! * `mid` *(default)* — ≈1/4 of the annotated users with identical
//!   distributional shape; tens of seconds per model.
//! * `small` — smoke-test scale for CI.
//!
//! `RSD_SEED` overrides the default seed (2026).

pub mod reference;

use std::time::Instant;

use rsd_dataset::{BuildConfig, BuildReport, DatasetBuilder, DatasetSplits, Rsd15k, SplitConfig};
use rsd_models::pretrain::PretrainConfig;
use rsd_models::{
    BenchData, BiLstmConfig, HiGruConfig, PlmConfig, PlmKind, TrainConfig, XgboostConfig,
};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale.
    Paper,
    /// Quarter-ish scale (default).
    Mid,
    /// Smoke-test scale.
    Small,
}

impl Scale {
    /// Parse a scale name. `smoke` is an alias for `small`, matching the
    /// CI invocation.
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "paper" => Ok(Scale::Paper),
            "mid" => Ok(Scale::Mid),
            "small" | "smoke" => Ok(Scale::Small),
            other => Err(format!(
                "unknown RSD_SCALE value {other:?}; accepted values: paper, mid, small, smoke"
            )),
        }
    }

    /// Read from `RSD_SCALE` (default `mid`); unknown values abort.
    pub fn from_env() -> Scale {
        Scale::parse(&rsd_obs::knob::SCALE.get::<String>()).expect("a listed RSD_SCALE choice")
    }

    /// Stable lowercase name, used in report paths.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Mid => "mid",
            Scale::Small => "small",
        }
    }

    /// The dataset build configuration for this scale.
    pub fn build_config(self, seed: u64) -> BuildConfig {
        match self {
            Scale::Paper => BuildConfig::paper(seed),
            Scale::Mid => BuildConfig::scaled(seed, 24_000, 400),
            Scale::Small => BuildConfig::scaled(seed, 2_500, 48),
        }
    }

    /// Pretraining-pool size for the PLM baselines.
    pub fn pretrain_texts(self) -> usize {
        match self {
            Scale::Paper => 4_000,
            Scale::Mid => 1_500,
            Scale::Small => 150,
        }
    }
}

/// Seed from `RSD_SEED` (default 2026); anything but a positive integer
/// aborts.
pub(crate) fn seed_from_env() -> u64 {
    rsd_obs::knob::SEED.get()
}

/// Continuous-telemetry lifecycle for a bench binary: holds the
/// time-series driver ([`rsd_obs::timeseries`]) when `RSD_OBS_TICK_MS`
/// requests it, and the live introspection endpoint
/// ([`rsd_obs::http`]) when `RSD_OBS_HTTP` names a port. Create it
/// right after parsing scale/seed and call [`Telemetry::finish`]
/// *before* writing the run report, so the final latency quantiles land
/// in the report's registry snapshot.
pub(crate) struct Telemetry {
    guard: Option<rsd_obs::timeseries::SeriesGuard>,
    http: Option<rsd_obs::http::HttpGuard>,
}

impl Telemetry {
    /// Start the driver for `bin` at `scale` if the environment asks for
    /// continuous telemetry; otherwise a no-op handle.
    pub(crate) fn start(bin: &str, scale: Scale) -> Telemetry {
        Telemetry {
            guard: rsd_obs::timeseries::start(bin, scale.name()),
            http: rsd_obs::http::start_from_env(),
        }
    }

    /// Stop the driver (flushing the final snapshot) and report where the
    /// series went on stderr. The live endpoint
    /// stops last, after the final series tick has been published, so a
    /// poller watching `/snapshot` sees the run's closing state.
    pub(crate) fn finish(&mut self) {
        if let Some(path) = self.guard.take().and_then(|g| g.finish()) {
            eprintln!("series: {}", path.display());
        }
        self.http.take();
    }
}

/// One-stop lifecycle for a report-writing bench binary: parses
/// scale/seed, opens the [`rsd_obs::RunReport`], and starts continuous
/// telemetry — in the order every binary needs them. Binaries `set`
/// result fields on [`BinHarness::run`] and call [`BinHarness::finish`]
/// last, which stops the driver *before* the report write so the final
/// latency quantiles land in the registry snapshot.
pub struct BinHarness {
    /// The run report for this invocation; `set` result fields on it.
    /// Public so binaries can also embed [`rsd_obs::RunReport::to_value`]
    /// into their own artifacts (the export sidecar does).
    pub run: rsd_obs::RunReport,
    /// Scale parsed from `RSD_SCALE`.
    pub scale: Scale,
    /// Seed parsed from `RSD_SEED`.
    pub seed: u64,
    telemetry: Telemetry,
}

impl BinHarness {
    /// Start the harness for binary `bin`.
    pub fn start(bin: &'static str) -> BinHarness {
        // Parse every knob now, so a typo aborts before any work.
        rsd_obs::knob::snapshot();
        let scale = Scale::from_env();
        let seed = seed_from_env();
        let run = rsd_obs::RunReport::new(bin, scale.name(), seed);
        let telemetry = Telemetry::start(bin, scale);
        BinHarness {
            run,
            scale,
            seed,
            telemetry,
        }
    }

    /// Stop the telemetry driver ahead of [`BinHarness::finish`].
    /// Idempotent. For binaries where late work (e.g. allocator gauge
    /// publication) must land between the final series snapshot and the
    /// report write.
    pub fn finish_telemetry(&mut self) {
        self.telemetry.finish();
    }

    /// Finish telemetry, write the run report, and flush the NDJSON
    /// sink. Panics on I/O errors — the right default
    /// for the table binaries.
    pub fn finish(self) {
        self.try_finish().expect("write run report");
    }

    /// Fallible [`BinHarness::finish`] for binaries that bubble errors.
    pub fn try_finish(mut self) -> std::io::Result<()> {
        self.telemetry.finish();
        self.run.write()?;
        rsd_obs::flush();
        Ok(())
    }
}

/// A prepared experiment environment.
pub struct Prepared {
    /// The built dataset.
    pub dataset: Rsd15k,
    /// User-disjoint splits (window = 5).
    pub splits: DatasetSplits,
    /// Unlabelled pool for pretraining.
    pub unlabeled: Vec<String>,
    /// Build-stage report (kappa, preprocessing, crawl stats).
    pub report: BuildReport,
    /// Scale used.
    pub scale: Scale,
    /// Seed used.
    pub seed: u64,
}

impl Prepared {
    /// Build everything for the current env-configured scale/seed.
    pub fn from_env() -> Prepared {
        let scale = Scale::from_env();
        let seed = seed_from_env();
        Self::build(scale, seed)
    }

    /// Build at an explicit scale/seed.
    pub fn build(scale: Scale, seed: u64) -> Prepared {
        let _prepare_span = rsd_obs::Span::enter("bench.prepare");
        let t0 = Instant::now();
        rsd_obs::event(
            "bench.prepare.start",
            &[
                ("scale", rsd_obs::Value::from(scale.name())),
                ("seed", rsd_obs::Value::Int(seed as i128)),
            ],
        );
        let (dataset, unlabeled, report) = DatasetBuilder::new(scale.build_config(seed))
            .build_with_pool()
            .expect("dataset build failed");
        let splits = DatasetSplits::new(
            &dataset,
            SplitConfig {
                seed,
                ..Default::default()
            },
        )
        .expect("split failed");
        rsd_obs::event(
            "bench.prepare.done",
            &[
                ("posts", rsd_obs::Value::Int(dataset.n_posts() as i128)),
                ("users", rsd_obs::Value::Int(dataset.n_users() as i128)),
                ("unlabeled", rsd_obs::Value::Int(unlabeled.len() as i128)),
                (
                    "elapsed_ms",
                    rsd_obs::Value::Float(t0.elapsed().as_secs_f64() * 1e3),
                ),
            ],
        );
        Prepared {
            dataset,
            splits,
            unlabeled,
            report,
            scale,
            seed,
        }
    }

    /// Borrow as [`BenchData`].
    pub fn bench_data(&self) -> BenchData<'_> {
        BenchData {
            dataset: &self.dataset,
            splits: &self.splits,
            unlabeled: &self.unlabeled,
            seed: self.seed,
        }
    }
}

/// Table III model configurations for a scale.
pub struct Table3Configs {
    /// XGBoost baseline.
    pub xgboost: XgboostConfig,
    /// BiLSTM baseline.
    pub bilstm: BiLstmConfig,
    /// HiGRU baseline.
    pub higru: HiGruConfig,
    /// RoBERTa-style PLM.
    pub roberta: PlmConfig,
    /// DeBERTa-style PLM.
    pub deberta: PlmConfig,
}

/// Build the per-scale model configurations.
pub fn table3_configs(scale: Scale) -> Table3Configs {
    let (mlm_epochs, nn_epochs) = match scale {
        Scale::Paper => (4, 14),
        Scale::Mid => (4, 14),
        Scale::Small => (1, 3),
    };
    let pretrain_texts = scale.pretrain_texts();

    let plm = |kind: PlmKind| PlmConfig {
        pretrain_texts,
        pretrain: PretrainConfig {
            epochs: mlm_epochs,
            lr: 1.5e-3,
            ..Default::default()
        },
        train: TrainConfig {
            epochs: nn_epochs,
            lr: 8e-4,
            patience: 5,
            ..Default::default()
        },
        ..PlmConfig::base(kind)
    };

    Table3Configs {
        xgboost: XgboostConfig::default(),
        bilstm: BiLstmConfig {
            train: TrainConfig {
                epochs: nn_epochs,
                lr: 2e-3,
                patience: 3,
                ..Default::default()
            },
            ..Default::default()
        },
        higru: HiGruConfig {
            train: TrainConfig {
                epochs: nn_epochs,
                lr: 2e-3,
                patience: 3,
                ..Default::default()
            },
            ..Default::default()
        },
        roberta: plm(PlmKind::Roberta),
        deberta: plm(PlmKind::Deberta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_accepts_known_and_rejects_typos() {
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
        assert_eq!(Scale::parse("mid"), Ok(Scale::Mid));
        assert_eq!(Scale::parse("small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("smoke"), Ok(Scale::Small));
        for name in rsd_obs::knob::SCALES {
            assert!(Scale::parse(name).is_ok(), "{name}");
        }
        let err = Scale::parse("midd").unwrap_err();
        assert!(
            err.contains("midd") && err.contains("accepted values"),
            "{err}"
        );
    }

    #[test]
    fn small_scale_prepares() {
        let p = Prepared::build(Scale::Small, 1);
        assert!(p.dataset.n_posts() > 100);
        assert!(!p.unlabeled.is_empty());
        assert!(p.splits.is_user_disjoint());
    }
}
