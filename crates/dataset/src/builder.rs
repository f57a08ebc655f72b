//! End-to-end dataset construction (the whole of the paper's §II).
//!
//! One [`DatasetBuilder::build`] call executes the complete pipeline the
//! paper describes, in order:
//!
//! 1. **Raw pool** — the generative corpus model emits the
//!    `r/SuicideWatch`-like pool (paper: 139,455 posts / 76,186 users).
//! 2. **Crawl** — a rate-limited, paginated [`rsd_corpus::reddit`] client
//!    harvests the collection window, exactly as the authors' crawler did.
//! 3. **Preprocess** — relevance filter, dedup, noise cleaning,
//!    normalization ([`rsd_text`]).
//! 4. **Select** — the 1,265-user annotation pool with complete timelines.
//! 5. **Annotate** — the full campaign with qualification, uncertainty
//!    policy, voting, inspections ([`rsd_annotation`]).
//! 6. **Assemble** — a validated [`Rsd15k`] with per-user chronological
//!    indices.
//!
//! The pipeline has one implementation, the sharded streaming build in
//! [`crate::stream`]. Its output bytes at smoke and mid scale are pinned
//! by committed digests (`tests/build_digest.rs`).

use serde::{Deserialize, Serialize};

use crate::record::Rsd15k;
use crate::stream::{StreamingBuild, StreamingOptions};
use rsd_annotation::{CampaignConfig, CampaignReport};
use rsd_common::Result;
use rsd_corpus::reddit::CrawlStats;
use rsd_corpus::{CorpusConfig, SelectionConfig};
use rsd_text::{PreprocessReport, Preprocessor};

/// Configuration of the full build.
#[derive(Debug, Clone)]
pub struct BuildConfig {
    /// Master seed (threaded through every stage).
    pub seed: u64,
    /// Raw-pool generation parameters.
    pub corpus: CorpusConfig,
    /// Annotation-pool selection parameters.
    pub selection: SelectionConfig,
    /// Preprocessing parameters.
    pub preprocess: Preprocessor,
    /// Annotation-campaign parameters.
    pub campaign: CampaignConfig,
}

impl BuildConfig {
    /// Paper-scale build: ≈139k raw posts → 1,265 users / ≈14.6k posts.
    pub fn paper(seed: u64) -> Self {
        BuildConfig {
            seed,
            corpus: CorpusConfig::paper(seed),
            selection: SelectionConfig::paper(seed),
            preprocess: Preprocessor::default(),
            campaign: CampaignConfig::paper(seed),
        }
    }

    /// Scaled-down build preserving every distributional shape: `raw_users`
    /// in the pool, `selected_users` annotated. Useful for tests, debug
    /// builds and Criterion benches.
    pub fn scaled(seed: u64, raw_users: usize, selected_users: usize) -> Self {
        BuildConfig {
            seed,
            corpus: CorpusConfig::small(seed, raw_users),
            selection: SelectionConfig::scaled(seed, selected_users),
            preprocess: Preprocessor::default(),
            campaign: CampaignConfig::paper(seed),
        }
    }
}

/// Everything the build produced besides the dataset itself.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuildReport {
    /// Raw pool size (posts) before preprocessing.
    pub raw_posts: usize,
    /// Raw pool users.
    pub raw_users: usize,
    /// Crawl statistics from the simulated API client.
    pub crawl: CrawlStats,
    /// Preprocessing removals.
    pub preprocess: PreprocessReport,
    /// Users selected for annotation.
    pub selected_users: usize,
    /// Posts entering the annotation campaign.
    pub selected_posts: usize,
    /// The annotation campaign's report (kappa, inspections, ...).
    pub campaign: CampaignReport,
}

/// The dataset builder.
pub struct DatasetBuilder {
    cfg: BuildConfig,
}

impl DatasetBuilder {
    /// Create a builder.
    pub fn new(cfg: BuildConfig) -> Self {
        DatasetBuilder { cfg }
    }

    /// Run the full pipeline.
    pub fn build(&self) -> Result<(Rsd15k, BuildReport)> {
        let (dataset, _pool, report) = self.build_with_pool()?;
        Ok((dataset, report))
    }

    /// Run the full pipeline, additionally returning the **unlabelled
    /// pool**: cleaned texts of surviving posts whose authors were *not*
    /// selected for annotation. This is the in-domain corpus the PLM
    /// baselines pretrain on (the paper's crawl minus its annotated
    /// subset).
    ///
    /// Runs the sharded pipeline (see [`crate::stream`]) with options read
    /// from the environment (`RSD_SHARD_USERS`, `RSD_CHECKPOINT_DIR`);
    /// shard geometry and thread count never change the output.
    pub fn build_with_pool(&self) -> Result<(Rsd15k, Vec<String>, BuildReport)> {
        let opts = StreamingOptions::from_env();
        let out = self.build_streaming(&opts)?;
        Ok((out.dataset, out.unlabeled, out.report))
    }

    /// Run the streaming sharded pipeline with explicit options, returning
    /// the executor's report (shard count, residency peak, checkpoint
    /// traffic) alongside the dataset.
    pub fn build_streaming(&self, opts: &StreamingOptions) -> Result<StreamingBuild> {
        let _build_span = rsd_obs::Span::enter("dataset.build");
        crate::stream::build_streaming(&self.cfg, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd_corpus::RiskLevel;

    fn build_small(seed: u64) -> (Rsd15k, BuildReport) {
        DatasetBuilder::new(BuildConfig::scaled(seed, 4_000, 60))
            .build()
            .unwrap()
    }

    #[test]
    fn pipeline_produces_valid_dataset() {
        let (dataset, report) = build_small(101);
        dataset.validate().unwrap();
        assert_eq!(dataset.n_users(), 60);
        assert!(report.raw_posts > 4_000);
        assert!(report.preprocess.kept < report.raw_posts);
        assert_eq!(report.selected_users, 60);
        // ≈11.55 posts/user target from the selection stage.
        let mean = dataset.n_posts() as f64 / dataset.n_users() as f64;
        assert!((8.0..16.0).contains(&mean), "mean posts/user {mean}");
    }

    #[test]
    fn unlabeled_pool_excludes_selected_users() {
        let (dataset, pool, report) = DatasetBuilder::new(BuildConfig::scaled(110, 3_000, 40))
            .build_with_pool()
            .unwrap();
        assert!(!pool.is_empty());
        // Pool + annotated = everything that survived preprocessing.
        assert_eq!(pool.len() + dataset.n_posts(), report.preprocess.kept);
        // Pool texts are cleaned (no raw noise).
        for text in pool.iter().take(200) {
            assert!(!text.contains("https://"));
        }
    }

    #[test]
    fn ids_are_dense_and_anonymized() {
        let (dataset, _) = build_small(102);
        for (i, post) in dataset.posts.iter().enumerate() {
            assert_eq!(post.id.0 as usize, i);
        }
        let max_user = dataset.posts.iter().map(|p| p.user.0).max().unwrap();
        assert_eq!(max_user as usize + 1, dataset.n_users());
    }

    #[test]
    fn class_distribution_tracks_table1() {
        let (dataset, _) = build_small(103);
        let counts = dataset.class_counts();
        let total: usize = counts.iter().sum();
        let frac = |l: RiskLevel| counts[l.index()] as f64 / total as f64;
        // Annotation noise and selection shift the marginals a little; the
        // ordering and rough magnitudes of Table I must survive.
        assert!(frac(RiskLevel::Ideation) > frac(RiskLevel::Indicator));
        assert!(frac(RiskLevel::Indicator) > frac(RiskLevel::Behavior));
        assert!(frac(RiskLevel::Behavior) > frac(RiskLevel::Attempt));
        assert!((frac(RiskLevel::Ideation) - 0.4881).abs() < 0.10);
        assert!((frac(RiskLevel::Attempt) - 0.0554).abs() < 0.05);
    }

    #[test]
    fn campaign_report_carries_kappa() {
        let (_, report) = build_small(104);
        assert!(report.campaign.kappa_items > 0);
        assert!((0.5..=0.9).contains(&report.campaign.fleiss_kappa));
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = build_small(105);
        let (b, _) = build_small(105);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = build_small(106);
        let (b, _) = build_small(107);
        assert_ne!(a, b);
    }

    #[test]
    fn no_raw_noise_survives_into_text() {
        let (dataset, _) = build_small(108);
        for post in &dataset.posts {
            assert!(!post.text.contains("https://"), "link survived cleaning");
            assert!(!post.text.contains("!!!"), "punct run survived cleaning");
            assert!(!post.text.contains('#'), "special char survived cleaning");
        }
    }

    #[test]
    fn timelines_preserved_in_order() {
        let (dataset, _) = build_small(109);
        for user in &dataset.users {
            let mut prev = None;
            for post in dataset.user_posts(user) {
                if let Some(p) = prev {
                    assert!(post.created >= p);
                }
                prev = Some(post.created);
            }
        }
    }
}
