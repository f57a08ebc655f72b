//! The streaming pipeline's corpus source: generate one user shard and
//! harvest it through the simulated Reddit API.
//!
//! Each shard gets its own [`RedditStore`] holding only that shard's
//! posts, so crawl pagination and the collection window are exercised
//! per shard without the full raw pool ever being resident. The crawled
//! posts keep their shard-local ids; the downstream merge restores global
//! ids from the per-shard raw-post counts (see `rsd-dataset`).

use crate::generator::CorpusGenerator;
use crate::reddit::{CrawlClient, CrawlStats, RedditStore};
use crate::types::RawPost;
use rsd_common::Result;
use rsd_pipeline::{ResidentGauge, ShardSpec};

/// What one shard looks like after the crawl stage.
#[derive(Debug, Clone)]
pub struct CrawledShard {
    /// Users generated in the shard.
    pub raw_users: usize,
    /// Posts generated in the shard (before window filtering) — the
    /// stride downstream merges use to restore global post ids.
    pub raw_posts: usize,
    /// This shard's crawl-client statistics.
    pub crawl: CrawlStats,
    /// Crawled posts in the subreddit's listing order (`(created, id)`
    /// ascending), ids shard-local.
    pub posts: Vec<RawPost>,
}

/// The per-shard corpus step: generate the user range, publish it into a
/// shard-local store, and crawl the configured collection window.
pub struct CorpusShardSource {
    generator: CorpusGenerator,
    subreddit: &'static str,
    resident: ResidentGauge,
}

impl CorpusShardSource {
    /// Build a source over `generator`'s configuration. `resident` is the
    /// build's residency counter; [`load`](Self::load) adds each shard's
    /// raw posts when materialized (the preprocess step releases them).
    pub fn new(generator: CorpusGenerator, resident: ResidentGauge) -> Self {
        CorpusShardSource {
            generator,
            subreddit: "SuicideWatch",
            resident,
        }
    }

    /// Generate and crawl one shard.
    pub fn load(&self, shard: &ShardSpec) -> Result<CrawledShard> {
        let generated = self.generator.generate_shard(shard.users());
        let raw_users = generated.users.len();
        let raw_posts = generated.posts.len();
        self.resident.add(raw_posts);

        let mut store = RedditStore::new();
        store.publish(self.subreddit, generated.posts);
        let mut client = CrawlClient::new(&store);
        let cfg = self.generator.config();
        let posts = client.crawl_window(self.subreddit, cfg.window_start, cfg.window_end)?;
        Ok(CrawledShard {
            raw_users,
            raw_posts,
            crawl: client.stats(),
            posts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorpusConfig;
    use rsd_pipeline::ShardPlan;

    #[test]
    fn sharded_crawl_covers_the_full_corpus() {
        let cfg = CorpusConfig::small(11, 300);
        let generator = CorpusGenerator::new(cfg.clone()).unwrap();
        let full = generator.generate();
        let full_posts = full.post_count();

        let resident = ResidentGauge::new();
        let source = CorpusShardSource::new(generator, resident.clone());
        let plan = ShardPlan::new(300, 128).unwrap();
        let mut stitched: Vec<RawPost> = Vec::new();
        let mut offset = 0u32;
        for spec in plan.shards() {
            let mut crawled = source.load(&spec).unwrap();
            assert_eq!(crawled.crawl.posts_fetched as usize, crawled.posts.len());
            for p in &mut crawled.posts {
                p.id.0 += offset;
                if let Some(d) = &mut p.duplicate_of {
                    d.0 += offset;
                }
            }
            offset += crawled.raw_posts as u32;
            stitched.extend(crawled.posts);
        }
        // Stitching with raw-post offsets restores global ids; sorting by
        // listing order reproduces the monolithic crawl exactly.
        stitched.sort_by_key(|p| (p.created, p.id));
        let store = full.into_store();
        let mut client = CrawlClient::new(&store);
        let batch = client
            .crawl_window("SuicideWatch", cfg.window_start, cfg.window_end)
            .unwrap();
        assert_eq!(stitched, batch);
        assert_eq!(resident.peak() as usize, full_posts);
    }

    #[test]
    fn resident_counts_raw_posts_per_shard() {
        let generator = CorpusGenerator::new(CorpusConfig::small(5, 64)).unwrap();
        let resident = ResidentGauge::new();
        let source = CorpusShardSource::new(generator, resident.clone());
        let spec = ShardPlan::new(64, 64).unwrap().shard(0);
        let crawled = source.load(&spec).unwrap();
        assert_eq!(resident.current(), crawled.raw_posts as i64);
    }
}
