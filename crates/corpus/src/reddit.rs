//! Miniature Reddit substrate: subreddit store, paginated listing API, and
//! a rate-limited crawl client.
//!
//! The paper's raw data was harvested through the official Reddit API
//! (citation \[4\]) from `r/SuicideWatch`. This module reproduces the
//! *interface contract* that pathway imposes on a collection pipeline:
//!
//! * posts live in named subreddits, ordered by creation time;
//! * listings are paginated with an opaque `after` cursor and a hard
//!   100-item page cap (the API's `limit` ceiling);
//! * clients are rate-limited (60 requests/simulated-minute) and must
//!   therefore budget their crawl;
//! * time-windowed collection is expressed the way the real crawl was:
//!   walk pages chronologically and stop past the window end.
//!
//! The crawler sees only what the API returns — downstream code cannot
//! reach around the pagination to generator internals.
//!
//! Serving a page costs the page, not the subreddit: `ingest` indexes each
//! post id's listing position, so an `after` cursor resolves in one
//! lookup, and [`CrawlClient::crawl_window`] moves each page's posts into
//! its output rather than cloning them again. A single-shard paper-scale
//! build crawls one subreddit of about 150k posts, where a linear cursor
//! scan per page made the crawl quadratic.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::types::{PostId, RawPost};
use rsd_common::{Result, RsdError, Timestamp};

/// Hard page-size cap, matching the Reddit API's `limit` ceiling.
pub const MAX_PAGE_SIZE: usize = 100;

/// A single subreddit: posts stored in creation order.
#[derive(Debug, Clone, Default)]
pub struct Subreddit {
    /// Display name without the `r/` prefix, e.g. `"SuicideWatch"`.
    pub name: String,
    /// Posts sorted ascending by `(created, id)`.
    posts: Vec<RawPost>,
    /// Listing position of each post id, so a cursor resolves in one
    /// lookup. Rebuilt by every [`Subreddit::ingest`].
    position: HashMap<PostId, usize>,
}

impl Subreddit {
    /// Create an empty subreddit.
    pub fn new(name: impl Into<String>) -> Self {
        Subreddit {
            name: name.into(),
            ..Subreddit::default()
        }
    }

    /// Bulk-load posts; sorts them into listing order.
    pub fn ingest(&mut self, mut posts: Vec<RawPost>) {
        self.posts.append(&mut posts);
        self.posts.sort_by_key(|p| (p.created, p.id));
        // A repeated id resolves to its first listing position, as a scan
        // from the front would.
        self.position.clear();
        self.position.reserve(self.posts.len());
        for (i, p) in self.posts.iter().enumerate() {
            self.position.entry(p.id).or_insert(i);
        }
    }

    /// Number of posts stored.
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// True if no posts are stored.
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// Serve one listing page: posts strictly after the cursor (or from the
    /// beginning), capped at `limit.min(MAX_PAGE_SIZE)`.
    fn page(&self, after: Option<PostId>, limit: usize) -> Listing {
        let start = match after {
            None => 0,
            Some(cursor) => match self.position.get(&cursor) {
                Some(idx) => idx + 1,
                None => self.posts.len(), // stale cursor: empty page
            },
        };
        let limit = limit.clamp(1, MAX_PAGE_SIZE);
        let slice = &self.posts[start.min(self.posts.len())..];
        let page: Vec<RawPost> = slice.iter().take(limit).cloned().collect();
        let after = if page.len() == limit && start + limit < self.posts.len() {
            page.last().map(|p| p.id)
        } else {
            None
        };
        Listing { posts: page, after }
    }
}

/// One page of a listing response.
#[derive(Debug, Clone)]
pub struct Listing {
    /// The page contents in chronological order.
    pub posts: Vec<RawPost>,
    /// Cursor for the next page; `None` when exhausted.
    pub after: Option<PostId>,
}

/// The store backing the simulated API — a set of subreddits.
#[derive(Debug, Clone, Default)]
pub struct RedditStore {
    subs: BTreeMap<String, Subreddit>,
}

impl RedditStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or extend) a subreddit with posts.
    pub fn publish(&mut self, subreddit: &str, posts: Vec<RawPost>) {
        self.subs
            .entry(subreddit.to_string())
            .or_insert_with(|| Subreddit::new(subreddit))
            .ingest(posts);
    }

    /// Look up a subreddit.
    pub fn subreddit(&self, name: &str) -> Result<&Subreddit> {
        self.subs
            .get(name)
            .ok_or_else(|| RsdError::not_found("subreddit", name))
    }
}

/// Crawl statistics — lets tests and benchmarks verify the client stayed
/// within API politeness constraints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlStats {
    /// Total listing requests issued.
    pub requests: u64,
    /// Total posts received.
    pub posts_fetched: u64,
    /// Simulated seconds elapsed (requests are spaced to honour the rate
    /// limit; 60 requests per simulated minute).
    pub simulated_secs: u64,
}

/// Rate-limited, paginated crawl client over a [`RedditStore`].
///
/// Mirrors the collection procedure of the paper's source corpus: page
/// through a subreddit chronologically, keeping posts inside a UTC window.
#[derive(Debug)]
pub struct CrawlClient<'a> {
    store: &'a RedditStore,
    /// Requests allowed per simulated minute.
    pub requests_per_minute: u32,
    stats: CrawlStats,
}

impl<'a> CrawlClient<'a> {
    /// New client with the API's standard 60 req/min budget.
    pub fn new(store: &'a RedditStore) -> Self {
        CrawlClient {
            store,
            requests_per_minute: 60,
            stats: CrawlStats::default(),
        }
    }

    /// Fetch one listing page, accounting for rate limiting in simulated
    /// time.
    pub fn list(
        &mut self,
        subreddit: &str,
        after: Option<PostId>,
        limit: usize,
    ) -> Result<Listing> {
        let sub = self.store.subreddit(subreddit)?;
        self.stats.requests += 1;
        // Simulated pacing: spread requests uniformly over each minute.
        self.stats.simulated_secs = self.stats.requests * 60 / u64::from(self.requests_per_minute);
        let listing = sub.page(after, limit);
        self.stats.posts_fetched += listing.posts.len() as u64;
        Ok(listing)
    }

    /// Crawl every post in `[start, end)` from a subreddit, in order.
    pub fn crawl_window(
        &mut self,
        subreddit: &str,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<RawPost>> {
        let mut out = Vec::new();
        let mut cursor: Option<PostId> = None;
        loop {
            let page = self.list(subreddit, cursor, MAX_PAGE_SIZE)?;
            if page.posts.is_empty() {
                break;
            }
            let mut past_end = false;
            for post in page.posts {
                if post.created >= end {
                    past_end = true;
                    break;
                }
                if post.created >= start {
                    out.push(post);
                }
            }
            if past_end || page.after.is_none() {
                break;
            }
            cursor = page.after;
        }
        Ok(out)
    }

    /// Accumulated crawl statistics.
    pub fn stats(&self) -> CrawlStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::risk::RiskLevel;
    use crate::types::UserId;

    fn mk_post(id: u32, created: i64) -> RawPost {
        RawPost {
            id: PostId(id),
            author: UserId(id % 7),
            created: Timestamp(created),
            body: format!("post {id}"),
            latent_risk: RiskLevel::Ideation,
            off_topic: false,
            duplicate_of: None,
        }
    }

    fn store_with(n: u32) -> RedditStore {
        let mut store = RedditStore::new();
        let posts: Vec<RawPost> = (0..n).map(|i| mk_post(i, i64::from(i) * 100)).collect();
        store.publish("SuicideWatch", posts);
        store
    }

    #[test]
    fn pagination_walks_everything_in_order() {
        let store = store_with(250);
        let mut client = CrawlClient::new(&store);
        let mut seen = Vec::new();
        let mut cursor = None;
        loop {
            let page = client.list("SuicideWatch", cursor, MAX_PAGE_SIZE).unwrap();
            seen.extend(page.posts.iter().map(|p| p.id.0));
            match page.after {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(seen, (0..250).collect::<Vec<_>>());
        assert_eq!(client.stats().requests, 3);
    }

    #[test]
    fn page_limit_is_capped() {
        let store = store_with(500);
        let mut client = CrawlClient::new(&store);
        let page = client.list("SuicideWatch", None, 10_000).unwrap();
        assert_eq!(page.posts.len(), MAX_PAGE_SIZE);
    }

    #[test]
    fn stale_cursor_yields_empty_page() {
        let store = store_with(10);
        let mut client = CrawlClient::new(&store);
        let page = client.list("SuicideWatch", Some(PostId(9999)), 50).unwrap();
        assert!(page.posts.is_empty());
        assert!(page.after.is_none());
    }

    #[test]
    fn window_crawl_filters_by_time() {
        let store = store_with(300);
        let mut client = CrawlClient::new(&store);
        let posts = client
            .crawl_window("SuicideWatch", Timestamp(5_000), Timestamp(10_000))
            .unwrap();
        assert!(!posts.is_empty());
        assert!(posts
            .iter()
            .all(|p| p.created >= Timestamp(5_000) && p.created < Timestamp(10_000)));
        assert_eq!(posts.len(), 50);
    }

    #[test]
    fn unknown_subreddit_errors() {
        let store = store_with(1);
        let mut client = CrawlClient::new(&store);
        assert!(client.list("nope", None, 10).is_err());
    }

    #[test]
    fn rate_limit_advances_simulated_time() {
        let store = store_with(10_000);
        let mut client = CrawlClient::new(&store);
        client
            .crawl_window("SuicideWatch", Timestamp(0), Timestamp(i64::MAX))
            .unwrap();
        let stats = client.stats();
        assert_eq!(stats.requests, 100); // 10k posts / 100 per page
        assert_eq!(stats.simulated_secs, 100); // 60 rpm → 1s per request
        assert_eq!(stats.posts_fetched, 10_000);
    }

    #[test]
    fn ingest_sorts_out_of_order_posts() {
        let mut store = RedditStore::new();
        store.publish(
            "SuicideWatch",
            vec![mk_post(2, 300), mk_post(0, 100), mk_post(1, 200)],
        );
        let mut client = CrawlClient::new(&store);
        let page = client.list("SuicideWatch", None, 10).unwrap();
        let ids: Vec<u32> = page.posts.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
