//! Integration: the simulated Reddit collection pathway behaves like the
//! real API contract the paper's crawler depended on.

use rsd15k::corpus::generator::RawCorpus;
use rsd15k::corpus::reddit::{CrawlClient, RedditStore, MAX_PAGE_SIZE};
use rsd15k::prelude::*;

/// Publish the whole corpus into a store under `r/SuicideWatch`.
fn into_store(corpus: RawCorpus) -> RedditStore {
    let mut store = RedditStore::new();
    store.publish("SuicideWatch", corpus.posts);
    store
}

fn store(seed: u64, users: usize) -> RedditStore {
    into_store(
        CorpusGenerator::new(CorpusConfig::small(seed, users))
            .unwrap()
            .generate(),
    )
}

#[test]
fn crawl_equals_direct_enumeration() {
    let corpus = CorpusGenerator::new(CorpusConfig::small(6001, 1_500))
        .unwrap()
        .generate();
    let mut expected: Vec<_> = corpus.posts.clone();
    expected.sort_by_key(|p| (p.created, p.id));
    let store = into_store(corpus);
    let mut client = CrawlClient::new(&store);
    let crawled = client
        .crawl_window(
            "SuicideWatch",
            Timestamp::from_ymd(2020, 1, 1).unwrap(),
            Timestamp::from_ymd(2022, 1, 1).unwrap(),
        )
        .unwrap();
    assert_eq!(crawled.len(), expected.len());
    assert_eq!(
        crawled, expected,
        "crawl must see every post exactly once, in order"
    );
}

#[test]
fn partial_windows_are_prefix_consistent() {
    let store = store(6002, 1_000);
    let start = Timestamp::from_ymd(2020, 1, 1).unwrap();
    let mid = Timestamp::from_ymd(2021, 1, 1).unwrap();
    let end = Timestamp::from_ymd(2022, 1, 1).unwrap();
    let mut c1 = CrawlClient::new(&store);
    let first_half = c1.crawl_window("SuicideWatch", start, mid).unwrap();
    let mut c2 = CrawlClient::new(&store);
    let full = c2.crawl_window("SuicideWatch", start, end).unwrap();
    assert!(first_half.len() < full.len());
    assert_eq!(&full[..first_half.len()], &first_half[..]);
}

#[test]
fn request_budget_matches_pagination_math() {
    let store = store(6003, 2_000);
    let mut client = CrawlClient::new(&store);
    let posts = client
        .crawl_window(
            "SuicideWatch",
            Timestamp::from_ymd(2020, 1, 1).unwrap(),
            Timestamp::from_ymd(2022, 1, 1).unwrap(),
        )
        .unwrap();
    let stats = client.stats();
    let expected_pages = posts.len().div_ceil(MAX_PAGE_SIZE) as u64;
    assert!(
        stats.requests >= expected_pages && stats.requests <= expected_pages + 1,
        "requests {} vs expected pages {expected_pages}",
        stats.requests
    );
    // 60 req/min budget → simulated seconds = requests.
    assert_eq!(stats.simulated_secs, stats.requests);
}
