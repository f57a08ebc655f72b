//! Committed build digests: FNV-1a hashes of everything a build returns,
//! at smoke and mid scale. Each build is hashed in three parts:
//!
//! * the dataset as JSONL, written through [`rsd_dataset::io::to_jsonl`];
//! * the unlabelled pool, in order;
//! * the [`BuildReport`] (raw, crawl, preprocess and campaign counts), as
//!   JSON.
//!
//! The streaming build is checked under forced-serial execution and under
//! a 4-thread pool, and the batch build once. Any change to generation,
//! crawling, cleaning, relevance, dedup, selection or annotation that
//! moves a single output byte fails here. The mid-scale case takes a few
//! seconds in release and minutes in a debug build, so it is ignored by
//! default; `scripts/ci.sh` runs it in release.

use rsd_dataset::io::to_jsonl;
use rsd_dataset::{BuildConfig, BuildReport, DatasetBuilder, Rsd15k, StreamingOptions};
use rsd_pipeline::PipelineConfig;

/// FNV-1a 64 streamed over several byte slices.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed item, so item boundaries count.
    fn item(&mut self, bytes: &[u8]) {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes);
    }
}

/// The three digests of one build: dataset JSONL, unlabelled pool, report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuildDigest {
    dataset: u64,
    pool: u64,
    report: u64,
}

fn digest(dataset: &Rsd15k, pool: &[String], report: &BuildReport) -> BuildDigest {
    let mut jsonl = Vec::new();
    to_jsonl(dataset, &mut jsonl).unwrap();
    let mut d = Digest::new();
    d.bytes(&jsonl);
    let dataset = d.0;

    let mut d = Digest::new();
    d.bytes(&(pool.len() as u64).to_le_bytes());
    for text in pool {
        d.item(text.as_bytes());
    }
    let pool = d.0;

    let mut d = Digest::new();
    d.bytes(serde_json::to_string(report).unwrap().as_bytes());
    BuildDigest {
        dataset,
        pool,
        report: d.0,
    }
}

fn streaming(cfg: &BuildConfig, shard_users: usize, shards_in_flight: usize) -> BuildDigest {
    let opts = StreamingOptions {
        pipeline: PipelineConfig {
            shard_users,
            shards_in_flight,
            interrupt_after_shards: None,
        },
        checkpoint_dir: None,
        interrupt_after_stage: None,
    };
    let out = DatasetBuilder::new(cfg.clone())
        .build_streaming(&opts)
        .unwrap();
    digest(&out.dataset, &out.unlabeled, &out.report)
}

fn batch(cfg: &BuildConfig) -> BuildDigest {
    let (dataset, pool, report) = DatasetBuilder::new(cfg.clone())
        .build_batch_with_pool()
        .unwrap();
    digest(&dataset, &pool, &report)
}

/// Every build path of `cfg` must hash to `expected`.
fn check(cfg: &BuildConfig, shard_users: usize, expected: BuildDigest) {
    for (what, got) in [
        (
            "streaming, serial",
            rsd_par::run_serial(|| streaming(cfg, shard_users, 1)),
        ),
        (
            "streaming, 4-thread pool",
            rsd_par::with_local_pool(4, || streaming(cfg, shard_users, 4)),
        ),
        ("batch", batch(cfg)),
    ] {
        assert_eq!(got, expected, "{what}: got {got:#x?}");
    }
}

/// Smoke scale (`RSD_SCALE=smoke`), seed 2026.
const SMOKE_DIGEST: BuildDigest = BuildDigest {
    dataset: 0x929b_d4d0_6008_b8c9,
    pool: 0x1b00_f369_0aac_c602,
    report: 0x2a28_486e_9e58_5bb1,
};

/// Mid scale (`RSD_SCALE=mid`), seed 2026.
const MID_DIGEST: BuildDigest = BuildDigest {
    dataset: 0x1d4c_03b9_f631_c784,
    pool: 0xb29c_ba5d_76c4_7ce8,
    report: 0x7543_3233_471c_64ac,
};

#[test]
fn smoke_build_matches_committed_digest() {
    check(&BuildConfig::scaled(2026, 2_500, 48), 512, SMOKE_DIGEST);
}

#[test]
#[ignore]
fn mid_build_matches_committed_digest() {
    check(&BuildConfig::scaled(2026, 24_000, 400), 4_096, MID_DIGEST);
}
