//! The streaming sharded build behind
//! [`DatasetBuilder`](crate::DatasetBuilder).
//!
//! The batch path materializes the whole raw pool at once; this module
//! runs the same pipeline over **user shards** on `rsd-pipeline`. One
//! per-shard closure runs the first two steps; the fold and the global
//! steps run on the calling thread:
//!
//! ```text
//! pipeline.shard.corpus      per shard  generate shard + crawl its window
//! pipeline.shard.preprocess  per shard  clean/analyze bodies, drop raw posts
//!   └─ checkpoint "preprocess"          per-shard JSONL artifact
//! (fold, ascending shard order)         restore global post ids, merge
//! pipeline.merge                        chronological sort + global dedup
//! pipeline.select            global     annotation-pool selection
//!   └─ checkpoint "pipeline.select"
//! pipeline.annotate          global     the full annotation campaign
//!   └─ checkpoint "pipeline.annotate"
//! pipeline.assemble                     densify ids, validate
//! ```
//!
//! Output is **bit-identical** to [`DatasetBuilder::build_batch_with_pool`]
//! (CI diffs the two at smoke scale). The critical equivalences:
//!
//! * global post ids — the batch path numbers posts by stitching users in
//!   id order, so the fold restores each shard's ids by offsetting with
//!   the raw-post counts of all preceding shards;
//! * crawl order — the subreddit lists by `(created, id)`, so sorting the
//!   merged candidates by `(created, global id)` reproduces the batch
//!   crawl sequence exactly;
//! * dedup — first-occurrence detection must run over the *global*
//!   chronological stream (duplicates cross shards), so it happens at the
//!   merge, via the same [`ChronoDedup`] procedure the batch path uses;
//! * crawl stats — every generated post lies inside the collection
//!   window, so the batch client's request count has the closed form
//!   `max(1, ceil(posts / page))` the merge computes from shard counts.
//!
//! Only one wave of shards (raw posts and all) is resident at a time; the
//! merged candidate rows keep cleaned text but no raw bodies. The
//! `pipeline.peak_resident_posts` gauge reports the realized bound.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, Write};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::builder::{BuildConfig, BuildReport};
use crate::record::{Post, Rsd15k, UserRecord};
use rsd_annotation::{AnnotatedItem, Campaign, CampaignReport};
use rsd_common::rng::fnv1a;
use rsd_common::{Result, RsdError, Timestamp};
use rsd_corpus::reddit::{CrawlStats, MAX_PAGE_SIZE};
use rsd_corpus::{
    select_users_for_annotation, CorpusGenerator, CorpusShardSource, CrawledShard, PostId, RawUser,
    RiskLevel, UserId,
};
use rsd_pipeline::{
    checkpointed, config_fingerprint, run_shards, Artifact, Checkpointer, PipelineConfig,
    PipelineReport, ResidentGauge, ShardPlan, ShardSpec,
};
use rsd_text::{ChronoDedup, PreprocessReport, Preprocessor};

/// Options for a streaming build, usually read from the environment.
#[derive(Debug, Clone, Default)]
pub struct StreamingOptions {
    /// Shard sizing and concurrency (`RSD_SHARD_USERS`,
    /// `RSD_INTERRUPT_AFTER_SHARDS`).
    pub pipeline: PipelineConfig,
    /// Where stage-boundary artifacts live (`RSD_CHECKPOINT_DIR`); `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Fault injection for resume tests: abort right after the named
    /// global stage commits its checkpoint (`"pipeline.select"` or
    /// `"pipeline.annotate"`).
    pub interrupt_after_stage: Option<String>,
}

impl StreamingOptions {
    /// Read the pipeline knobs and `RSD_CHECKPOINT_DIR` (default off);
    /// invalid values abort naming the knob.
    pub fn from_env() -> Self {
        StreamingOptions {
            pipeline: PipelineConfig::from_env(),
            checkpoint_dir: rsd_obs::knob::CHECKPOINT_DIR
                .get::<Option<String>>()
                .map(PathBuf::from),
            interrupt_after_stage: None,
        }
    }
}

/// Everything a streaming build returns.
#[derive(Debug)]
pub struct StreamingBuild {
    /// The assembled dataset (bit-identical to the batch path).
    pub dataset: Rsd15k,
    /// Cleaned texts of surviving posts from non-selected users.
    pub unlabeled: Vec<String>,
    /// The standard build report (bit-identical to the batch path).
    pub report: BuildReport,
    /// What the executor did: shards, residency peak, checkpoint traffic.
    pub pipeline: PipelineReport,
}

/// One analyzed candidate post inside a shard artifact. `id` is
/// shard-local; the fold restores global ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CandidateRow {
    id: u32,
    author: u32,
    created: i64,
    latent: RiskLevel,
    relevant: bool,
    tokens: u32,
    canon: String,
    /// Cleaned text, carried only while the post can still be kept
    /// (relevant and long enough; the dedup verdict is pending).
    cleaned: Option<String>,
}

/// Per-shard artifact at the preprocess checkpoint boundary.
#[derive(Debug, Clone)]
struct ShardCandidates {
    shard: usize,
    raw_users: usize,
    raw_posts: usize,
    crawl: CrawlStats,
    rows: Vec<CandidateRow>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ShardCandidatesHeader {
    shard: usize,
    raw_users: usize,
    raw_posts: usize,
    crawl: CrawlStats,
    rows: usize,
}

fn serde_err(e: impl std::fmt::Display) -> RsdError {
    RsdError::Serde(e.to_string())
}

impl Artifact for ShardCandidates {
    fn encode(&self, w: &mut dyn Write) -> Result<()> {
        let header = ShardCandidatesHeader {
            shard: self.shard,
            raw_users: self.raw_users,
            raw_posts: self.raw_posts,
            crawl: self.crawl,
            rows: self.rows.len(),
        };
        writeln!(w, "{}", serde_json::to_string(&header).map_err(serde_err)?)?;
        for row in &self.rows {
            writeln!(w, "{}", serde_json::to_string(row).map_err(serde_err)?)?;
        }
        Ok(())
    }

    fn decode(r: &mut dyn BufRead) -> Result<Self> {
        let mut lines = r.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| serde_err("empty shard artifact"))??;
        let header: ShardCandidatesHeader =
            serde_json::from_str(&header_line).map_err(serde_err)?;
        let mut rows = Vec::with_capacity(header.rows);
        for line in lines {
            rows.push(serde_json::from_str(&line?).map_err(serde_err)?);
        }
        if rows.len() != header.rows {
            return Err(serde_err(format!(
                "shard artifact declares {} rows, found {}",
                header.rows,
                rows.len()
            )));
        }
        Ok(ShardCandidates {
            shard: header.shard,
            raw_users: header.raw_users,
            raw_posts: header.raw_posts,
            crawl: header.crawl,
            rows,
        })
    }
}

/// Run one per-shard step under its span. Spans carry static labels (so
/// trees aggregate across shards), while the companion
/// `pipeline.stage.shard` event pins each execution to a concrete shard
/// and user range.
fn shard_step<T>(stage: &'static str, shard: &ShardSpec, step: impl FnOnce() -> T) -> T {
    let _span = rsd_obs::Span::enter(stage);
    if rsd_obs::enabled() {
        rsd_obs::event(
            "pipeline.stage.shard",
            &[
                ("stage", rsd_obs::Value::String(stage.to_string())),
                ("shard", rsd_obs::Value::Int(shard.index as i128)),
                (
                    "start_user",
                    rsd_obs::Value::Int(i128::from(shard.start_user)),
                ),
                ("users", rsd_obs::Value::Int(shard.n_users() as i128)),
            ],
        );
    }
    step()
}

/// The per-shard preprocess step: analyze each crawled body and drop the
/// raw posts, releasing the shard's residency budget.
fn preprocess_shard(
    pre: &Preprocessor,
    resident: &ResidentGauge,
    shard: &ShardSpec,
    input: CrawledShard,
) -> ShardCandidates {
    let rows = input
        .posts
        .iter()
        .map(|p| {
            let a = pre.analyze(&p.body);
            // Keep the cleaned text only while the post can still
            // survive: the dedup verdict arrives at the merge.
            let keepable = a.relevant && a.tokens >= pre.min_tokens;
            CandidateRow {
                id: p.id.0,
                author: p.author.0,
                created: p.created.0,
                latent: p.latent_risk,
                relevant: a.relevant,
                tokens: a.tokens as u32,
                canon: a.canon,
                cleaned: keepable.then_some(a.cleaned),
            }
        })
        .collect();
    resident.sub(input.raw_posts);
    ShardCandidates {
        shard: shard.index,
        raw_users: input.raw_users,
        raw_posts: input.raw_posts,
        crawl: input.crawl,
        rows,
    }
}

/// A candidate row after the fold restored its global post id.
#[derive(Debug)]
struct MergedRow {
    id: u32,
    author: u32,
    created: i64,
    latent: RiskLevel,
    relevant: bool,
    tokens: u32,
    canon: String,
    cleaned: Option<String>,
}

/// A post that survived preprocessing, with its cleaned text.
#[derive(Debug)]
struct KeptPost {
    id: u32,
    author: u32,
    created: Timestamp,
    latent: RiskLevel,
    text: String,
}

/// The merge point: collects shard artifacts in fold order, restoring
/// global post ids from cumulative raw-post counts.
#[derive(Debug, Default)]
struct CandidateSink {
    next_shard: usize,
    post_offset: u64,
    raw_posts: usize,
    raw_users: usize,
    posts_fetched: u64,
    rows: Vec<MergedRow>,
}

impl CandidateSink {
    /// The build's fold: take one shard's artifact, in shard order.
    fn accept(&mut self, shard: &ShardSpec, item: ShardCandidates) -> Result<()> {
        if item.shard != shard.index || shard.index != self.next_shard {
            return Err(RsdError::PipelineState(format!(
                "shard fold out of order: expected {}, got {} (artifact {})",
                self.next_shard, shard.index, item.shard
            )));
        }
        let mut text_bytes = 0u64;
        for row in item.rows {
            let id = self.post_offset + u64::from(row.id);
            let id = u32::try_from(id)
                .map_err(|_| RsdError::data("global post id exceeds u32 range"))?;
            text_bytes += row.canon.len() as u64;
            self.rows.push(MergedRow {
                id,
                author: row.author,
                created: row.created,
                latent: row.latent,
                relevant: row.relevant,
                tokens: row.tokens,
                canon: row.canon,
                cleaned: row.cleaned,
            });
        }
        self.post_offset += item.raw_posts as u64;
        self.raw_posts += item.raw_posts;
        self.raw_users += item.raw_users;
        self.posts_fetched += item.crawl.posts_fetched;
        self.next_shard += 1;
        rsd_obs::stage_progress("pipeline.merge", item.raw_posts as u64, text_bytes);
        Ok(())
    }
}

/// The merged, deduplicated corpus-after-preprocessing.
struct MergedCorpus {
    raw_posts: usize,
    raw_users: usize,
    crawl: CrawlStats,
    report: PreprocessReport,
    kept: Vec<KeptPost>,
    users: Vec<RawUser>,
}

impl CandidateSink {
    /// Sort into the global crawl order, run the global dedup pass, and
    /// settle every post's fate — reproducing the batch preprocess
    /// decisions and accounting exactly.
    fn finish(self, pre: &Preprocessor) -> MergedCorpus {
        let _span = rsd_obs::Span::enter("pipeline.merge");
        let mut rows = self.rows;
        // The subreddit lists by (created, id); ids are unique, so this
        // reproduces the batch crawl sequence.
        rows.sort_unstable_by_key(|r| (r.created, r.id));

        let duplicate: Vec<bool> = {
            let mut dedup = ChronoDedup::with_capacity(rows.len());
            rows.iter()
                .map(|row| {
                    dedup
                        .push(fnv1a(row.canon.as_bytes()), |orig| {
                            rows[orig].canon == row.canon
                        })
                        .is_some()
                })
                .collect()
        };

        let mut report = PreprocessReport {
            total: rows.len(),
            ..Default::default()
        };
        let mut kept = Vec::new();
        let mut users: BTreeMap<u32, Vec<PostId>> = BTreeMap::new();
        for (row, &dup) in rows.iter_mut().zip(&duplicate) {
            if report.count(pre.classify_parts(row.relevant, row.tokens as usize, dup)) {
                users.entry(row.author).or_default().push(PostId(row.id));
                kept.push(KeptPost {
                    id: row.id,
                    author: row.author,
                    created: Timestamp(row.created),
                    latent: row.latent,
                    text: row.cleaned.take().expect("kept rows carry cleaned text"),
                });
            }
        }
        report.record_counters();

        // Global crawl stats in closed form: every generated post lies in
        // the collection window, so the batch client walks
        // ceil(posts / page) full pages at 60 requests/simulated-minute.
        debug_assert_eq!(self.posts_fetched as usize, self.raw_posts);
        let requests = (self.raw_posts as u64)
            .div_ceil(MAX_PAGE_SIZE as u64)
            .max(1);
        let crawl = CrawlStats {
            requests,
            posts_fetched: self.posts_fetched,
            simulated_secs: requests,
        };

        let users = users
            .into_iter()
            .map(|(id, post_ids)| RawUser {
                id: UserId(id),
                post_ids,
            })
            .collect();
        MergedCorpus {
            raw_posts: self.raw_posts,
            raw_users: self.raw_users,
            crawl,
            report,
            kept,
            users,
        }
    }
}

/// Global selection-stage artifact.
struct SelectArtifact {
    picked: Vec<UserId>,
}

impl Artifact for SelectArtifact {
    fn encode(&self, w: &mut dyn Write) -> Result<()> {
        writeln!(
            w,
            "{}",
            serde_json::to_string(&self.picked).map_err(serde_err)?
        )?;
        Ok(())
    }

    fn decode(r: &mut dyn BufRead) -> Result<Self> {
        let mut line = String::new();
        r.read_line(&mut line)?;
        Ok(SelectArtifact {
            picked: serde_json::from_str(line.trim_end()).map_err(serde_err)?,
        })
    }
}

/// Global annotation-stage artifact.
struct AnnotateArtifact {
    items: Vec<AnnotatedItem>,
    report: CampaignReport,
}

#[derive(Serialize, Deserialize)]
struct AnnotateHeader {
    items: usize,
    report: CampaignReport,
}

impl Artifact for AnnotateArtifact {
    fn encode(&self, w: &mut dyn Write) -> Result<()> {
        let header = AnnotateHeader {
            items: self.items.len(),
            report: self.report.clone(),
        };
        writeln!(w, "{}", serde_json::to_string(&header).map_err(serde_err)?)?;
        for item in &self.items {
            writeln!(w, "{}", serde_json::to_string(item).map_err(serde_err)?)?;
        }
        Ok(())
    }

    fn decode(r: &mut dyn BufRead) -> Result<Self> {
        let mut lines = r.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| serde_err("empty annotate artifact"))??;
        let header: AnnotateHeader = serde_json::from_str(&header_line).map_err(serde_err)?;
        let mut items = Vec::with_capacity(header.items);
        for line in lines {
            items.push(serde_json::from_str(&line?).map_err(serde_err)?);
        }
        if items.len() != header.items {
            return Err(serde_err(format!(
                "annotate artifact declares {} items, found {}",
                header.items,
                items.len()
            )));
        }
        Ok(AnnotateArtifact {
            items,
            report: header.report,
        })
    }
}

/// Fault-injection hook: abort after the named stage committed.
fn check_interrupt(opts: &StreamingOptions, stage: &str) -> Result<()> {
    match &opts.interrupt_after_stage {
        Some(s) if s == stage => Err(RsdError::PipelineState(format!(
            "pipeline interrupted after stage {stage}"
        ))),
        _ => Ok(()),
    }
}

/// Everything output-affecting folds into the checkpoint fingerprint:
/// resuming under a different configuration, seed, or shard geometry
/// silently invalidates prior artifacts.
fn fingerprint(cfg: &BuildConfig, shard_users: usize) -> u64 {
    config_fingerprint(&format!("rsd-stream-v1|{cfg:?}|shard_users={shard_users}"))
}

/// Run the full streaming build. See the module docs for the stage table
/// and the equivalence argument.
///
/// On any error — including injected interrupts (exit 9 in the bench
/// bin) — a `pipeline.aborted` event is emitted and the NDJSON sink is
/// flushed, so a killed build still leaves a complete trace for
/// post-mortem before the process exits.
pub(crate) fn build_streaming(
    cfg: &BuildConfig,
    opts: &StreamingOptions,
) -> Result<StreamingBuild> {
    let out = build_streaming_inner(cfg, opts);
    match &out {
        Ok(_) => rsd_obs::alloc::publish_gauges(),
        Err(e) => {
            rsd_obs::event(
                "pipeline.aborted",
                &[("error", rsd_obs::Value::String(e.to_string()))],
            );
            rsd_obs::flush();
        }
    }
    out
}

fn build_streaming_inner(cfg: &BuildConfig, opts: &StreamingOptions) -> Result<StreamingBuild> {
    let _span = rsd_obs::Span::enter("dataset.build.streaming");
    let generator = CorpusGenerator::new(cfg.corpus.clone())?;
    let n_users = u32::try_from(cfg.corpus.n_users)
        .map_err(|_| RsdError::config("n_users", "exceeds u32 range"))?;
    let shard_users = u32::try_from(opts.pipeline.shard_users).unwrap_or(u32::MAX);
    let plan = ShardPlan::new(n_users, shard_users)?;
    let ckpt = opts
        .checkpoint_dir
        .as_ref()
        .map(|dir| Checkpointer::new(dir, fingerprint(cfg, opts.pipeline.shard_users)))
        .transpose()?;

    // 1.–3. Generate + crawl + preprocess, one wave of shards at a time.
    let resident = ResidentGauge::new();
    let source = CorpusShardSource::new(generator, resident.clone());
    let mut sink = CandidateSink::default();
    run_shards(
        &opts.pipeline,
        &plan,
        |shard| {
            checkpointed(ckpt.as_ref(), "preprocess", Some(shard), || {
                let crawled = shard_step("pipeline.shard.corpus", shard, || source.load(shard))?;
                Ok(shard_step("pipeline.shard.preprocess", shard, || {
                    preprocess_shard(&cfg.preprocess, &resident, shard, crawled)
                }))
            })
        },
        |shard, item| sink.accept(shard, item),
    )?;
    let merged = sink.finish(&cfg.preprocess);

    // 4. Select the annotation pool.
    let select = checkpointed(ckpt.as_ref(), "pipeline.select", None, || {
        let _span = rsd_obs::Span::enter("pipeline.select");
        Ok(SelectArtifact {
            picked: select_users_for_annotation(&merged.users, &cfg.selection)?,
        })
    })?;
    check_interrupt(opts, "pipeline.select")?;

    let picked_set: HashSet<u32> = select.picked.iter().map(|u| u.0).collect();
    let mut pool_posts = Vec::new();
    let mut unlabeled = Vec::new();
    for post in merged.kept {
        if picked_set.contains(&post.author) {
            pool_posts.push(post);
        } else {
            unlabeled.push(post.text);
        }
    }

    // 5. Annotate: the campaign sees (post id, latent truth) pairs.
    let items: Vec<(PostId, RiskLevel)> = pool_posts
        .iter()
        .map(|p| (PostId(p.id), p.latent))
        .collect();
    let annotate = checkpointed(ckpt.as_ref(), "pipeline.annotate", None, || {
        let _span = rsd_obs::Span::enter("pipeline.annotate");
        let mut campaign = Campaign::new(cfg.campaign.clone())?;
        let (items, report) = campaign.run(&items)?;
        Ok(AnnotateArtifact { items, report })
    })?;
    rsd_obs::stage_progress("pipeline.annotate", annotate.items.len() as u64, 0);
    check_interrupt(opts, "pipeline.annotate")?;
    if annotate.items.len() != pool_posts.len() {
        return Err(RsdError::PipelineState(format!(
            "annotation artifact covers {} items, pool has {}",
            annotate.items.len(),
            pool_posts.len()
        )));
    }

    // 6. Assemble, re-densifying user and post ids exactly as the batch
    //    path does.
    let assemble_span = rsd_obs::Span::enter("pipeline.assemble");
    let mut posts = Vec::with_capacity(pool_posts.len());
    let mut timelines: HashMap<UserId, Vec<usize>> = HashMap::new();
    let mut user_remap: HashMap<UserId, UserId> = HashMap::new();
    let mut assembled_bytes = 0u64;
    for (kept, annotation) in pool_posts.into_iter().zip(&annotate.items) {
        debug_assert_eq!(PostId(kept.id), annotation.post);
        assembled_bytes += kept.text.len() as u64;
        let new_user = {
            let next = UserId(user_remap.len() as u32);
            *user_remap.entry(UserId(kept.author)).or_insert(next)
        };
        let new_post_idx = posts.len();
        posts.push(Post {
            id: PostId(new_post_idx as u32),
            user: new_user,
            created: kept.created,
            text: kept.text,
            label: annotation.label,
            source: annotation.source,
        });
        timelines.entry(new_user).or_default().push(new_post_idx);
    }
    let mut users: Vec<UserRecord> = timelines
        .into_iter()
        .map(|(id, mut post_indices)| {
            post_indices.sort_by_key(|&i| (posts[i].created, posts[i].id));
            UserRecord { id, post_indices }
        })
        .collect();
    users.sort_by_key(|u| u.id);

    let dataset = Rsd15k {
        posts,
        users,
        seed: cfg.seed,
    };
    dataset.validate()?;
    rsd_obs::stage_progress(
        "pipeline.assemble",
        dataset.posts.len() as u64,
        assembled_bytes,
    );
    drop(assemble_span);

    let report = BuildReport {
        raw_posts: merged.raw_posts,
        raw_users: merged.raw_users,
        crawl: merged.crawl,
        preprocess: merged.report,
        selected_users: select.picked.len(),
        selected_posts: dataset.n_posts(),
        campaign: annotate.report,
    };
    if report.selected_posts == 0 {
        return Err(RsdError::PipelineState(
            "build produced an empty dataset".to_string(),
        ));
    }
    let pipeline = PipelineReport {
        shards: plan.n_shards(),
        shard_users: opts.pipeline.shard_users,
        shards_in_flight: opts.pipeline.shards_in_flight,
        peak_resident_posts: resident.peak(),
        checkpoint_hits: ckpt.as_ref().map(Checkpointer::hits).unwrap_or(0),
        checkpoint_writes: ckpt.as_ref().map(Checkpointer::writes).unwrap_or(0),
    };
    Ok(StreamingBuild {
        dataset,
        unlabeled,
        report,
        pipeline,
    })
}
