//! The corpus generator: produces the raw `r/SuicideWatch`-like pool.
//!
//! The generator emits the *unannotated raw collection* the paper starts
//! from (139,455 posts / 76,186 users at paper scale), including the
//! blemishes preprocessing must handle: off-topic posts and reposts. Each
//! user is generated independently from a seeded substream, so the corpus
//! is reproducible and users can be regenerated in isolation.

use rand::rngs::StdRng;
use rand::Rng;

use crate::behavior::{coupling, Trajectory};
use crate::lexicon::OFF_TOPIC_SENTENCES;
use crate::risk::RiskLevel;
use crate::textgen::{render_post, TextGenConfig};
use crate::types::{PostId, RawPost, RawUser, UserId};
use rsd_common::rng::{exponential, stream_rng, truncated_log_normal};
use rsd_common::{Result, RsdError, Timestamp};

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Master seed; every stochastic decision derives from it.
    pub seed: u64,
    /// Number of users to generate.
    pub n_users: usize,
    /// Inclusive start of the collection window.
    pub window_start: Timestamp,
    /// Exclusive end of the collection window.
    pub window_end: Timestamp,
    /// Posts-per-user log-normal location parameter.
    pub posts_mu: f64,
    /// Posts-per-user log-normal scale parameter.
    pub posts_sigma: f64,
    /// Hard cap on posts per user.
    pub max_posts_per_user: usize,
    /// Fraction of posts that are off-topic noise.
    pub off_topic_rate: f64,
    /// Fraction of posts that are reposts of an earlier post by the same
    /// user (dedup work for preprocessing).
    pub repost_rate: f64,
    /// Text rendering controls.
    pub textgen: TextGenConfig,
}

impl CorpusConfig {
    /// Paper-scale configuration: ≈76,186 users over 01/2020–12/2021,
    /// yielding ≈139k posts (the raw pool of \[3\] the paper draws from).
    pub fn paper(seed: u64) -> Self {
        CorpusConfig {
            seed,
            n_users: 76_186,
            window_start: Timestamp::from_ymd(2020, 1, 1).expect("valid date"),
            window_end: Timestamp::from_ymd(2022, 1, 1).expect("valid date"),
            posts_mu: 0.0,
            posts_sigma: 1.05,
            max_posts_per_user: 120,
            off_topic_rate: 0.06,
            repost_rate: 0.02,
            textgen: TextGenConfig::default(),
        }
    }

    /// A scaled-down configuration for tests and debug builds: same window
    /// and distributional shape, ~`n_users` users.
    pub fn small(seed: u64, n_users: usize) -> Self {
        CorpusConfig {
            n_users,
            ..Self::paper(seed)
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.n_users == 0 {
            return Err(RsdError::config("n_users", "must be positive"));
        }
        if self.window_end <= self.window_start {
            return Err(RsdError::config("window_end", "must be after window_start"));
        }
        if !(0.0..1.0).contains(&self.off_topic_rate) {
            return Err(RsdError::config("off_topic_rate", "must be in [0, 1)"));
        }
        if !(0.0..1.0).contains(&self.repost_rate) {
            return Err(RsdError::config("repost_rate", "must be in [0, 1)"));
        }
        if self.max_posts_per_user == 0 {
            return Err(RsdError::config("max_posts_per_user", "must be positive"));
        }
        Ok(())
    }
}

/// The generated raw pool: users plus their posts, in crawl order.
#[derive(Debug, Clone)]
pub struct RawCorpus {
    /// All users with their chronological post ids.
    pub users: Vec<RawUser>,
    /// All posts; `posts[i].id == PostId(i)`.
    pub posts: Vec<RawPost>,
}

impl RawCorpus {
    /// Look up a post by id.
    pub fn post(&self, id: PostId) -> Result<&RawPost> {
        self.posts
            .get(id.0 as usize)
            .ok_or_else(|| RsdError::not_found("post", id))
    }

    /// Look up a user by id.
    pub fn user(&self, id: UserId) -> Result<&RawUser> {
        self.users
            .get(id.0 as usize)
            .ok_or_else(|| RsdError::not_found("user", id))
    }
}

/// One generated user shard: a contiguous range of users with their
/// posts. Authors carry **global** user ids; post ids are **shard-local**
/// (`posts[i].id == PostId(i)`), with `duplicate_of` references remapped
/// into the same local space (reposts only ever cite the same user's
/// earlier posts, so they never cross a shard boundary).
#[derive(Debug, Clone)]
pub(crate) struct ShardCorpus {
    /// The shard's users with their chronological (shard-local) post ids.
    pub users: Vec<RawUser>,
    /// The shard's posts in user order.
    pub posts: Vec<RawPost>,
}

/// The generator itself. Stateless apart from configuration; call
/// [`CorpusGenerator::generate`].
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    cfg: CorpusConfig,
}

impl CorpusGenerator {
    /// Create a generator, validating the configuration.
    pub fn new(cfg: CorpusConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(CorpusGenerator { cfg })
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.cfg
    }

    /// Generate the full raw corpus deterministically.
    ///
    /// Users are drafted in parallel — each from its own seeded substream,
    /// with post ids local to the user — then stitched serially in user
    /// order, remapping local ids onto the global sequence. The stitched
    /// corpus is byte-identical to fully serial generation for any thread
    /// count.
    pub fn generate(&self) -> RawCorpus {
        let _span = rsd_obs::Span::enter("corpus.generate");
        let started = rsd_obs::enabled().then(std::time::Instant::now);
        let shard = self.generate_shard(0..self.cfg.n_users as u32);
        let ShardCorpus { users, posts } = shard;

        rsd_obs::counter_add("corpus.users", users.len() as u64);
        rsd_obs::counter_add("corpus.posts", posts.len() as u64);
        if let Some(started) = started {
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            rsd_obs::gauge("corpus.users_per_sec", users.len() as f64 / secs);
            rsd_obs::gauge("corpus.posts_per_sec", posts.len() as f64 / secs);
        }
        RawCorpus { users, posts }
    }

    /// Generate one contiguous user range of the corpus.
    ///
    /// User substreams are seeded by **global** user index, so
    /// `generate_shard(a..b)` drafts exactly the posts those users get in
    /// a full [`CorpusGenerator::generate`] run; only post ids differ —
    /// they are dense within the shard (`PostId(0..)`), and a streaming
    /// merge restores global ids by offsetting with the raw-post counts of
    /// the preceding shards. `generate()` itself is the single-shard case
    /// `generate_shard(0..n_users)`.
    pub(crate) fn generate_shard(&self, user_range: std::ops::Range<u32>) -> ShardCorpus {
        let uids: Vec<u32> = user_range.collect();
        let mut users = Vec::with_capacity(uids.len());
        let mut posts: Vec<RawPost> = Vec::new();

        let mut drafts: Vec<Option<Vec<RawPost>>> = uids.iter().map(|_| None).collect();
        rsd_par::parallel_chunks_mut(&mut drafts, 32, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(self.generate_user(uids[start + off] as usize));
            }
        });

        for (&uid, draft) in uids.iter().zip(drafts) {
            let local = draft.expect("user drafted");
            let offset = posts.len() as u32;
            let mut post_ids = Vec::with_capacity(local.len());
            for mut post in local {
                post.id = PostId(offset + post.id.0);
                if let Some(orig) = post.duplicate_of {
                    post.duplicate_of = Some(PostId(offset + orig.0));
                }
                post_ids.push(post.id);
                posts.push(post);
            }
            users.push(RawUser {
                id: UserId(uid),
                post_ids,
            });
        }
        ShardCorpus { users, posts }
    }

    /// Draft one user's posts with ids local to the user (`PostId(0..n)`).
    /// The RNG substream and draw order are exactly those of the original
    /// serial loop; only the id space differs, and reposts can only
    /// reference the user's own earlier posts, so local ids suffice.
    fn generate_user(&self, uidx: usize) -> Vec<RawPost> {
        let cfg = &self.cfg;
        let mut rng = stream_rng(cfg.seed, &format!("corpus.user.{uidx}"));
        let user_id = UserId(uidx as u32);
        let n_posts = truncated_log_normal(
            &mut rng,
            cfg.posts_mu,
            cfg.posts_sigma,
            1.0,
            cfg.max_posts_per_user as f64,
        )
        .round()
        .max(1.0) as usize;

        let mut traj = Trajectory::new(&mut rng);
        let t0 = self.sample_start_time(&mut rng, n_posts, &traj);

        // Pass 1: levels and a strictly increasing timeline with
        // circadian time-of-day structure.
        let mut levels = Vec::with_capacity(n_posts);
        let mut times = Vec::with_capacity(n_posts);
        let mut t = t0;
        for pidx in 0..n_posts {
            let level = if pidx == 0 {
                traj.current
            } else {
                traj.step(&mut rng)
            };
            let created = self.apply_circadian(&mut rng, t, traj.night_prob()).0;
            let created = match times.last() {
                Some(&prev) if created <= prev => prev + rng.gen_range(60..3_600),
                _ => created,
            };
            levels.push(level);
            times.push(created);
            let gap_secs = exponential(&mut rng, traj.mean_gap_days() * Timestamp::DAY as f64);
            t = Timestamp(created + gap_secs.max(60.0) as i64);
        }

        // Pass 2: if the timeline overflowed the collection window,
        // rescale offsets linearly (order-preserving) to fit.
        let last = *times.last().expect("n_posts >= 1");
        let window_last = cfg.window_end.0 - 1;
        if last > window_last && last > t0.0 {
            let scale = (window_last - t0.0) as f64 / (last - t0.0) as f64;
            for time in &mut times {
                *time = t0.0 + ((*time - t0.0) as f64 * scale) as i64;
            }
        }

        // Pass 3: render the posts (local id space).
        let mut local_posts: Vec<RawPost> = Vec::with_capacity(n_posts);
        let mut post_ids = Vec::with_capacity(n_posts);
        for (level, time) in levels.into_iter().zip(times) {
            let id = PostId(local_posts.len() as u32);
            let post = self.render_one(
                &mut rng,
                id,
                user_id,
                Timestamp(time),
                level,
                &local_posts,
                &post_ids,
            );
            post_ids.push(id);
            local_posts.push(post);
        }
        local_posts
    }

    /// Pick the user's first-post time so that the expected span of their
    /// posting history fits inside the window.
    fn sample_start_time(&self, rng: &mut StdRng, n_posts: usize, traj: &Trajectory) -> Timestamp {
        let cfg = &self.cfg;
        let window = (cfg.window_end.0 - cfg.window_start.0) as f64;
        let expected_span = (n_posts as f64 - 1.0) * traj.mean_gap_days() * Timestamp::DAY as f64;
        let slack = (window - expected_span).max(window * 0.05);
        let offset = rng.gen::<f64>() * slack;
        Timestamp(cfg.window_start.0 + offset as i64)
    }

    /// Re-draw the time-of-day component according to the user's current
    /// night-posting probability, keeping the calendar date.
    fn apply_circadian(&self, rng: &mut StdRng, t: Timestamp, night_prob: f64) -> Timestamp {
        let midnight = t.0.div_euclid(Timestamp::DAY) * Timestamp::DAY;
        let is_night = rng.gen::<f64>() < night_prob;
        let secs = if is_night {
            // 22:00–06:00 window: 8 hours spanning midnight.
            let offset = rng.gen_range(0..8 * 3_600);
            (22 * 3_600 + offset) % Timestamp::DAY
        } else {
            // Daytime: 06:00–22:00.
            rng.gen_range(6 * 3_600..22 * 3_600)
        };
        Timestamp(midnight + secs)
    }

    /// Render a single post, possibly replacing it with off-topic noise or
    /// a repost of one of the user's earlier posts.
    #[allow(clippy::too_many_arguments)]
    fn render_one(
        &self,
        rng: &mut StdRng,
        id: PostId,
        author: UserId,
        created: Timestamp,
        level: RiskLevel,
        posts: &[RawPost],
        own_earlier: &[PostId],
    ) -> RawPost {
        let cfg = &self.cfg;
        let roll: f64 = rng.gen();
        if roll < cfg.repost_rate && !own_earlier.is_empty() {
            let orig_id = own_earlier[rng.gen_range(0..own_earlier.len())];
            let orig = &posts[orig_id.0 as usize];
            return RawPost {
                id,
                author,
                created,
                body: orig.body.clone(),
                latent_risk: orig.latent_risk,
                off_topic: orig.off_topic,
                duplicate_of: Some(orig_id),
            };
        }
        if roll < cfg.repost_rate + cfg.off_topic_rate {
            let n = rng.gen_range(1..=3);
            let mut body = (0..n)
                .map(|_| OFF_TOPIC_SENTENCES[rng.gen_range(0..OFF_TOPIC_SENTENCES.len())])
                .collect::<Vec<_>>()
                .join(". ");
            body.push('.');
            return RawPost {
                id,
                author,
                created,
                body,
                latent_risk: RiskLevel::Indicator,
                off_topic: true,
                duplicate_of: None,
            };
        }
        let body = render_post(level, coupling(level).mean_sentences, &cfg.textgen, rng);
        RawPost {
            id,
            author,
            created,
            body,
            latent_risk: level,
            off_topic: false,
            duplicate_of: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::tests::expected_marginals;

    fn small_corpus(seed: u64, users: usize) -> RawCorpus {
        CorpusGenerator::new(CorpusConfig::small(seed, users))
            .unwrap()
            .generate()
    }

    /// Class marginals over on-topic, non-duplicate posts: fraction of
    /// posts at each risk level, indexed by [`RiskLevel::index`].
    fn risk_marginals(corpus: &RawCorpus) -> [f64; 4] {
        let mut counts = [0usize; 4];
        let mut total = 0usize;
        for p in &corpus.posts {
            if p.off_topic || p.duplicate_of.is_some() {
                continue;
            }
            counts[p.latent_risk.index()] += 1;
            total += 1;
        }
        let mut out = [0.0; 4];
        if total > 0 {
            for (o, c) in out.iter_mut().zip(counts) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    #[test]
    fn validation_catches_bad_config() {
        let mut cfg = CorpusConfig::small(1, 10);
        cfg.n_users = 0;
        assert!(CorpusGenerator::new(cfg).is_err());

        let mut cfg = CorpusConfig::small(1, 10);
        cfg.window_end = cfg.window_start;
        assert!(CorpusGenerator::new(cfg).is_err());

        let mut cfg = CorpusConfig::small(1, 10);
        cfg.off_topic_rate = 1.5;
        assert!(CorpusGenerator::new(cfg).is_err());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small_corpus(42, 50);
        let b = small_corpus(42, 50);
        assert_eq!(a.posts, b.posts);
        let c = small_corpus(43, 50);
        assert_ne!(a.posts, c.posts);
    }

    #[test]
    fn ids_are_dense_and_consistent() {
        let corpus = small_corpus(1, 100);
        for (i, post) in corpus.posts.iter().enumerate() {
            assert_eq!(post.id.0 as usize, i);
        }
        for user in &corpus.users {
            for pid in &user.post_ids {
                assert_eq!(corpus.post(*pid).unwrap().author, user.id);
            }
        }
    }

    #[test]
    fn timestamps_inside_window_and_sorted_per_user() {
        let corpus = small_corpus(2, 200);
        let cfg = CorpusConfig::small(2, 200);
        for user in &corpus.users {
            let mut prev = Timestamp(i64::MIN);
            for pid in &user.post_ids {
                let p = corpus.post(*pid).unwrap();
                assert!(p.created >= cfg.window_start && p.created < cfg.window_end);
                assert!(p.created >= prev, "per-user posts must be chronological");
                prev = p.created;
            }
        }
    }

    #[test]
    fn posts_per_user_is_heavy_tailed() {
        let corpus = small_corpus(3, 3_000);
        let counts: Vec<usize> = corpus.users.iter().map(RawUser::post_count).collect();
        let under_20 = counts.iter().filter(|&&c| c < 20).count() as f64 / counts.len() as f64;
        assert!(under_20 > 0.9, "Fig 1: vast majority under 20 posts");
        let max = counts.iter().max().copied().unwrap();
        assert!(max >= 20, "but an active tail exists (max {max})");
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(
            (1.4..2.6).contains(&mean),
            "raw pool mean posts/user ≈1.8 (got {mean})"
        );
    }

    #[test]
    fn class_marginals_near_calibration_target() {
        let corpus = small_corpus(4, 4_000);
        let m = risk_marginals(&corpus);
        let want = expected_marginals();
        for (i, (got, want)) in m.iter().zip(want).enumerate() {
            assert!(
                (got - want).abs() < 0.03,
                "class {i}: got {got:.3}, want {want:.3}"
            );
        }
    }

    #[test]
    fn off_topic_and_reposts_at_configured_rates() {
        let corpus = small_corpus(5, 3_000);
        let total = corpus.posts.len() as f64;
        let off = corpus.posts.iter().filter(|p| p.off_topic).count() as f64 / total;
        let dup = corpus
            .posts
            .iter()
            .filter(|p| p.duplicate_of.is_some())
            .count() as f64
            / total;
        assert!((off - 0.06).abs() < 0.02, "off-topic rate {off}");
        // Reposts require an earlier post by the same user, so the realized
        // rate sits below the nominal 2 %.
        assert!(dup > 0.001 && dup < 0.04, "repost rate {dup}");
    }

    #[test]
    fn reposts_duplicate_body_of_original() {
        let corpus = small_corpus(6, 2_000);
        for p in corpus.posts.iter().filter(|p| p.duplicate_of.is_some()) {
            let orig = corpus.post(p.duplicate_of.unwrap()).unwrap();
            assert_eq!(p.body, orig.body);
            assert_eq!(p.author, orig.author);
            assert!(orig.created <= p.created);
        }
    }

    #[test]
    fn night_fraction_higher_for_high_risk() {
        let corpus = small_corpus(7, 4_000);
        let frac = |lvl: RiskLevel| {
            let posts: Vec<_> = corpus
                .posts
                .iter()
                .filter(|p| !p.off_topic && p.latent_risk == lvl)
                .collect();
            posts.iter().filter(|p| p.created.is_night()).count() as f64 / posts.len() as f64
        };
        let lo = frac(RiskLevel::Indicator);
        let hi = frac(RiskLevel::Attempt);
        assert!(
            hi > lo + 0.1,
            "attempt night fraction {hi} should exceed indicator {lo}"
        );
    }
}
