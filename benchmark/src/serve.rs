//! The open-loop client and the capacity ladder.
//!
//! One sender thread submits the corpus in chronological order at Poisson
//! arrival times drawn from the workload seed; one receiver thread takes
//! the answers. Every request is clocked from its *scheduled* send time,
//! so a stall that blocks `submit` once the ingress fills is charged to
//! every request it delays (no coordinated omission). When a rung needs
//! more posts than one pass holds, the stream repeats with user and post
//! ids relabelled, so no post is ever sent twice.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rsd_common::rng::{exponential, fnv1a, stream_rng};
use rsd_dataset::Rsd15k;
use rsd_models::ScoringModel;
use rsd_obs::hist::HdrHist;
use rsd_obs::Stage;
use rsd_serve::{IncomingPost, RiskService, ScoredPost, ServeConfig, ServeReport};

use crate::stats::quantile_ms;

/// p99 latency limit, from scheduled send to answer, that a rung must meet.
pub const LIMIT_MS: f64 = 50.0;
/// Ladder step: rung 0 is the low rate and rung 2 the high rate.
const STEP: f64 = std::f64::consts::SQRT_2;
/// Highest ladder rung tried above the low rate.
const MAX_CLIMB: usize = 8;
/// Bisections between the last passing and the first failing rung.
const BISECTIONS: usize = 3;
/// Fewest requests per rung, so p99 has at least ten samples beyond it.
const MIN_SAMPLES: usize = 1_000;
/// The self-check's single worker stall, injected at the high rate.
pub const STALL_MS: u64 = 200;
/// Requests in the stall rung: few enough that the requests queued
/// behind the stall are well over 1% of the rung.
const STALL_SAMPLES: usize = MIN_SAMPLES;
/// Repetitions of each fixed-rate rung.
const FIXED_REPS: usize = 3;
/// Attempts per capacity probe before it counts as failed.
const PROBE_ATTEMPTS: usize = 3;

/// One chronological pass over the corpus, replayable with fresh ids.
pub struct Stream {
    pass: Vec<IncomingPost>,
    user_stride: u32,
    post_stride: u32,
    /// For each pass position, the index into `dataset.users` of the user
    /// whose final post it is.
    final_of: Vec<Option<usize>>,
}

impl Stream {
    pub fn new(dataset: &Rsd15k) -> Stream {
        let mut order: Vec<usize> = (0..dataset.posts.len()).collect();
        order.sort_by_key(|&i| (dataset.posts[i].created, dataset.posts[i].id));
        let mut final_user = vec![None; dataset.posts.len()];
        for (u, user) in dataset.users.iter().enumerate() {
            let last = *user
                .post_indices
                .last()
                .expect("validated: every user has posts");
            final_user[last] = Some(u);
        }
        Stream {
            final_of: order.iter().map(|&i| final_user[i]).collect(),
            pass: order
                .iter()
                .map(|&i| {
                    let p = &dataset.posts[i];
                    IncomingPost {
                        user: p.user.0,
                        post: p.id.0,
                        created: p.created,
                        text: p.text.clone(),
                    }
                })
                .collect(),
            user_stride: dataset.users.iter().map(|u| u.id.0 + 1).max().unwrap_or(1),
            post_stride: dataset.posts.iter().map(|p| p.id.0 + 1).max().unwrap_or(1),
        }
    }

    /// One pass, in submission order.
    pub fn pass(&self) -> &[IncomingPost] {
        &self.pass
    }

    /// `(user, post)` ids of stream position `k`: repetition `r` of the
    /// pass shifts both by `r` strides.
    fn ids(&self, k: usize) -> (u32, u32) {
        let rep = u32::try_from(k / self.pass.len()).expect("repetition count fits u32");
        let p = &self.pass[k % self.pass.len()];
        let shift = |stride: u32| rep.checked_mul(stride).expect("relabelled ids fit u32");
        (
            p.user + shift(self.user_stride),
            p.post + shift(self.post_stride),
        )
    }

    fn post(&self, k: usize) -> IncomingPost {
        let (user, post) = self.ids(k);
        let p = &self.pass[k % self.pass.len()];
        IncomingPost {
            user,
            post,
            created: p.created,
            text: p.text.clone(),
        }
    }
}

/// One rung: `n` requests at a fixed Poisson rate through a fresh service.
pub struct Rung {
    pub rate: f64,
    /// Scheduled send times, from the start of the rung.
    pub sched_ns: Vec<u64>,
    /// Scheduled send to answer received, per request.
    pub lat_ns: Vec<u64>,
    /// Submit to scored, as the service reports it (`ScoredPost::latency_ns`).
    pub service_ns: Vec<u64>,
    /// Scored to received by the client.
    pub emit_ns: Vec<u64>,
    /// How late the client called `submit` against the schedule.
    pub late_ns: Vec<u64>,
    /// Served risk level per stream position.
    pub levels: Vec<u8>,
    pub report: ServeReport,
    pub sent: u64,
    /// Requests missing, duplicated, out of order, or whose final-window
    /// level differs from batch scoring.
    pub failed: u64,
}

impl Rung {
    pub fn p50_ms(&self) -> f64 {
        quantile_ms(&self.lat_ns, 0.5)
    }

    pub fn p99_ms(&self) -> f64 {
        quantile_ms(&self.lat_ns, 0.99)
    }

    /// Median latency of the last 1% of requests (at least ten): the
    /// backlog still queued when the rung's sends end.
    pub fn tail_ms(&self) -> f64 {
        let k = (self.lat_ns.len() / 100).max(10).min(self.lat_ns.len());
        quantile_ms(&self.lat_ns[self.lat_ns.len() - k..], 0.5)
    }

    /// All requests answered correctly, p99 within the limit, and no
    /// backlog growing past the limit by the end of the rung.
    pub fn passes(&self) -> bool {
        self.failed == 0 && self.p99_ms() <= LIMIT_MS && self.tail_ms() <= LIMIT_MS
    }
}

/// Drives rungs against one fitted model.
pub struct Client<'a> {
    pub model: Arc<ScoringModel>,
    pub stream: &'a Stream,
    /// `ScoringModel::score_windows` on each user's final window, indexed
    /// like `dataset.users`.
    pub final_levels: &'a [usize],
    pub seed: u64,
}

impl Client<'_> {
    fn start(&self, stall_ms: Option<u64>) -> RiskService {
        let cfg = ServeConfig {
            model: self.model.model(),
            inject_stall_ms: stall_ms,
            ..ServeConfig::default()
        };
        RiskService::start(Arc::clone(&self.model), cfg)
    }

    /// Replay `n` stream positions at `rate` posts/s.
    pub fn rung(&self, rate: f64, n: usize, stall_ms: Option<u64>) -> Rung {
        // Every rung replays the same unit-rate arrival sequence, scaled.
        let mut rng = stream_rng(self.seed, "benchmark.arrivals");
        let mut t = 0.0f64;
        let sched: Vec<u64> = (0..n)
            .map(|_| {
                t += exponential(&mut rng, 1.0);
                (t / rate * 1e9) as u64
            })
            .collect();

        let service = self.start(stall_ms);
        let results = service.results();
        let t0 = Instant::now();
        let (submit_ns, received, report) = thread::scope(|s| {
            let receiver = s.spawn(move || {
                let mut out: Vec<(u64, ScoredPost)> = Vec::with_capacity(n);
                while let Some(scored) = results.recv() {
                    out.push((t0.elapsed().as_nanos() as u64, scored));
                }
                out
            });
            let mut submit_ns = Vec::with_capacity(n);
            for (k, &due) in sched.iter().enumerate() {
                let due = t0 + Duration::from_nanos(due);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                submit_ns.push(t0.elapsed().as_nanos() as u64);
                service
                    .submit(self.stream.post(k))
                    .expect("service accepts posts until drained");
            }
            let report = service.drain();
            let received = receiver.join().expect("result receiver panicked");
            (submit_ns, received, report)
        });

        let mut rung = Rung {
            rate,
            sched_ns: Vec::new(),
            lat_ns: Vec::with_capacity(n),
            service_ns: Vec::with_capacity(n),
            emit_ns: Vec::with_capacity(n),
            late_ns: Vec::with_capacity(n),
            levels: Vec::with_capacity(n),
            sent: n as u64,
            failed: (n as u64).abs_diff(received.len() as u64) + (n as u64).abs_diff(report.scored),
            report,
        };
        for (k, (recv_ns, scored)) in received.iter().take(n).enumerate() {
            if (scored.user, scored.post) != self.stream.ids(k) {
                rung.failed += 1;
                continue;
            }
            let level = scored.level.index();
            if let Some(u) = self.stream.final_of[k % self.stream.pass.len()] {
                if level != self.final_levels[u] {
                    rung.failed += 1;
                }
            }
            rung.lat_ns.push(recv_ns.saturating_sub(sched[k]));
            rung.service_ns.push(scored.latency_ns);
            rung.emit_ns
                .push(recv_ns.saturating_sub(submit_ns[k] + scored.latency_ns));
            rung.late_ns.push(submit_ns[k].saturating_sub(sched[k]));
            rung.levels.push(level as u8);
        }
        rung.sched_ns = sched;
        rung
    }

    /// Wall time to push one pass through a fresh service as fast as
    /// `submit` accepts it.
    pub fn unpaced_pass_s(&self) -> f64 {
        let service = self.start(None);
        let results = service.results();
        let t0 = Instant::now();
        thread::scope(|s| {
            let receiver = s.spawn(move || while results.recv().is_some() {});
            for k in 0..self.stream.pass.len() {
                service
                    .submit(self.stream.post(k))
                    .expect("service accepts posts until drained");
            }
            service.drain();
            receiver.join().expect("result receiver panicked");
        });
        t0.elapsed().as_secs_f64()
    }
}

/// Everything the serving phase measured.
pub struct ServeOutcome {
    /// The repetitions at the low and at the high fixed rate.
    pub low: Vec<Rung>,
    pub high: Vec<Rung>,
    pub capacity: f64,
    /// `(rate, passed, p99 ms)` for every capacity probe.
    pub ladder: Vec<(f64, bool, f64)>,
    pub stall_p99_ms: f64,
    /// The p99 the stall must at least produce.
    pub stall_floor_ms: f64,
    pub stall_passed: bool,
    /// Whether the self-check held: the stall pushed p99 to its floor
    /// and failed the rung.
    pub stall_check: bool,
    /// Whether every rung served the same levels over their common prefix.
    pub deterministic: bool,
    /// FNV-1a digest of the levels over that prefix, and its length.
    pub levels_digest: (u64, usize),
    pub blocked_submits: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `serve.stage.*` p99s (ms, pipeline order) over the first high-rate
    /// rung, read from the service's own histograms; only when tracing.
    pub stage_p99_ms: Option<[f64; Stage::COUNT]>,
}

impl ServeOutcome {
    /// The lowest value of a per-rung statistic over the repetitions:
    /// host noise only ever raises latency, so the least disturbed
    /// repetition is the best estimate of the system's own.
    pub fn best_of(rungs: &[Rung], stat: impl Fn(&Rung) -> f64) -> f64 {
        rungs.iter().map(stat).fold(f64::INFINITY, f64::min)
    }

    /// Requests answered over the repetitions.
    pub fn samples(rungs: &[Rung]) -> usize {
        rungs.iter().map(|r| r.lat_ns.len()).sum()
    }
}

/// Requests a rung at `rate` sends when rungs last `rung_s` seconds.
fn rung_len(rate: f64, rung_s: f64) -> usize {
    ((rate * rung_s) as usize).max(MIN_SAMPLES)
}

/// Capacity probes: a probe passes if any of `PROBE_ATTEMPTS` rungs passes.
struct Probes<'c, 'a> {
    client: &'c Client<'a>,
    rung_s: f64,
    ladder: Vec<(f64, bool, f64)>,
    rungs: Vec<Rung>,
}

impl Probes<'_, '_> {
    fn pass(&mut self, rate: f64) -> bool {
        for _ in 0..PROBE_ATTEMPTS {
            let rung = self.client.rung(rate, rung_len(rate, self.rung_s), None);
            let ok = rung.passes();
            self.ladder.push((rate, ok, rung.p99_ms()));
            self.rungs.push(rung);
            if ok {
                return true;
            }
        }
        false
    }
}

/// Run the fixed-rate rungs, the capacity search and the stall self-check.
///
/// Other tenants' CPU use only ever slows a rung, and it comes in bursts.
/// So the fixed rates run `FIXED_REPS` times, spread over the phase, and
/// report the best repetition; a capacity probe that fails is retried.
pub fn run(client: &Client<'_>, low: f64, rung_s: f64, trace: bool) -> ServeOutcome {
    let high = low * STEP * STEP;
    let (mut lows, mut highs) = (Vec::new(), Vec::new());
    let fixed_pair = |lows: &mut Vec<Rung>, highs: &mut Vec<Rung>, trace: bool| {
        lows.push(client.rung(low, rung_len(low, rung_s), None));
        if trace {
            rsd_obs::hist::reset();
        }
        highs.push(client.rung(high, rung_len(high, rung_s), None));
        trace.then(stage_p99s)
    };
    let stage_p99_ms = fixed_pair(&mut lows, &mut highs, trace);

    let mut probes = Probes {
        client,
        rung_s,
        ladder: Vec::new(),
        rungs: Vec::new(),
    };
    // Climb until a rung at or above the high rate fails. Host noise can
    // fail a rung the system sustains but never pass one it cannot, so
    // capacity is the highest rung that passed, and a failure below it
    // does not end the climb.
    let mut pass_rate = low / 4.0; // untested floor, used only if no rung passes
    let mut fail = None;
    for k in 0..MAX_CLIMB {
        let rate = low * STEP.powi(k as i32);
        let ok = match k {
            0 => lows[0].passes() || probes.pass(rate),
            2 => highs[0].passes() || probes.pass(rate),
            _ => probes.pass(rate),
        };
        if ok {
            (pass_rate, fail) = (rate, None);
        } else if fail.is_none() {
            fail = Some(rate);
        }
        if !ok && k >= 2 {
            break;
        }
    }
    // Bisect between the highest passing and the lowest failing rate above
    // it, with the remaining fixed-rate pairs spread between the probes.
    for i in 0..BISECTIONS.max(FIXED_REPS - 1) {
        if i < FIXED_REPS - 1 {
            fixed_pair(&mut lows, &mut highs, false);
        }
        if let (true, Some(fail_rate)) = (i < BISECTIONS, fail) {
            let rate = (pass_rate * fail_rate).sqrt();
            if probes.pass(rate) {
                pass_rate = rate;
            } else {
                fail = Some(rate);
            }
        }
    }

    // The worker stalls right after its first batch (the first request,
    // maybe the second). Each later request waits at least the stall minus
    // its arrival offset, so the 1% slowest, which p99 reads, wait at
    // least the stall minus the arrival time of request 1% + 2. That floor
    // holds whatever the scoring speed; the rung must also fail.
    let stall = client.rung(high, STALL_SAMPLES, Some(STALL_MS));
    let one_percent = &stall.sched_ns[..=STALL_SAMPLES / 100 + 2];
    let stall_floor_ms =
        STALL_MS as f64 - (one_percent[one_percent.len() - 1] - one_percent[0]) as f64 / 1e6;
    let (stall_p99_ms, stall_passed) = (stall.p99_ms(), stall.passes());
    let stall_check = stall_p99_ms >= stall_floor_ms && !stall_passed;
    let Probes {
        ladder,
        rungs: mut probed,
        ..
    } = probes;
    probed.push(stall);

    let rungs = || lows.iter().chain(&highs).chain(&probed);
    let prefix = rungs().map(|r| r.levels.len()).min().unwrap_or(0);
    let first = &lows[0].levels[..prefix];
    let deterministic = rungs().all(|r| r.levels[..prefix] == *first);
    let attempted = rungs().map(|r| r.sent).sum::<u64>() + 2;
    let failed = rungs().map(|r| r.failed).sum::<u64>()
        + u64::from(!stall_check)
        + u64::from(!deterministic);
    ServeOutcome {
        capacity: pass_rate,
        ladder,
        stall_p99_ms,
        stall_floor_ms,
        stall_passed,
        stall_check,
        deterministic,
        levels_digest: (fnv1a(first), prefix),
        blocked_submits: rungs().map(|r| r.report.blocked_submits).sum(),
        attempted,
        failed,
        stage_p99_ms,
        low: lows,
        high: highs,
    }
}

/// p99 of each `serve.stage.*` family, merged over backends and levels.
fn stage_p99s() -> [f64; Stage::COUNT] {
    let tagged = rsd_obs::hist::merged_tagged();
    Stage::ALL.map(|stage| {
        let mut merged = HdrHist::new();
        for (key, hist) in &tagged {
            if key.label == stage.family() {
                merged.merge(hist);
            }
        }
        merged.quantile(0.99).map_or(0.0, |ns| ns as f64 / 1e6)
    })
}
