//! `loadgen` — replay the synthetic corpus through the `rsd-serve`
//! online scorer at a fixed target QPS and publish latency/throughput.
//!
//! The whole dataset is streamed once in global `(created, id)` order
//! from an in-memory replay slice, paced against absolute deadlines
//! (`t0 + i/QPS`) so a slow stretch is caught up instead of silently
//! stretching the run. Knobs:
//!
//! * `RSD_QPS` — target submissions per second (default 200).
//! * `RSD_SERVE_MODEL` — scoring backend (`gbdt | plm-f32 | plm-int8`,
//!   default `gbdt`): the GBDT path fits the table-3 XGBoost artifact;
//!   the PLM paths train the table-3 DeBERTa baseline once and freeze it
//!   through the tape-free inference engine, f32 or int8.
//! * `RSD_LOADGEN_SOAK_MS` — sustained-soak mode: instead of one pass,
//!   replay the corpus (rewinding as needed) at the target QPS for this
//!   long. Requires `RSD_OBS_TICK_MS` and `RSD_SLO_P99_MS`: a soak's
//!   verdict is the burn monitor's.
//! * `RSD_SLO_P99_MS` / `RSD_SLO_BUDGET` — arm the continuous burn-rate
//!   monitor ([`rsd_obs::slo`]): the series driver evaluates the error
//!   budget each tick, and the run **fails** if any tick burned
//!   (`slo.burn`). With the default 1% budget and a run shorter than the
//!   5 s fast window, the final tick alone checks "p99 over target".
//! * `RSD_OBS_HTTP` — serve `/metrics`, `/health`, `/snapshot` live on
//!   `127.0.0.1:<port>` for the duration of the run.
//!
//! All invalid knob values hard-error naming the knob. With
//! `RSD_OBS_TICK_MS` set, per-request latency lands in the
//! `serve.request` HDR histogram and the time-series file; the run
//! report carries the deterministic serving outcome (request and
//! per-level counts, evictions) plus the achieved `scored_per_s`, so
//! `obs_diff` gates both correctness drift and lost throughput. The
//! report deliberately omits timing-dependent counts (micro-batch
//! sizes, blocked submits) — those go to stderr.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rsd_bench::{table3_configs, BinHarness, Prepared};
use rsd_corpus::RiskLevel;
use rsd_models::{PlmBaseline, ScoringModel, ServeModel};
use rsd_obs::{knob, Value};
use rsd_serve::{IncomingPost, RiskService, ServeConfig};

/// The corpus in global chronological submission order.
fn replay_stream(dataset: &rsd_dataset::Rsd15k) -> Vec<IncomingPost> {
    let mut order: Vec<usize> = (0..dataset.posts.len()).collect();
    order.sort_by_key(|&i| (dataset.posts[i].created, dataset.posts[i].id));
    order
        .into_iter()
        .map(|i| {
            let p = &dataset.posts[i];
            IncomingPost {
                user: p.user.0,
                post: p.id.0,
                created: p.created,
                text: p.text.clone(),
            }
        })
        .collect()
}

fn main() {
    let mut h = BinHarness::start("loadgen");
    let qps: u64 = knob::QPS.get();
    let soak_ms: Option<u64> = knob::LOADGEN_SOAK_MS.get();
    let tick_ms: Option<u64> = knob::OBS_TICK_MS.get();
    let slo = rsd_obs::slo::config_from_env();
    if soak_ms.is_some() {
        assert!(
            tick_ms.is_some(),
            "RSD_LOADGEN_SOAK_MS is judged by the SLO burn monitor, which runs \
             on series ticks; set RSD_OBS_TICK_MS"
        );
        assert!(
            slo.is_some(),
            "RSD_LOADGEN_SOAK_MS is judged by the SLO burn monitor; set RSD_SLO_P99_MS"
        );
    }
    let serve_cfg = ServeConfig::from_env();

    let prepared = Prepared::from_env();
    let model = {
        let _s = rsd_obs::Span::enter("loadgen.fit");
        let data = prepared.bench_data();
        let cfgs = table3_configs(prepared.scale);
        Arc::new(match serve_cfg.model {
            ServeModel::Gbdt => ScoringModel::fit(&cfgs.xgboost, &data).expect("fit scoring model"),
            m => {
                let fitted = PlmBaseline::new(cfgs.deberta)
                    .fit(&data)
                    .expect("fit plm baseline");
                ScoringModel::from_plm(&fitted, data.splits.config.window, m.quantized())
            }
        })
    };
    // The serving phase owns the latency story: drop the fit-phase
    // histograms (training rounds, feature batches) so the report and
    // series quantiles describe requests only.
    rsd_obs::hist::reset();

    let posts = replay_stream(&prepared.dataset);
    let length = match soak_ms {
        None => format!("{} posts", posts.len()),
        Some(ms) => format!("soaking {ms}ms"),
    };
    eprintln!(
        "loadgen: {length} at {} QPS via {} (shards {}, lru {}, batch {})",
        qps,
        serve_cfg.model.name(),
        serve_cfg.shards,
        serve_cfg.lru_capacity,
        serve_cfg.batch_max
    );

    let service = RiskService::start(Arc::clone(&model), serve_cfg.clone());
    let results = service.results();
    let consumer = thread::spawn(move || {
        let mut levels = [0u64; RiskLevel::COUNT];
        while let Some(scored) = results.recv() {
            levels[scored.level.index()] += 1;
        }
        levels
    });

    let t0 = Instant::now();
    let mut sent = 0u64;
    let pace_and_submit = |post, sent: &mut u64| {
        let deadline = t0 + Duration::from_secs_f64(*sent as f64 / qps as f64);
        let wait = deadline.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            thread::sleep(wait);
        }
        service.submit(post).expect("service draining early");
        *sent += 1;
    };
    match soak_ms {
        None => {
            for post in &posts {
                pace_and_submit(post.clone(), &mut sent);
            }
        }
        Some(ms) => {
            // Sustained soak: replay from the start until the clock runs out.
            let end = t0 + Duration::from_millis(ms);
            'soak: loop {
                for post in &posts {
                    if Instant::now() >= end {
                        break 'soak;
                    }
                    pace_and_submit(post.clone(), &mut sent);
                }
            }
        }
    }
    let report = service.drain();
    let elapsed = t0.elapsed();
    let levels = consumer.join().expect("result consumer panicked");
    assert_eq!(report.scored, sent, "every submitted post must score");
    assert_eq!(levels.iter().sum::<u64>(), sent, "every score must emit");

    let achieved = report.scored as f64 / elapsed.as_secs_f64();
    println!(
        "loadgen: scored {} posts in {:.2}s — {:.1}/s achieved vs {} QPS target",
        report.scored,
        elapsed.as_secs_f64(),
        achieved,
        qps
    );
    let hists = rsd_obs::hist::merged();
    if let Some(hist) = hists.get("serve.request") {
        let ms = |q: f64| hist.quantile(q).unwrap_or(0) as f64 / 1e6;
        println!(
            "loadgen: request latency p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms",
            ms(0.50),
            ms(0.90),
            ms(0.99)
        );
    }
    for (level, count) in RiskLevel::ALL.iter().zip(levels) {
        println!("  {:<10} {:>8}", level.name(), count);
    }
    eprintln!(
        "loadgen: {} micro-batches (max {}), {} blocked submits, \
         {} evicted / peak {} resident users",
        report.batches,
        report.max_batch,
        report.blocked_submits,
        report.evicted_users,
        report.peak_resident_users
    );
    if !report.exemplars.is_empty() {
        eprintln!("loadgen: slowest requests (per-stage breakdown, ms):");
        eprintln!(
            "  {:>8} {:<8} {:<10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}  slowest",
            "trace", "backend", "level", "total", "queue", "batch", "window", "score", "drain"
        );
        for ex in &report.exemplars {
            let stages = ex.stages;
            let ms = |ns: u64| ns as f64 / 1e6;
            eprintln!(
                "  {:>8} {:<8} {:<10} {:>9.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}  {}",
                ex.trace_id,
                ex.backend,
                ex.level,
                ms(ex.total_ns),
                ms(stages[0]),
                ms(stages[1]),
                ms(stages[2]),
                ms(stages[3]),
                ms(stages[4]),
                ex.slowest_stage().0.name()
            );
        }
    }

    let mut level_map = rsd_obs::Map::new();
    for (level, count) in RiskLevel::ALL.iter().zip(levels) {
        level_map.insert(level.name(), Value::Int(count as i128));
    }
    h.run
        .set("qps", Value::Int(qps as i128))
        .set("model", Value::String(serve_cfg.model.name().to_string()))
        .set("posts", Value::Int(sent as i128))
        .set("users", Value::Int(prepared.dataset.n_users() as i128))
        .set("levels", Value::Object(level_map))
        .set("evicted_users", Value::Int(report.evicted_users as i128))
        .set(
            "peak_resident_users",
            Value::Int(report.peak_resident_users as i128),
        )
        .set("scored_per_s", Value::Float(achieved));
    if !report.exemplars.is_empty() {
        h.run
            .set("exemplars", rsd_obs::exemplar::to_values(&report.exemplars));
    }

    // Let the series driver observe a quiescent window before the final
    // snapshot: windowed stage rates must read exactly 0.0 there, or the
    // committed-baseline series diff would compare mid-flight rates.
    if let Some(tick_ms) = tick_ms {
        thread::sleep(Duration::from_millis(2 * tick_ms + 50));
    }
    // Final series tick before the burn verdict: the monitor runs on the
    // driver thread, so the latch is only settled once it stops.
    h.finish_telemetry();
    if let Some(slo) = slo {
        let burns = rsd_obs::slo::burn_events();
        let mut slo_map = rsd_obs::Map::new();
        slo_map.insert("target_p99_ms", Value::Float(slo.target_p99_ms));
        slo_map.insert("budget", Value::Float(slo.budget));
        slo_map.insert("burn_events", Value::Int(burns as i128));
        h.run.set("slo", Value::Object(slo_map));
        assert_eq!(
            burns, 0,
            "SLO error budget burned: {burns} slo.burn event(s) against \
             p99 target {:.1}ms, budget {} (RSD_SLO_P99_MS / RSD_SLO_BUDGET)",
            slo.target_p99_ms, slo.budget
        );
        println!(
            "loadgen: SLO clean — 0 slo.burn events against p99 {:.1}ms, budget {}",
            slo.target_p99_ms, slo.budget
        );
    }
    h.finish();
}
