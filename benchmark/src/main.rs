//! The repository benchmark. One workload per invocation:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-gbdt --seed 2026 --seconds 10 --trace 0
//! ```
//!
//! It prints each metric by name with its unit and sample count, then,
//! as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` arms the library's telemetry and
//! reports the per-layer metrics instead. The exit code is 1 when a
//! correctness check or the stall self-check failed. See README.md.

mod layers;
mod serve;
mod setup;
mod stats;
mod train;

use std::process::ExitCode;

use rsd_bench::Scale;
use rsd_dataset::splits::extract_window;
use rsd_dataset::{BuildConfig, UserWindow};

use crate::serve::{Client, Rung, ServeOutcome, LIMIT_MS};
use crate::stats::{median, quantile_ms};

#[derive(Clone, Copy)]
enum Workload {
    /// Paper-scale stream through the GBDT backend.
    ServeGbdt,
    /// BiLSTM and DeBERTa trained at mid scale, DeBERTa served on int8.
    TrainServeNeural,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [Workload::ServeGbdt, Workload::TrainServeNeural]
            .into_iter()
            .find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeGbdt => "serve-gbdt",
            Workload::TrainServeNeural => "train-serve-neural",
        }
    }

    fn build_config(self, seed: u64) -> BuildConfig {
        match self {
            Workload::ServeGbdt => Scale::Paper.build_config(seed),
            Workload::TrainServeNeural => Scale::Mid.build_config(seed),
        }
    }

    /// The low fixed rate (posts/s), about a third of what the backend
    /// scores unpaced on 2 cores; the high rate is twice it.
    fn low_rate(self) -> f64 {
        match self {
            Workload::ServeGbdt => 4_000.0,
            Workload::TrainServeNeural => 600.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: rsd-benchmark --workload <serve-gbdt|train-serve-neural> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 2026, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Rungs a serving phase typically runs; each lasts `seconds / RUNGS`.
const RUNGS: f64 = 10.0;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's commit, when it is a git work tree.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let rev = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|r| r.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
    };
    rev.map_or("unknown".to_string(), |r| r.chars().take(12).collect())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    if trace {
        // Spans (build stages, trainer) need the registry; stage
        // histograms need the ring armed.
        rsd_obs::init(rsd_obs::Mode::Silent);
        rsd_obs::ring::set_armed(true);
    }
    println!(
        "# workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        u8::from(trace)
    );
    println!(
        "# host cores {} RSD_THREADS {:?} (pool {}) git {} fma {} vnni512 {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("RSD_THREADS").unwrap_or_default(),
        rsd_par::num_threads(),
        git_rev(),
        rsd_nn::matrix::fma_available(),
        rsd_nn::matrix::vnni512_available(),
    );

    let setup = setup::run(&workload.build_config(seed), seed);
    let trained = match workload {
        Workload::ServeGbdt => train::gbdt(&setup, seed),
        Workload::TrainServeNeural => train::neural(&setup, seed),
    };

    // The serving check's oracle: batch scoring of every user's final window.
    let window = trained.model.window();
    let finals: Vec<UserWindow> = setup
        .dataset
        .users
        .iter()
        .map(|u| extract_window(&setup.dataset, u, window))
        .collect();
    let final_levels = trained.model.score_windows(&setup.dataset, &finals);
    let client = Client {
        model: std::sync::Arc::clone(&trained.model),
        stream: &setup.stream,
        final_levels: &final_levels,
        seed,
    };
    let low = workload.low_rate();
    let served = serve::run(&client, low, seconds / RUNGS, trace);

    let attempted = setup::REPS as u64 + trained.attempted + served.attempted;
    let failed = setup.invalid + trained.failed + served.failed;

    println!(
        "# posts {} users {} heldout windows {} (majority share {:.4}) limit p99 <= {LIMIT_MS} ms",
        setup.dataset.n_posts(),
        setup.dataset.n_users(),
        trained.heldout_windows,
        trained.majority
    );
    for rung in served.low.iter().chain(&served.high) {
        println!(
            "# fixed {:>9.1} posts/s  p50 {:>9.3} ms  p99 {:>9.3} ms",
            rung.rate,
            rung.p50_ms(),
            rung.p99_ms()
        );
    }
    for (rate, ok, p99) in &served.ladder {
        println!(
            "# rung {rate:>10.1} posts/s  p99 {p99:>9.3} ms  {}",
            if *ok { "pass" } else { "fail" }
        );
    }
    println!(
        "# stall self-check: {} ms stall at {:.0} posts/s -> p99 {:.3} ms (floor {:.3} ms), rung {} ({})",
        serve::STALL_MS,
        served.high[0].rate,
        served.stall_p99_ms,
        served.stall_floor_ms,
        if served.stall_passed { "passed" } else { "failed" },
        if served.stall_check { "ok" } else { "CHECK FAILED" }
    );
    println!(
        "# levels over the first {} posts: digest {:016x}, identical across rungs: {}",
        served.levels_digest.1, served.levels_digest.0, served.deterministic
    );
    // Capacity, the fixed-rate latencies and the error rate are printed
    // but not gated: CPU steal from other tenants of a small shared host
    // moves the serving figures by more than any usable bound between
    // runs, and the error rate is 0 on every correct run (the JSON carries
    // it as `failed`/`attempted`).
    let error_rate = metric(
        "error_rate",
        failed as f64 / attempted as f64,
        "failed/attempted",
        attempted as usize,
    );
    let (metrics, reported) = if trace {
        (
            per_layer(&setup, &trained, &client, &served),
            vec![error_rate],
        )
    } else {
        let gated = vec![
            metric("setup_s", median(&setup.setup_s), "s", setup.setup_s.len()),
            metric("train_s", trained.train_s, "s", trained.runs.len()),
            metric(
                "heldout_acc",
                trained.heldout_acc(),
                "fraction",
                trained.heldout_windows,
            ),
            metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ];
        let reported = vec![
            metric(
                "capacity_rps",
                served.capacity,
                "posts/s",
                served.ladder.len(),
            ),
            metric(
                "p50_ms.low",
                ServeOutcome::best_of(&served.low, Rung::p50_ms),
                "ms",
                ServeOutcome::samples(&served.low),
            ),
            metric(
                "p50_ms.high",
                ServeOutcome::best_of(&served.high, Rung::p50_ms),
                "ms",
                ServeOutcome::samples(&served.high),
            ),
            metric(
                "p99_ms.high",
                ServeOutcome::best_of(&served.high, Rung::p99_ms),
                "ms",
                ServeOutcome::samples(&served.high),
            ),
            error_rate,
        ];
        (gated, reported)
    };
    for m in metrics.iter().chain(&reported) {
        println!(
            "{:<30} {:>16.4} {:<16} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured is `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The traced run's per-layer metrics.
fn per_layer(
    setup: &setup::Setup,
    trained: &train::Trained,
    client: &Client<'_>,
    served: &serve::ServeOutcome,
) -> Vec<Metric> {
    let reps = setup.setup_s.len();
    let span_s = |label: &str| {
        rsd_obs::registry()
            .span_stat(label)
            .map_or(0.0, |s| s.total_ns as f64 / 1e9 / reps as f64)
    };
    let build_s = median(&setup.build_s);
    let fit_s: f64 = trained.runs.iter().map(|r| r.fit_s).sum();
    let eval_s: f64 = trained.runs.iter().map(|r| r.eval_s).sum();
    let examples: u64 = trained.runs.iter().map(|r| r.examples).sum();
    let min_acc = trained
        .runs
        .iter()
        .map(|r| r.acc)
        .fold(f64::INFINITY, f64::min);

    // Featurize and predict over at most ~2,000 requests of one pass.
    let pass = client.stream.pass();
    let costs = layers::measure(&client.model, pass, pass.len().div_ceil(2_000));

    // Request tracing's cost: unpaced passes with the ring disarmed and
    // armed, alternated.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        rsd_obs::ring::set_armed(false);
        off.push(client.unpaced_pass_s());
        rsd_obs::ring::set_armed(true);
        on.push(client.unpaced_pass_s());
    }

    // Serving layers are read from the first high-rate rung, the one the
    // stage histograms cover.
    let high = &served.high[0];
    let p50_low = ServeOutcome::best_of(&served.low, Rung::p50_ms);
    let stage = served.stage_p99_ms.unwrap_or([f64::NAN; 5]);
    let layer_ns = costs.window_apply_ns + costs.featurize_ns + costs.predict_ns;
    let n_high = high.lat_ns.len();

    for run in &trained.runs {
        println!(
            "# models.{}: fit {:.4} s, held-out eval {:.4} s, {:.1} train examples/s, held-out acc {:.4}",
            run.name,
            run.fit_s,
            run.eval_s,
            run.examples as f64 / run.fit_s,
            run.acc
        );
    }
    println!(
        "# models.export_s {:.4} s; serve.blocked_submits {} over all rungs",
        trained.export_s, served.blocked_submits
    );

    vec![
        metric("dataset.build_s", build_s, "s", reps),
        metric(
            "corpus.generate_s",
            span_s("pipeline.shard.corpus"),
            "s",
            reps,
        ),
        metric(
            "textproc.preprocess_s",
            span_s("pipeline.shard.preprocess"),
            "s",
            reps,
        ),
        metric(
            "annotation.campaign_s",
            span_s("annotation.campaign"),
            "s",
            reps,
        ),
        metric("pipeline.merge_s", span_s("pipeline.merge"), "s", reps),
        metric(
            "setup.unattributed_s",
            median(&setup.setup_s) - build_s,
            "s",
            reps,
        ),
        metric("model.fit_s", fit_s, "s", trained.runs.len()),
        metric(
            "model.train_examples_per_s",
            examples as f64 / fit_s,
            "1/s",
            examples as usize,
        ),
        metric(
            "model.heldout_acc.min",
            min_acc,
            "fraction",
            trained.heldout_windows,
        ),
        metric("eval.heldout_s", eval_s, "s", trained.heldout_windows),
        metric(
            "train.unattributed_s",
            trained.train_s - fit_s - eval_s,
            "s",
            1,
        ),
        metric(
            "dataset.window_apply_ns",
            costs.window_apply_ns,
            "ns",
            pass.len(),
        ),
        metric(
            "dataset.window_full_share",
            costs.full_window_share,
            "fraction",
            pass.len(),
        ),
        metric(
            "score.featurize_ns",
            costs.featurize_ns,
            "ns",
            costs.requests,
        ),
        metric("score.predict_ns", costs.predict_ns, "ns", costs.requests),
        metric(
            "serve.unattributed_us",
            p50_low * 1e3 - layer_ns / 1e3,
            "us",
            ServeOutcome::samples(&served.low),
        ),
        metric(
            "serve.service_ms.p50",
            quantile_ms(&high.service_ns, 0.5),
            "ms",
            n_high,
        ),
        metric(
            "serve.service_ms.p99",
            quantile_ms(&high.service_ns, 0.99),
            "ms",
            n_high,
        ),
        metric(
            "serve.emit_ms.p99",
            quantile_ms(&high.emit_ns, 0.99),
            "ms",
            n_high,
        ),
        metric(
            "serve.batch_mean",
            high.report.scored as f64 / high.report.batches.max(1) as f64,
            "count",
            high.report.batches as usize,
        ),
        metric("serve.stage.queue_ms.p99", stage[0], "ms", n_high),
        metric("serve.stage.batch_ms.p99", stage[1], "ms", n_high),
        metric("serve.stage.window_ms.p99", stage[2], "ms", n_high),
        metric("serve.stage.score_ms.p99", stage[3], "ms", n_high),
        metric("serve.stage.drain_ms.p99", stage[4], "ms", n_high),
        metric(
            "bench.gen_late_ms.p99",
            quantile_ms(&high.late_ns, 0.99),
            "ms",
            n_high,
        ),
        metric(
            "obs.trace_overhead",
            median(&on) / median(&off),
            "ratio",
            on.len(),
        ),
    ]
}
