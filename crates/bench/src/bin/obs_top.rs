//! `obs_top` — a `top(1)`-style viewer and CI checker for the
//! continuous-telemetry series files the time-series driver writes
//! (`bench_runs/<scale>/<bin>.series.ndjson`), and the renderer of a
//! run's artifacts into viewer formats.
//!
//! ```text
//! obs_top <series.ndjson>                  # summarize the latest snapshot
//! obs_top --follow <series.ndjson>         # re-render as the file grows
//! obs_top --check [--trace <trace.json>] <series.ndjson>
//! obs_top --render <artifact>              # folded profile or Chrome trace
//! ```
//!
//! `--render` picks the format from its input and prints it on stdout:
//! a run report (`<bin>.report.json`) renders its `metrics.tree` as a
//! flamegraph-compatible folded profile; an `RSD_OBS` NDJSON event
//! stream renders as a `chrome://tracing` / Perfetto trace. Exit code 4
//! marks an artifact that renders as neither.
//!
//! `--check` is the machine mode CI uses after a telemetry smoke run:
//! it validates that every line parses as a known snapshot/stall/burn
//! record, that the run's health verdict is not degraded (no latched SLO
//! burn, no stalled stage), and (with `--trace`) that the Chrome trace
//! parses as JSON with a non-empty `traceEvents` array. Exit codes:
//! 0 ok, 2 usage/IO, 3 malformed series, 5 malformed trace, 6 degraded
//! health / burned SLO budget.
//!
//! The viewer renders every histogram family in the snapshot — the
//! per-backend × per-level tagged shards (`serve.request|gbdt|Ideation`)
//! included — plus the run's slowest-request exemplars with their
//! per-stage breakdowns and the SLO burn state when armed.

use std::process::ExitCode;

use rsd_obs::Value;

const USAGE: &str = "usage: obs_top [--follow | --check [--trace <trace.json>]] <series.ndjson>\n       obs_top --render <report.json | events.ndjson>";

struct Args {
    series: String,
    follow: bool,
    check: bool,
    render: bool,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut follow = false;
    let mut check = false;
    let mut render = false;
    let mut trace = None;
    let mut series = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--follow" => follow = true,
            "--check" => check = true,
            "--render" => render = true,
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"));
            }
            other => {
                if series.replace(other.to_string()).is_some() {
                    return Err(format!("more than one input path\n{USAGE}"));
                }
            }
        }
    }
    Ok(Args {
        series: series.ok_or_else(|| format!("missing input path\n{USAGE}"))?,
        follow,
        check,
        render,
        trace,
    })
}

/// `--render`: a run report (a JSON object with `metrics`) renders as a
/// folded profile, anything else as an NDJSON event stream.
fn render_artifact(text: &str) -> Result<String, String> {
    match serde_json::from_str::<Value>(text) {
        Ok(doc) if doc.get("metrics").is_some() => rsd_obs::render_folded(&doc),
        _ => rsd_obs::trace_export::render_trace(text),
    }
}

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Render the latest snapshot of a summarized series as a terminal block.
fn render(summary: &Value) -> String {
    let s = &summary["series"];
    let mut out = String::new();
    out.push_str(&format!(
        "ticks {}  stalls {}\n",
        s["ticks"], s["stall_events"],
    ));
    if let Some(status) = s["health"]["status"].as_str() {
        out.push_str(&format!("health {status}"));
        if let Some(slo) = s.get("slo").and_then(Value::as_object) {
            out.push_str(&format!(
                "  slo p99<{}ms budget {} burns {}",
                slo.get("target_p99_ms")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
                slo.get("budget").and_then(Value::as_f64).unwrap_or(0.0),
                slo.get("burn_events").and_then(Value::as_u64).unwrap_or(0),
            ));
        }
        out.push('\n');
    }
    if let Some(alloc) = s.get("alloc").and_then(Value::as_object) {
        let live = alloc
            .get("live_bytes")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let peak = alloc
            .get("peak_live_bytes")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "alloc live {:.1} MiB  peak {:.1} MiB\n",
            live / (1024.0 * 1024.0),
            peak / (1024.0 * 1024.0)
        ));
    }
    if let Some(stages) = s.get("stages").and_then(Value::as_object) {
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>12}\n",
            "STAGE", "ITEMS", "ITEMS/S", "BYTES/S"
        ));
        for (label, stage) in stages.iter() {
            out.push_str(&format!(
                "{:<24} {:>12} {:>12} {:>12}\n",
                label,
                stage["items"],
                fmt_rate(stage["items_per_s"].as_f64().unwrap_or(0.0)),
                fmt_rate(stage["bytes_per_s"].as_f64().unwrap_or(0.0)),
            ));
        }
    }
    if let Some(latency) = s.get("latency").and_then(Value::as_object) {
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>10} {:>10}\n",
            "LATENCY", "COUNT", "P50 MS", "P99 MS", "MAX MS"
        ));
        for (label, h) in latency.iter() {
            out.push_str(&format!(
                "{:<24} {:>10} {:>10.3} {:>10.3} {:>10.3}\n",
                label,
                h["count"],
                h["p50_ms"].as_f64().unwrap_or(0.0),
                h["p99_ms"].as_f64().unwrap_or(0.0),
                h["max_ms"].as_f64().unwrap_or(0.0),
            ));
        }
    }
    if let Some(exemplars) = s.get("exemplars").and_then(Value::as_array) {
        out.push_str(&format!(
            "{:<8} {:<8} {:<10} {:>9} {:<12}\n",
            "TRACE", "BACKEND", "LEVEL", "TOTAL MS", "SLOWEST"
        ));
        for ex in exemplars {
            out.push_str(&format!(
                "{:<8} {:<8} {:<10} {:>9.3} {:<12}\n",
                ex["trace"],
                ex["backend"].as_str().unwrap_or("?"),
                ex["level"].as_str().unwrap_or("?"),
                ex["total_ms"].as_f64().unwrap_or(0.0),
                ex["slowest_stage"].as_str().unwrap_or("?"),
            ));
        }
    }
    out
}

/// `--check`: series must be well-formed and healthy; the trace (if
/// given) must parse with a non-empty `traceEvents`.
fn check(args: &Args, text: &str) -> ExitCode {
    let summary = match rsd_obs::timeseries::summarize_series(text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs_top: malformed series {}: {e}", args.series);
            return ExitCode::from(3);
        }
    };
    // Health gate: a latched SLO burn or a still-stalled stage in the
    // final snapshot is a failed run even with clean quantiles. Series
    // written before the health/slo keys existed simply lack them and
    // pass, keeping old baselines checkable.
    let health = summary["series"]["health"]["status"].as_str();
    let burns = summary["series"]["slo"]["burn_events"]
        .as_u64()
        .unwrap_or(0);
    if health == Some("degraded") || burns > 0 {
        eprintln!(
            "obs_top: degraded run in {}: health {}, {} slo.burn event(s)",
            args.series,
            health.unwrap_or("unknown"),
            burns
        );
        return ExitCode::from(6);
    }
    if let Some(trace_path) = &args.trace {
        let trace_text = match std::fs::read_to_string(trace_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs_top: cannot read trace {trace_path}: {e}");
                return ExitCode::from(5);
            }
        };
        let doc: Value = match serde_json::from_str(&trace_text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("obs_top: trace {trace_path} is not valid JSON: {e}");
                return ExitCode::from(5);
            }
        };
        match doc["traceEvents"].as_array() {
            Some(events) if !events.is_empty() => {}
            _ => {
                eprintln!("obs_top: trace {trace_path} has no traceEvents");
                return ExitCode::from(5);
            }
        }
    }
    println!(
        "ok: {} ticks{}",
        summary["series"]["ticks"],
        if args.trace.is_some() {
            ", trace well-formed"
        } else {
            ""
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.follow {
        let mut last_len = 0usize;
        loop {
            if let Ok(text) = std::fs::read_to_string(&args.series) {
                if text.len() != last_len {
                    last_len = text.len();
                    if let Ok(summary) = rsd_obs::timeseries::summarize_series(&text) {
                        // Clear-screen escape then the fresh block.
                        print!("\x1b[2J\x1b[H{}", render(&summary));
                        use std::io::Write;
                        let _ = std::io::stdout().flush();
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    }

    let text = match std::fs::read_to_string(&args.series) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_top: cannot read {}: {e}", args.series);
            return ExitCode::from(2);
        }
    };

    if args.check {
        return check(&args, &text);
    }
    if args.render {
        return match render_artifact(&text) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs_top: cannot render {}: {e}", args.series);
                ExitCode::from(4)
            }
        };
    }

    match rsd_obs::timeseries::summarize_series(&text) {
        Ok(summary) => {
            print!("{}", render(&summary));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_top: malformed series {}: {e}", args.series);
            ExitCode::from(3)
        }
    }
}
