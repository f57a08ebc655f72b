//! Periodic time-series snapshots of the continuous-telemetry layer.
//!
//! [`start`] spins up a driver thread that, every `RSD_OBS_TICK_MS`
//! milliseconds, reads the registry's cumulative per-stage totals, turns
//! their change since the last tick into rates, and appends one NDJSON
//! line to `bench_runs/<scale>/<bin>.series.ndjson`:
//!
//! ```json
//! {"kind":"tick","tick":3,"t_ms":151.2,"window_ms":50.4,
//!  "stages":{"pipeline.shards":{"items":12,"bytes":48211,
//!            "items_per_s":238.1,"bytes_per_s":956430.0}},
//!  "latency":{"pipeline.shard":{"count":12,"p50_ms":3.1,"p90_ms":4.0,
//!             "p99_ms":4.4,"p999_ms":4.4,"max_ms":4.4}},
//!  "alloc":{"live_bytes":104857,"peak_live_bytes":209715}}
//! ```
//!
//! A **stall watchdog** rides the same tick: stages announced via
//! [`crate::stage_register`] that report no progress for
//! 10 consecutive ticks emit a
//! `{"kind":"stall",...}` line (and an `obs.stall` NDJSON event) until
//! they move again or call [`crate::stage_finish`]. A stage's idle count
//! restarts whenever a tick finds it unregistered, so a stage registered
//! again after finishing starts from zero.
//!
//! Three request-scoped extensions ride the tick as well:
//!
//! * **exemplars** — the window's K slowest request breakdowns
//!   (`crate::exemplar::take_window`) land in the tick line, so the
//!   series names the offending stage, not just the quantile;
//! * **SLO burn** — when `RSD_SLO_P99_MS` arms [`crate::slo`], each
//!   tick feeds the `serve.request` histogram's over-target counts into
//!   the multi-window `crate::slo::BurnMonitor`; burning ticks emit a
//!   `{"kind":"slo_burn",...}` line plus an `slo.burn` event and latch
//!   the process degraded;
//! * **live publication** — every tick line is pushed to
//!   `crate::http::publish_tick` (with the current stall set), so the
//!   `RSD_OBS_HTTP` endpoint's `/snapshot` and `/health` track the run
//!   without touching driver state.
//!
//! The series holds windowed aggregates only; the per-event record of
//! the same run is the `RSD_OBS` NDJSON stream, which `obs_top --render`
//! turns into a Chrome trace afterwards (see [`crate::trace_export`]).
//! The guard's drop finishes the driver, so a bench binary just holds it
//! for the duration of the run.

use crate::ring;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default stall threshold in ticks.
const DEFAULT_STALL_TICKS: u32 = 10;

/// Explicit driver options (tests construct these directly; binaries go
/// through the env-reading [`start`]).
#[derive(Debug, Clone)]
pub(crate) struct SeriesOptions {
    /// Snapshot period.
    pub tick: Duration,
    /// Where the NDJSON series goes (`None`: no series file).
    pub series_path: Option<PathBuf>,
    /// Consecutive no-progress ticks before a registered stage counts
    /// as stalled.
    pub stall_ticks: u32,
}

/// Read `RSD_OBS_TICK_MS` and start the driver for one bench binary.
/// Returns `None` when no tick is requested — the continuous layer then
/// stays disarmed and hot paths pay a single atomic load.
pub fn start(bin: &str, scale: &str) -> Option<SeriesGuard> {
    let tick_ms: u64 = crate::knob::OBS_TICK_MS.get::<Option<u64>>()?;
    let dir = PathBuf::from("bench_runs").join(scale);
    Some(start_with(SeriesOptions {
        tick: Duration::from_millis(tick_ms),
        series_path: Some(dir.join(format!("{bin}.series.ndjson"))),
        stall_ticks: DEFAULT_STALL_TICKS,
    }))
}

/// Start the driver with explicit options. Forces the registry on (a
/// tick request must produce data even without `RSD_OBS`) and arms the
/// continuous layer.
fn start_with(opts: SeriesOptions) -> SeriesGuard {
    crate::ensure_registry();
    ring::set_armed(true);
    let stop = Arc::new(StopFlag::default());
    let driver_stop = Arc::clone(&stop);
    let driver_opts = opts.clone();
    let handle = std::thread::Builder::new()
        .name("rsd-obs-series".to_string())
        .spawn(move || drive(&driver_opts, &driver_stop))
        .expect("spawn rsd-obs series driver");
    SeriesGuard {
        stop,
        handle: Some(handle),
        series_path: opts.series_path,
    }
}

#[derive(Default)]
struct StopFlag {
    mutex: Mutex<bool>,
    cv: Condvar,
}

impl StopFlag {
    fn signal(&self) {
        *self.mutex.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Wait one tick; returns true when stop was signalled.
    fn wait(&self, tick: Duration) -> bool {
        let guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
        if *guard {
            return true;
        }
        let (guard, _timeout) = self
            .cv
            .wait_timeout(guard, tick)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

/// Owns the driver thread. Dropping (or calling
/// [`SeriesGuard::finish`]) stops the driver, writes a final snapshot
/// line, and disarms the continuous layer.
pub struct SeriesGuard {
    stop: Arc<StopFlag>,
    handle: Option<std::thread::JoinHandle<()>>,
    series_path: Option<PathBuf>,
}

impl SeriesGuard {
    /// Stop the driver and return the series file it wrote, if any.
    pub fn finish(mut self) -> Option<PathBuf> {
        self.shutdown();
        self.series_path.take().filter(|p| p.is_file())
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.signal();
        let _ = handle.join();
        ring::set_armed(false);
    }
}

impl Drop for SeriesGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the driver remembers per stage between ticks.
#[derive(Debug, Default)]
struct StageState {
    prev_items: u64,
    prev_bytes: u64,
    idle_ticks: u32,
    stalled: bool,
}

struct Driver<'a> {
    opts: &'a SeriesOptions,
    writer: Option<std::io::BufWriter<std::fs::File>>,
    stages: BTreeMap<&'static str, StageState>,
    tick_idx: u64,
    started: Instant,
    last_tick: Instant,
    /// Histogram generation the cached latency snapshot was taken at;
    /// ticks where nothing new was recorded reuse the cache instead of
    /// re-merging every stripe.
    hist_gen: Option<u64>,
    hist_cache: Value,
    /// SLO burn-rate monitor, armed by `RSD_SLO_P99_MS`.
    slo: Option<crate::slo::BurnMonitor>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<'a> Driver<'a> {
    fn new(opts: &'a SeriesOptions) -> Driver<'a> {
        let writer = opts.series_path.as_ref().and_then(|path| {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::File::create(path)
                .map(std::io::BufWriter::new)
                .ok()
        });
        let now = Instant::now();
        Driver {
            opts,
            writer,
            stages: BTreeMap::new(),
            tick_idx: 0,
            started: now,
            last_tick: now,
            hist_gen: None,
            hist_cache: Value::Null,
            slo: crate::slo::config_from_env().map(crate::slo::BurnMonitor::new),
        }
    }

    fn write_line(&mut self, value: &Value) {
        if let Some(w) = &mut self.writer {
            let _ = writeln!(w, "{}", value.to_json());
        }
    }

    /// Read the registry's stage totals, emit one snapshot line, and run
    /// the watchdog.
    fn tick(&mut self, kind: &str) {
        let now = Instant::now();
        let window = now.duration_since(self.last_tick);
        self.last_tick = now;

        let window_s = window.as_secs_f64().max(1e-9);
        let mut stages = Map::new();
        let mut stalls: Vec<(&'static str, u32)> = Vec::new();
        let mut stalled_now: Vec<String> = Vec::new();
        for (label, (items, bytes, watched)) in crate::registry().stage_states() {
            let s = self.stages.entry(label).or_default();
            // Saturating: `capture()` resets the registry under a
            // running driver.
            let d_items = items.saturating_sub(s.prev_items);
            let d_bytes = bytes.saturating_sub(s.prev_bytes);
            s.prev_items = items;
            s.prev_bytes = bytes;
            if !watched || d_items > 0 || d_bytes > 0 {
                s.idle_ticks = 0;
                s.stalled = false;
            } else {
                s.idle_ticks += 1;
                if s.idle_ticks >= self.opts.stall_ticks && !s.stalled {
                    s.stalled = true;
                    stalls.push((label, s.idle_ticks));
                }
            }
            if s.stalled {
                stalled_now.push(label.to_string());
            }
            let mut m = Map::new();
            m.insert("items", Value::Int(i128::from(items)));
            m.insert("bytes", Value::Int(i128::from(bytes)));
            m.insert("items_per_s", Value::Float(d_items as f64 / window_s));
            m.insert("bytes_per_s", Value::Float(d_bytes as f64 / window_s));
            stages.insert(label, Value::Object(m));
        }

        let mut line = Map::new();
        line.insert("kind", Value::String(kind.to_string()));
        line.insert("tick", Value::Int(self.tick_idx as i128));
        line.insert("t_ms", Value::Float(ms(self.started.elapsed())));
        line.insert("window_ms", Value::Float(ms(window)));
        if !stages.is_empty() {
            line.insert("stages", Value::Object(stages));
        }
        let gen = crate::hist::generation();
        if self.hist_gen != Some(gen) {
            self.hist_cache = crate::hist::snapshot_value();
            self.hist_gen = Some(gen);
        }
        if self.hist_cache != Value::Null {
            line.insert("latency", self.hist_cache.clone());
        }
        // This window's slowest request breakdowns, slowest first.
        let exemplars = crate::exemplar::take_window();
        if !exemplars.is_empty() {
            line.insert("exemplars", crate::exemplar::to_values(&exemplars));
        }
        // SLO burn evaluation over the request histogram's cumulative
        // (total, over-target) counts at this tick.
        let mut burning: Option<crate::slo::BurnSample> = None;
        if let Some(monitor) = &mut self.slo {
            let cfg = monitor.config();
            let (total, bad) =
                crate::hist::count_over(crate::reqctx::REQUEST_FAMILY, cfg.target_ns());
            let t_ms_now = self.started.elapsed().as_millis() as u64;
            let sample = monitor.observe(t_ms_now, total, bad);
            if sample.burning {
                crate::slo::record_burn();
                burning = Some(sample);
            }
            let mut m = Map::new();
            m.insert("target_p99_ms", Value::Float(cfg.target_p99_ms));
            m.insert("budget", Value::Float(cfg.budget));
            m.insert("fast_burn", Value::Float(sample.fast_burn));
            m.insert("slow_burn", Value::Float(sample.slow_burn));
            m.insert("burn_events", Value::Int(crate::slo::burn_events() as i128));
            m.insert("degraded", Value::Bool(crate::slo::degraded()));
            line.insert("slo", Value::Object(m));
        }
        // Health verdict, the same one the /health endpoint serves.
        let degraded = crate::http::degraded(&stalled_now);
        let mut health = Map::new();
        health.insert(
            "status",
            Value::String(if degraded { "degraded" } else { "ok" }.to_string()),
        );
        line.insert("health", Value::Object(health));
        if crate::alloc::active() {
            let mut a = Map::new();
            a.insert(
                "live_bytes",
                Value::Int(i128::from(crate::alloc::live_bytes())),
            );
            a.insert(
                "peak_live_bytes",
                Value::Int(i128::from(crate::alloc::peak_live_bytes())),
            );
            line.insert("alloc", Value::Object(a));
        }
        let line = Value::Object(line);
        self.write_line(&line);
        // Mirror the tick to the live endpoint (cheap: one string and
        // two mutex stores; the endpoint serves them without touching
        // driver state).
        crate::http::publish_tick(line.to_json());
        crate::http::set_stalled(stalled_now);

        if let Some(sample) = burning {
            let cfg = self.slo.as_ref().expect("burning implies monitor").config();
            let mut m = Map::new();
            m.insert("kind", Value::String("slo_burn".to_string()));
            m.insert("t_ms", Value::Float(ms(self.started.elapsed())));
            m.insert("target_p99_ms", Value::Float(cfg.target_p99_ms));
            m.insert("budget", Value::Float(cfg.budget));
            m.insert("fast_burn", Value::Float(sample.fast_burn));
            m.insert("slow_burn", Value::Float(sample.slow_burn));
            self.write_line(&Value::Object(m));
            crate::event(
                "slo.burn",
                &[
                    ("fast_burn", Value::Float(sample.fast_burn)),
                    ("slow_burn", Value::Float(sample.slow_burn)),
                    ("target_p99_ms", Value::Float(cfg.target_p99_ms)),
                ],
            );
        }

        for (label, idle) in stalls {
            let mut m = Map::new();
            m.insert("kind", Value::String("stall".to_string()));
            m.insert("stage", Value::String(label.to_string()));
            m.insert("idle_ticks", Value::Int(i128::from(idle)));
            m.insert("t_ms", Value::Float(ms(self.started.elapsed())));
            self.write_line(&Value::Object(m));
            crate::event(
                "obs.stall",
                &[
                    ("stage", Value::String(label.to_string())),
                    ("idle_ticks", Value::Int(i128::from(idle))),
                ],
            );
        }

        if let Some(w) = &mut self.writer {
            let _ = w.flush();
        }
        self.tick_idx += 1;
    }
}

fn drive(opts: &SeriesOptions, stop: &StopFlag) {
    let mut driver = Driver::new(opts);
    while !stop.wait(opts.tick) {
        driver.tick("tick");
    }
    driver.tick("final");
}

/// Run-wide exemplar list kept by [`summarize_series`].
const SUMMARY_EXEMPLARS: usize = 8;

/// Summarize a `.series.ndjson` stream into a report-shaped JSON object
/// (`obs_diff` accepts series files via this): the last `tick`/`final`
/// snapshot's stages, latency quantiles, allocation gauges, and health,
/// plus tick/stall/burn totals, the stable subset of the SLO state
/// (targets and the burn count — instantaneous burn rates are
/// timing-dependent and stay in the raw lines), and the run's slowest
/// exemplars across all ticks. Malformed lines are a hard error.
pub fn summarize_series(text: &str) -> Result<Value, String> {
    let mut last: Option<Value> = None;
    let mut ticks = 0u64;
    let mut stalls = 0u64;
    let mut burns = 0u64;
    let mut exemplars: Vec<Value> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("series line {}: invalid JSON: {e}", idx + 1))?;
        match v.get("kind").and_then(Value::as_str) {
            Some("tick") | Some("final") => {
                ticks += 1;
                if let Some(exs) = v.get("exemplars").and_then(Value::as_array) {
                    exemplars.extend(exs.iter().cloned());
                }
                last = Some(v);
            }
            Some("stall") => stalls += 1,
            Some("slo_burn") => burns += 1,
            Some(other) => return Err(format!("series line {}: unknown kind {other:?}", idx + 1)),
            None => return Err(format!("series line {}: missing kind", idx + 1)),
        }
    }
    let last = last.ok_or_else(|| "series contains no snapshot lines".to_string())?;
    let mut series = Map::new();
    series.insert("ticks", Value::Int(i128::from(ticks)));
    series.insert("stall_events", Value::Int(i128::from(stalls)));
    if burns > 0 {
        series.insert("burn_lines", Value::Int(i128::from(burns)));
    }
    for key in ["stages", "latency", "alloc", "health"] {
        if let Some(v) = last.get(key) {
            series.insert(key, v.clone());
        }
    }
    if let Some(slo) = last.get("slo").and_then(Value::as_object) {
        let mut stable = Map::new();
        for key in ["target_p99_ms", "budget", "burn_events", "degraded"] {
            if let Some(v) = slo.get(key) {
                stable.insert(key, v.clone());
            }
        }
        series.insert("slo", Value::Object(stable));
    }
    if !exemplars.is_empty() {
        // Keep the run's slowest across every window, slowest first.
        exemplars.sort_by(|a, b| {
            let ms = |v: &Value| v.get("total_ms").and_then(Value::as_f64).unwrap_or(0.0);
            ms(b)
                .partial_cmp(&ms(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        exemplars.truncate(SUMMARY_EXEMPLARS);
        series.insert("exemplars", Value::Array(exemplars));
    }
    let mut out = Map::new();
    out.insert("series", Value::Object(series));
    Ok(Value::Object(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rsd-obs-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn driver_writes_wellformed_series_and_summary_parses() {
        let series = temp_path("series.ndjson");
        let mut stages = Value::Null;
        crate::capture(|| {
            let guard = start_with(SeriesOptions {
                tick: Duration::from_millis(5),
                series_path: Some(series.clone()),
                stall_ticks: 3,
            });
            crate::stage_register("ts.stage");
            for _ in 0..10 {
                let _s = crate::Span::enter("ts.span");
                crate::stage_progress("ts.stage", 3, 128);
                std::thread::sleep(Duration::from_millis(2));
            }
            crate::stage_finish("ts.stage");
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(guard.finish().as_deref(), Some(series.as_path()));
            stages = crate::registry().snapshot()["stages"].clone();
        });
        let text = std::fs::read_to_string(&series).expect("series file");
        assert!(!text.trim().is_empty());
        let summary = summarize_series(&text).expect("well-formed series");
        let s = &summary["series"];
        assert_eq!(s["stages"]["ts.stage"]["items"], 30u32);
        assert_eq!(s["stages"]["ts.stage"]["bytes"], 1280u32);
        // One ledger: the final tick's totals are the registry's.
        for (label, stage) in stages.as_object().expect("stages").iter() {
            assert_eq!(
                s["stages"][label.as_str()]["items"],
                stage["items"],
                "{label}"
            );
            assert_eq!(
                s["stages"][label.as_str()]["bytes"],
                stage["bytes"],
                "{label}"
            );
        }
        assert!(s["latency"]["ts.span"]["p99_ms"].as_f64().is_some());
        assert!(s["latency"]["ts.span"]["p999_ms"].as_f64().is_some());
        let _ = std::fs::remove_file(&series);
    }

    #[test]
    fn stall_watchdog_fires_for_idle_registered_stage() {
        let series = temp_path("stall.ndjson");
        crate::capture(|| {
            let guard = start_with(SeriesOptions {
                tick: Duration::from_millis(2),
                series_path: Some(series.clone()),
                stall_ticks: 2,
            });
            crate::stage_register("ts.stuck");
            crate::stage_progress("ts.stuck", 1, 0);
            std::thread::sleep(Duration::from_millis(40));
            drop(guard);
        });
        let text = std::fs::read_to_string(&series).expect("series file");
        let stall_lines: Vec<&str> = text.lines().filter(|l| l.contains("\"stall\"")).collect();
        assert!(
            !stall_lines.is_empty(),
            "expected a stall event in:\n{text}"
        );
        // A stalled stage reports the stall once, not every tick.
        assert_eq!(stall_lines.len(), 1, "stall repeated:\n{text}");
        let _ = std::fs::remove_file(&series);
    }

    #[test]
    fn reregistered_stage_starts_its_idle_count_from_zero() {
        let opts = SeriesOptions {
            tick: Duration::from_millis(1),
            series_path: None,
            stall_ticks: 3,
        };
        let records = crate::capture(|| {
            let mut driver = Driver::new(&opts);
            crate::stage_register("ts.again");
            crate::stage_progress("ts.again", 1, 0);
            for _ in 0..3 {
                driver.tick("tick");
            }
            crate::stage_finish("ts.again");
            driver.tick("tick");
            crate::stage_register("ts.again");
            driver.tick("tick");
        });
        assert!(
            records.iter().all(|r| r["label"] != "obs.stall"),
            "one idle tick after re-registering stalled: {records:?}"
        );
    }

    #[test]
    fn summarize_rejects_malformed_lines() {
        assert!(summarize_series("not json\n").is_err());
        assert!(summarize_series("{\"kind\":\"mystery\"}\n").is_err());
        assert!(summarize_series("").is_err());
        let ok = summarize_series(
            "{\"kind\":\"tick\",\"tick\":0,\"ring\":{\"published\":1,\"dropped\":0}}\n",
        )
        .unwrap();
        assert_eq!(ok["series"]["ticks"], 1u32);
        // Older series carried a `ring` section; it is not summarized.
        assert!(ok["series"]["ring"].is_null());
    }

    #[test]
    fn summarize_carries_slo_health_and_run_exemplars() {
        let text = concat!(
            r#"{"kind":"tick","tick":0,"exemplars":[{"trace":1,"total_ms":5.0},{"trace":2,"total_ms":9.0}],"#,
            r#""slo":{"target_p99_ms":250.0,"budget":0.05,"fast_burn":0.2,"slow_burn":0.1,"burn_events":0,"degraded":false},"#,
            r#""health":{"status":"ok"}}"#,
            "\n",
            r#"{"kind":"slo_burn","t_ms":120.0,"target_p99_ms":250.0,"budget":0.05,"fast_burn":2.0,"slow_burn":1.5}"#,
            "\n",
            r#"{"kind":"final","tick":1,"exemplars":[{"trace":3,"total_ms":7.0}],"#,
            r#""slo":{"target_p99_ms":250.0,"budget":0.05,"fast_burn":2.0,"slow_burn":1.5,"burn_events":1,"degraded":true},"#,
            r#""health":{"status":"degraded"}}"#,
            "\n",
        );
        let s = summarize_series(text).expect("well-formed series");
        let s = &s["series"];
        assert_eq!(s["ticks"], 2u32);
        assert_eq!(s["burn_lines"], 1u32);
        assert_eq!(s["health"]["status"].as_str(), Some("degraded"));
        assert_eq!(s["slo"]["burn_events"], 1u32);
        assert_eq!(s["slo"]["degraded"], true);
        // Instantaneous burn rates are timing noise: not summarized.
        assert!(s["slo"]["fast_burn"].is_null());
        // Exemplars accumulate across ticks, slowest first.
        let exs = s["exemplars"].as_array().expect("exemplars");
        assert_eq!(exs.len(), 3);
        assert_eq!(exs[0]["trace"], 2u32);
        assert_eq!(exs[1]["trace"], 3u32);
        assert_eq!(exs[2]["trace"], 1u32);
    }
}
