//! Std-only live introspection endpoint.
//!
//! `RSD_OBS_HTTP=<port>` binds `127.0.0.1:<port>` on one
//! `std::net::TcpListener` thread — no HTTP dependency, no async
//! runtime, ~nothing on the hot path. Three routes:
//!
//! * `/metrics` — text exposition of the registry (counters, gauges),
//!   the SLO burn count, and the merged HDR histograms, tagged families
//!   included.
//! * `/health` — JSON stall-watchdog + SLO status; `200` when healthy,
//!   `503` once degraded (a latched SLO burn or a currently-stalled
//!   stage).
//! * `/snapshot` — the latest time-series tick as JSON, exactly as
//!   written to `.series.ndjson` (404 before the first tick).
//!
//! The time-series driver publishes each tick here (`publish_tick`),
//! so the endpoint serves prepared strings and never touches driver
//! state. The listener is non-blocking with a 20 ms accept poll so
//! [`HttpGuard`] can stop it promptly at shutdown.

use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn last_tick_slot() -> &'static Mutex<Option<String>> {
    static SLOT: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn stalled_slot() -> &'static Mutex<Vec<String>> {
    static SLOT: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(Vec::new()))
}

/// Publish the latest series tick (its NDJSON line) for `/snapshot`.
/// Called by the time-series driver once per tick.
pub(crate) fn publish_tick(json: String) {
    *last_tick_slot().lock() = Some(json);
}

/// Publish the set of currently-stalled stage labels for `/health`.
pub(crate) fn set_stalled(stages: Vec<String>) {
    *stalled_slot().lock() = stages;
}

/// The run's health verdict, shared by series ticks and `/health`:
/// degraded once the SLO burn latch is set or while any pipeline stage
/// is stalled.
pub(crate) fn degraded(stalled: &[String]) -> bool {
    crate::slo::degraded() || !stalled.is_empty()
}

/// `/health` verdict and body (see [`degraded`]).
fn health_value() -> (bool, Value) {
    let stalled = stalled_slot().lock().clone();
    let degraded = degraded(&stalled);
    let mut m = Map::new();
    m.insert(
        "status",
        Value::String(if degraded { "degraded" } else { "ok" }.to_string()),
    );
    m.insert(
        "stalled",
        Value::Array(stalled.into_iter().map(Value::String).collect()),
    );
    let mut slo_m = Map::new();
    slo_m.insert("burn_events", Value::Int(crate::slo::burn_events() as i128));
    slo_m.insert("degraded", Value::Bool(crate::slo::degraded()));
    m.insert("slo", Value::Object(slo_m));
    (degraded, Value::Object(m))
}

/// One histogram's exposition lines under a shared label set.
fn hist_lines(out: &mut String, labels: &str, hist: &crate::hist::HdrHist) {
    out.push_str(&format!("rsd_latency_count{{{labels}}} {}\n", hist.count()));
    for (stat, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("max", 1.0)] {
        if let Some(ns) = hist.quantile(q) {
            out.push_str(&format!(
                "rsd_latency_ms{{{labels},stat=\"{stat}\"}} {:.6}\n",
                ns as f64 / 1e6
            ));
        }
    }
}

/// `/metrics` body: counters, gauges, the SLO burn count, and every merged
/// histogram (untagged and tagged) in a Prometheus-flavoured text form.
fn metrics_text() -> String {
    let mut out = String::new();
    let snap = crate::snapshot();
    for (section, metric) in [("counters", "rsd_counter"), ("gauges", "rsd_gauge")] {
        if let Some(map) = snap.get(section).and_then(Value::as_object) {
            for (name, value) in map.iter() {
                if let Some(v) = value.as_f64() {
                    out.push_str(&format!("{metric}{{name=\"{name}\"}} {v}\n"));
                }
            }
        }
    }
    out.push_str(&format!(
        "rsd_slo_burn_events {}\n",
        crate::slo::burn_events()
    ));
    for (label, hist) in crate::hist::merged() {
        hist_lines(&mut out, &format!("name=\"{label}\""), &hist);
    }
    for (key, hist) in crate::hist::merged_tagged() {
        let labels = format!(
            "name=\"{}\",backend=\"{}\",level=\"{}\"",
            key.label, key.backend, key.level
        );
        hist_lines(&mut out, &labels, &hist);
    }
    out
}

/// Route one request path to `(status, content-type, body)`.
pub(crate) fn route(path: &str) -> (u16, &'static str, String) {
    match path {
        "/metrics" => (200, "text/plain; version=0.0.4", metrics_text()),
        "/health" => {
            let (degraded, body) = health_value();
            let status = if degraded { 503 } else { 200 };
            (status, "application/json", body.to_json())
        }
        "/snapshot" => match last_tick_slot().lock().clone() {
            Some(tick) => (200, "application/json", tick),
            None => (
                404,
                "application/json",
                "{\"error\":\"no series tick published yet\"}".to_string(),
            ),
        },
        _ => (
            404,
            "application/json",
            "{\"error\":\"unknown path; try /metrics, /health, /snapshot\"}".to_string(),
        ),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        503 => "Service Unavailable",
        _ => "Not Found",
    }
}

fn handle_conn(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nodelay(true).ok();
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the header terminator; requests here are tiny GETs.
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let req = String::from_utf8_lossy(&buf[..len]);
    let path = req.split_whitespace().nth(1).unwrap_or("/");
    let (status, ctype, body) = route(path);
    let header = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {ctype}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Handle on the running endpoint; dropping it stops the listener
/// thread (within one accept poll).
#[derive(Debug)]
pub struct HttpGuard {
    port: u16,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpGuard {
    /// The bound port (useful with an ephemeral port 0 bind in tests).
    pub fn port(&self) -> u16 {
        self.port
    }
}

impl Drop for HttpGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Start the endpoint when `RSD_OBS_HTTP` names a port.
pub fn start_from_env() -> Option<HttpGuard> {
    crate::knob::OBS_HTTP
        .get::<Option<u64>>()
        .map(|port| start(port as u16))
}

/// Bind `127.0.0.1:port` (0 picks an ephemeral port) and serve until
/// the guard drops. Forces the registry on — asking for the endpoint is
/// asking for telemetry.
pub fn start(port: u16) -> HttpGuard {
    crate::ensure_registry();
    let listener = TcpListener::bind(("127.0.0.1", port)).unwrap_or_else(|e| {
        panic!(
            "{}: cannot bind 127.0.0.1:{port}: {e}",
            crate::knob::OBS_HTTP.name
        )
    });
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(port);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_thread = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("rsd-obs-http".to_string())
        .spawn(move || {
            while !stop_thread.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = handle_conn(stream);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })
        .expect("spawn rsd-obs-http");
    eprintln!("rsd-obs: introspection endpoint on 127.0.0.1:{port} (/metrics /health /snapshot)");
    HttpGuard {
        port,
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(port: u16, path: &str) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
        )
        .expect("write request");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn routes_cover_metrics_health_snapshot_and_404() {
        let (status, _, body) = route("/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("rsd_slo_burn_events"));
        let (status, ctype, body) = route("/health");
        // Other tests may have latched a burn in this process; accept
        // either verdict but require a consistent body.
        assert!(status == 200 || status == 503);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"status\""));
        let (status, _, body) = route("/nope");
        assert_eq!(status, 404);
        assert!(body.contains("unknown path"));
    }

    #[test]
    fn snapshot_serves_the_latest_published_tick() {
        publish_tick("{\"kind\":\"tick\",\"tick\":7}".to_string());
        let (status, _, body) = route("/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"tick\":7") || body.contains("\"kind\":\"tick\""));
    }

    #[test]
    fn endpoint_serves_over_a_real_socket() {
        let guard = start(0); // ephemeral port: no knob, no collisions
        let resp = get(guard.port(), "/health");
        assert!(resp.starts_with("HTTP/1.1"), "{resp}");
        assert!(resp.contains("\"status\""), "{resp}");
        assert!(resp.contains("Content-Length"), "{resp}");
        let metrics = get(guard.port(), "/metrics");
        assert!(metrics.contains("rsd_slo_burn_events"), "{metrics}");
        drop(guard); // must join the listener thread without hanging
    }

    #[test]
    fn health_reports_stalled_stages_as_degraded() {
        // Stall state is process-global; set and restore around the
        // assertion to stay independent of test order.
        set_stalled(vec!["serve.scored".to_string()]);
        let (degraded, body) = health_value();
        assert!(degraded);
        assert_eq!(body["status"].as_str(), Some("degraded"));
        assert!(body["stalled"][0].as_str() == Some("serve.scored"));
        set_stalled(Vec::new());
    }
}
