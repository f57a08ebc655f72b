//! Chrome trace-event export.
//!
//! Converts a drained ring-event sequence (plus the registry's span
//! tree) into the Trace Event Format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly:
//!
//! - [`crate::ring::EventKind::SpanEnd`] → `"ph":"X"` complete events
//!   (`ts`/`dur` in microseconds, one track per publishing thread,
//!   self-time in `args`);
//! - `Counter` / `StageProgress` → `"ph":"C"` counter tracks carrying
//!   **cumulative** values, so the counter graph is monotone and slopes
//!   read as throughput;
//! - `Gauge` → `"ph":"C"` with the raw gauge value;
//! - `StageRegister` / `StageFinish` → `"ph":"i"` instant events
//!   marking stage lifecycle on the global track.
//!
//! The collapsed-stack span tree rides along under the top-level
//! `spanTree` key (viewers ignore unknown keys) so one artifact holds
//! both the timeline and the aggregate profile.

use crate::ring::{EventKind, RingEvent};
use crate::TreeStat;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Shared fake pid: everything in one bench binary is one process.
const PID: u32 = 1;

fn us(t_ns: u64) -> Value {
    Value::Float(t_ns as f64 / 1e3)
}

fn base(ph: &str, name: &str, tid: u32, t_ns: u64) -> Map {
    let mut m = Map::new();
    m.insert("ph", Value::String(ph.to_string()));
    m.insert("name", Value::String(name.to_string()));
    m.insert("pid", Value::Int(i128::from(PID)));
    m.insert("tid", Value::Int(i128::from(tid)));
    m.insert("ts", us(t_ns));
    m.insert("cat", Value::String("rsd".to_string()));
    m
}

/// Render one ring event as a trace event, updating the cumulative
/// counter state. Returns `None` for events with no trace mapping.
fn trace_event(event: &RingEvent, counters: &mut BTreeMap<&'static str, (u64, u64)>) -> Value {
    match event.kind {
        EventKind::SpanEnd => {
            // `t_ns` is the span end; `a` its duration.
            let start = event.t_ns.saturating_sub(event.a);
            let mut m = base("X", event.label, event.thread, start);
            m.insert("dur", us(event.a));
            let mut args = Map::new();
            args.insert("self_ms", Value::Float(event.b as f64 / 1e6));
            m.insert("args", Value::Object(args));
            Value::Object(m)
        }
        EventKind::Counter => {
            let cum = counters.entry(event.label).or_insert((0, 0));
            cum.0 += event.a;
            let mut m = base("C", event.label, 0, event.t_ns);
            let mut args = Map::new();
            args.insert("value", Value::Int(i128::from(cum.0)));
            m.insert("args", Value::Object(args));
            Value::Object(m)
        }
        EventKind::StageProgress => {
            let cum = counters.entry(event.label).or_insert((0, 0));
            cum.0 += event.a;
            cum.1 += event.b;
            let mut m = base("C", event.label, 0, event.t_ns);
            let mut args = Map::new();
            args.insert("items", Value::Int(i128::from(cum.0)));
            args.insert("bytes", Value::Int(i128::from(cum.1)));
            m.insert("args", Value::Object(args));
            Value::Object(m)
        }
        EventKind::Gauge => {
            let mut m = base("C", event.label, 0, event.t_ns);
            let mut args = Map::new();
            args.insert("value", Value::Float(f64::from_bits(event.a)));
            m.insert("args", Value::Object(args));
            Value::Object(m)
        }
        EventKind::StageRegister | EventKind::StageFinish => {
            let mut m = base("i", event.label, event.thread, event.t_ns);
            m.insert("s", Value::String("g".to_string()));
            let mut args = Map::new();
            let phase = if event.kind == EventKind::StageRegister {
                "register"
            } else {
                "finish"
            };
            args.insert("stage_phase", Value::String(phase.to_string()));
            m.insert("args", Value::Object(args));
            Value::Object(m)
        }
    }
}

fn thread_meta(tid: u32) -> Value {
    let mut m = Map::new();
    m.insert("ph", Value::String("M".to_string()));
    m.insert("name", Value::String("thread_name".to_string()));
    m.insert("pid", Value::Int(i128::from(PID)));
    m.insert("tid", Value::Int(i128::from(tid)));
    let mut args = Map::new();
    let name = if tid == 0 {
        "main".to_string()
    } else {
        format!("thread-{tid}")
    };
    args.insert("name", Value::String(name));
    m.insert("args", Value::Object(args));
    Value::Object(m)
}

/// Render the drained events plus the span tree into a complete trace
/// JSON document (the string form of [`write_trace_to`]).
fn render_trace(events: &[RingEvent], tree: &[(String, TreeStat)]) -> String {
    let mut trace_events = Vec::with_capacity(events.len() + 8);

    // Process / thread naming metadata first.
    let mut proc_meta = Map::new();
    proc_meta.insert("ph", Value::String("M".to_string()));
    proc_meta.insert("name", Value::String("process_name".to_string()));
    proc_meta.insert("pid", Value::Int(i128::from(PID)));
    let mut args = Map::new();
    args.insert("name", Value::String("rsd".to_string()));
    proc_meta.insert("args", Value::Object(args));
    trace_events.push(Value::Object(proc_meta));

    let mut tids: Vec<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .map(|e| e.thread)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        trace_events.push(thread_meta(tid));
    }

    let mut counters: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for event in events {
        trace_events.push(trace_event(event, &mut counters));
    }

    let mut span_tree = Map::new();
    for (path, stat) in tree {
        let mut m = Map::new();
        m.insert("count", Value::Int(stat.count as i128));
        m.insert("total_ms", Value::Float(stat.total_ns as f64 / 1e6));
        m.insert("self_ms", Value::Float(stat.self_ns as f64 / 1e6));
        span_tree.insert(path.as_str(), Value::Object(m));
    }

    let mut doc = Map::new();
    doc.insert("displayTimeUnit", Value::String("ms".to_string()));
    doc.insert("traceEvents", Value::Array(trace_events));
    if !span_tree.is_empty() {
        doc.insert("spanTree", Value::Object(span_tree));
    }
    Value::Object(doc).to_json()
}

/// Write the trace document to `path`, creating parent directories.
pub fn write_trace_to(
    path: &Path,
    events: &[RingEvent],
    tree: &[(String, TreeStat)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(render_trace(events, tree).as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &'static str, end_ns: u64, dur_ns: u64, thread: u32) -> RingEvent {
        RingEvent {
            t_ns: end_ns,
            a: dur_ns,
            b: dur_ns / 2,
            label,
            thread,
            kind: EventKind::SpanEnd,
        }
    }

    fn progress(label: &'static str, t_ns: u64, items: u64, bytes: u64) -> RingEvent {
        RingEvent {
            t_ns,
            a: items,
            b: bytes,
            label,
            thread: 0,
            kind: EventKind::StageProgress,
        }
    }

    #[test]
    fn spans_become_complete_events_with_micro_timestamps() {
        let events = [span("trace.work", 5_000_000, 2_000_000, 3)];
        let doc: Value = serde_json::from_str(&render_trace(&events, &[])).unwrap();
        let traced = doc["traceEvents"].as_array().unwrap();
        let x = traced
            .iter()
            .find(|e| e["ph"] == "X")
            .expect("complete event");
        assert_eq!(x["name"], "trace.work");
        assert_eq!(x["tid"], 3u32);
        // start = (5ms - 2ms) = 3000 µs, dur = 2000 µs.
        assert_eq!(x["ts"].as_f64().unwrap(), 3_000.0);
        assert_eq!(x["dur"].as_f64().unwrap(), 2_000.0);
        assert_eq!(x["args"]["self_ms"].as_f64().unwrap(), 1.0);
        // The publishing thread got a name track.
        assert!(traced
            .iter()
            .any(|e| e["ph"] == "M" && e["args"]["name"] == "thread-3"));
    }

    #[test]
    fn stage_progress_counters_are_cumulative() {
        let events = [
            progress("trace.stage", 1_000, 5, 100),
            progress("trace.stage", 2_000, 3, 50),
        ];
        let doc: Value = serde_json::from_str(&render_trace(&events, &[])).unwrap();
        let counters: Vec<&Value> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"] == "C")
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0]["args"]["items"], 5u32);
        assert_eq!(counters[1]["args"]["items"], 8u32);
        assert_eq!(counters[1]["args"]["bytes"], 150u32);
    }

    #[test]
    fn span_tree_rides_along_and_doc_parses() {
        let tree = vec![(
            "a;b".to_string(),
            TreeStat {
                count: 2,
                total_ns: 4_000_000,
                self_ns: 1_000_000,
                max_ns: 3_000_000,
                alloc_bytes: 0,
                self_alloc_bytes: 0,
            },
        )];
        let doc: Value = serde_json::from_str(&render_trace(&[], &tree)).unwrap();
        assert_eq!(doc["spanTree"]["a;b"]["count"], 2u32);
        assert_eq!(doc["spanTree"]["a;b"]["total_ms"].as_f64().unwrap(), 4.0);
        assert_eq!(doc["displayTimeUnit"], "ms");
    }
}
