//! Chrome trace-event export.
//!
//! Converts the registry's write timeline (plus its span tree) into the
//! Trace Event Format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly:
//!
//! - completed spans → `"ph":"X"` complete events (`ts`/`dur` in
//!   microseconds, one track per writing thread, self-time in `args`);
//! - counter and stage writes → `"ph":"C"` counter tracks carrying the
//!   registry's **cumulative** totals at write time, so the counter graph
//!   is monotone and slopes read as throughput;
//! - gauge writes → `"ph":"C"` with the raw gauge value;
//! - stage register / finish → `"ph":"i"` instant events marking stage
//!   lifecycle on the global track.
//!
//! The collapsed-stack span tree rides along under the top-level
//! `spanTree` key (viewers ignore unknown keys) so one artifact holds
//! both the timeline and the aggregate profile.

use crate::registry::{TraceEntry, Traced};
use crate::TreeStat;
use serde_json::{Map, Value};
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

/// Render one timeline entry as a trace event.
fn trace_event(entry: &TraceEntry) -> Value {
    let mut args = Map::new();
    let mut m = match entry.what {
        Traced::Span(dur_ns, self_ns) => {
            // `t_ns` is the span end.
            let start = entry.t_ns.saturating_sub(dur_ns);
            let mut m = base("X", entry.label, entry.thread, start);
            m.insert("dur", us(dur_ns));
            args.insert("self_ms", Value::Float(self_ns as f64 / 1e6));
            m
        }
        Traced::Counter(total) => {
            args.insert("value", Value::Int(i128::from(total)));
            base("C", entry.label, 0, entry.t_ns)
        }
        Traced::Stage(items, bytes) => {
            args.insert("items", Value::Int(i128::from(items)));
            args.insert("bytes", Value::Int(i128::from(bytes)));
            base("C", entry.label, 0, entry.t_ns)
        }
        Traced::Gauge(value) => {
            args.insert("value", Value::Float(value));
            base("C", entry.label, 0, entry.t_ns)
        }
        Traced::Watch(on) => {
            let mut m = base("i", entry.label, entry.thread, entry.t_ns);
            m.insert("s", Value::String("g".to_string()));
            let phase = if on { "register" } else { "finish" };
            args.insert("stage_phase", Value::String(phase.to_string()));
            m
        }
    };
    m.insert("args", Value::Object(args));
    Value::Object(m)
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

/// Render the timeline plus the span tree into a complete trace JSON
/// document (the string form of [`write_trace_to`]).
fn render_trace(events: &[TraceEntry], tree: &[(String, TreeStat)]) -> String {
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
        .filter(|e| matches!(e.what, Traced::Span(..)))
        .map(|e| e.thread)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        trace_events.push(thread_meta(tid));
    }

    trace_events.extend(events.iter().map(trace_event));

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
pub(crate) fn write_trace_to(
    path: &Path,
    events: &[TraceEntry],
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

    fn span(label: &'static str, end_ns: u64, dur_ns: u64, thread: u32) -> TraceEntry {
        TraceEntry {
            t_ns: end_ns,
            label,
            thread,
            what: Traced::Span(dur_ns, dur_ns / 2),
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
