//! Chrome trace-event export.
//!
//! Renders an NDJSON event stream (the `RSD_OBS` sink's records) into
//! the Trace Event Format that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly:
//!
//! - `span` records → `"ph":"X"` complete events (`ts`/`dur` in
//!   microseconds, one track per writing thread, self-time in `args`);
//! - `gauge` records → `"ph":"C"` counter tracks with the gauge value;
//! - `event` records → `"ph":"i"` instant events on the writing
//!   thread's track, carrying the record's own fields in `args`.
//!
//! A span record is written when the span ends, so its start is
//! `ts_ms - ms`.

use serde_json::{Map, Value};

/// Shared fake pid: everything in one bench binary is one process.
const PID: u32 = 1;

/// Record envelope keys, which become the trace event's own fields
/// rather than `args`.
const ENVELOPE: &[&str] = &["ts_ms", "kind", "label", "thread"];

fn us(ms: f64) -> Value {
    Value::Float(ms * 1e3)
}

fn base(ph: &str, name: &str, tid: i128) -> Map {
    let mut m = Map::new();
    m.insert("ph", Value::String(ph.to_string()));
    m.insert("name", Value::String(name.to_string()));
    m.insert("pid", Value::Int(i128::from(PID)));
    m.insert("tid", Value::Int(tid));
    m
}

/// Render one NDJSON record as a trace event (`None` for kinds the
/// trace does not show).
fn trace_event(rec: &Value) -> Result<Option<Value>, String> {
    let lacks = |key: &str| format!("record lacks {key}: {rec}");
    let field = |key: &str| rec[key].as_f64().ok_or_else(|| lacks(key));
    let label = rec["label"].as_str().ok_or_else(|| lacks("label"))?;
    let tid = rec["thread"].as_i64().map_or(0, i128::from);
    let ts_ms = field("ts_ms")?;
    let mut args = Map::new();
    let mut m = match rec["kind"].as_str() {
        Some("span") => {
            let ms = field("ms")?;
            let mut m = base("X", label, tid);
            m.insert("ts", us(ts_ms - ms));
            m.insert("dur", us(ms));
            args.insert("self_ms", Value::Float(field("self_ms")?));
            m
        }
        Some("gauge") => {
            args.insert("value", Value::Float(field("value")?));
            let mut m = base("C", label, 0);
            m.insert("ts", us(ts_ms));
            m
        }
        Some("event") => {
            for (k, v) in rec.as_object().into_iter().flat_map(Map::iter) {
                if !ENVELOPE.contains(&k.as_str()) {
                    args.insert(k.as_str(), v.clone());
                }
            }
            let mut m = base("i", label, tid);
            m.insert("ts", us(ts_ms));
            m.insert("s", Value::String("t".to_string()));
            m
        }
        _ => return Ok(None),
    };
    m.insert("cat", Value::String("rsd".to_string()));
    m.insert("args", Value::Object(args));
    Ok(Some(Value::Object(m)))
}

fn name_meta(ph_name: &str, tid: Option<i128>, name: String) -> Value {
    let mut m = Map::new();
    m.insert("ph", Value::String("M".to_string()));
    m.insert("name", Value::String(ph_name.to_string()));
    m.insert("pid", Value::Int(i128::from(PID)));
    if let Some(tid) = tid {
        m.insert("tid", Value::Int(tid));
    }
    let mut args = Map::new();
    args.insert("name", Value::String(name));
    m.insert("args", Value::Object(args));
    Value::Object(m)
}

/// Render an NDJSON event stream into a complete trace JSON document.
/// Blank lines are skipped; a line that is not a JSON record is an
/// error naming it.
pub fn render_trace(ndjson: &str) -> Result<String, String> {
    let mut events = vec![name_meta("process_name", None, "rsd".to_string())];
    let mut tids = std::collections::BTreeSet::new();
    let mut body = Vec::new();
    for (idx, line) in ndjson.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: Value = serde_json::from_str(line)
            .map_err(|e| format!("NDJSON line {}: invalid JSON: {e}", idx + 1))?;
        let event = trace_event(&rec).map_err(|e| format!("NDJSON line {}: {e}", idx + 1))?;
        if let Some(event) = event {
            if event["ph"] == "X" {
                tids.insert(event["tid"].as_i64().map_or(0, i128::from));
            }
            body.push(event);
        }
    }
    for tid in tids {
        let name = if tid == 0 {
            "main".to_string()
        } else {
            format!("thread-{tid}")
        };
        events.push(name_meta("thread_name", Some(tid), name));
    }
    events.extend(body);
    let mut doc = Map::new();
    doc.insert("displayTimeUnit", Value::String("ms".to_string()));
    doc.insert("traceEvents", Value::Array(events));
    Ok(Value::Object(doc).to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_of(ndjson: &str) -> Vec<Value> {
        let doc: Value = serde_json::from_str(&render_trace(ndjson).unwrap()).unwrap();
        assert_eq!(doc["displayTimeUnit"], "ms");
        doc["traceEvents"].as_array().unwrap().clone()
    }

    #[test]
    fn spans_become_complete_events_with_micro_timestamps() {
        let traced = events_of(
            r#"{"ts_ms":5.0,"kind":"span","label":"trace.work","thread":3,"ms":2.0,"self_ms":1.0,"depth":0}"#,
        );
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
    fn gauges_and_events_render_and_bad_lines_are_named() {
        let traced = events_of(concat!(
            r#"{"ts_ms":1.5,"kind":"gauge","label":"g","thread":0,"value":0.25,"epoch":2}"#,
            "\n\n",
            r#"{"ts_ms":2.0,"kind":"event","label":"e","thread":1,"items":42}"#,
            "\n",
        ));
        let c = traced.iter().find(|e| e["ph"] == "C").expect("counter");
        assert_eq!(
            (c["name"].as_str(), c["ts"].as_f64()),
            (Some("g"), Some(1_500.0))
        );
        assert_eq!(c["args"]["value"].as_f64(), Some(0.25));
        let i = traced.iter().find(|e| e["ph"] == "i").expect("instant");
        assert_eq!(
            (i["tid"].as_i64(), i["args"]["items"].as_i64()),
            (Some(1), Some(42))
        );
        assert!(i["args"]["label"].is_null());
        // No span, so only the process name track.
        assert_eq!(traced.iter().filter(|e| e["ph"] == "M").count(), 1);

        let err = render_trace("{\"kind\":\"span\"}\nnot json\n").unwrap_err();
        assert!(err.starts_with("NDJSON line 1"), "{err}");
        let err = render_trace("\nnot json\n").unwrap_err();
        assert!(err.starts_with("NDJSON line 2"), "{err}");
    }
}
