//! Collapsed-stack ("folded") profile rendering.
//!
//! The folded format is the interchange convention of `flamegraph.pl`
//! and inferno: one line per unique call stack, frames joined by `;`,
//! followed by a space and an integer sample count. We emit **self-time
//! in microseconds** as the count, so `flamegraph.pl < x.folded`
//! renders frame widths proportional to self-time and parent frames
//! are widened by their children exactly as the tools expect.

use serde_json::Value;

/// Render a run report's `metrics.tree` as folded lines
/// (`path self_us\n`), sorted by path so the output is byte-identical
/// regardless of key order. Each path's `self_ms` converts back to the
/// integer nanoseconds it was written from (`round`) before the
/// truncating division to microseconds. Entries whose self-time rounds
/// to zero microseconds are kept (count 0 lines are legal and preserve
/// tree structure for parsers).
pub fn render_folded(report: &Value) -> Result<String, String> {
    let tree = report["metrics"]["tree"]
        .as_object()
        .ok_or("report has no metrics.tree object")?;
    let mut lines = Vec::with_capacity(tree.len());
    for (path, stat) in tree.iter() {
        let self_ms = stat["self_ms"]
            .as_f64()
            .ok_or_else(|| format!("tree path {path:?} has no numeric self_ms"))?;
        let self_ns = (self_ms * 1e6).round() as u128;
        lines.push(format!("{path} {}\n", self_ns / 1_000));
    }
    lines.sort();
    Ok(lines.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tree: &[(&str, f64)]) -> Value {
        let entries = tree.iter().map(|&(path, self_ms)| {
            let mut stat = serde_json::Map::new();
            stat.insert("self_ms", Value::Float(self_ms));
            (path.to_string(), Value::Object(stat))
        });
        let mut metrics = serde_json::Map::new();
        metrics.insert("tree", Value::Object(entries.collect()));
        let mut doc = serde_json::Map::new();
        doc.insert("metrics", Value::Object(metrics));
        Value::Object(doc)
    }

    #[test]
    fn folded_output_is_sorted_golden() {
        // Deliberately shuffled input: output must be byte-exact and
        // path-sorted no matter how the tree object was ordered.
        let tree = [
            ("pipeline;merge", 2.0),
            ("bench", 7.0),
            ("pipeline", 4.0),
            ("bench;load", 1.0),
            // 999 ns rounds down to 0 us but the stack line survives.
            ("bench;load;leaf with space", 0.000999),
        ];
        let golden = "bench 7000\nbench;load 1000\nbench;load;leaf with space 0\n\
                      pipeline 4000\npipeline;merge 2000\n";
        assert_eq!(render_folded(&report(&tree)).unwrap(), golden);

        let mut reversed = tree;
        reversed.reverse();
        assert_eq!(render_folded(&report(&reversed)).unwrap(), golden);
    }

    #[test]
    fn self_ms_converts_back_to_whole_nanoseconds() {
        // 0.0019999999 ms is 1999.9999 ns as written, 2000 ns as recorded.
        let text = render_folded(&report(&[("a", 0.0019999999)])).unwrap();
        assert_eq!(text, "a 2\n");
    }

    #[test]
    fn render_rejects_reports_without_a_tree() {
        assert!(render_folded(&Value::Null).is_err());
        let bad: Value =
            serde_json::from_str(r#"{"metrics":{"tree":{"a":{"self_ms":"1"}}}}"#).unwrap();
        assert!(render_folded(&bad).is_err());
    }
}
