//! Thread-safe metrics registry: counters, gauges, stage totals and
//! stall-watchdog flags, and the span call tree. Per-label span
//! aggregates are folds over the tree; latency histograms live in
//! [`crate::hist`]; the per-event record is the NDJSON sink.

use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::collections::BTreeMap;

/// Aggregate over all completed spans with one label, folded from every
/// call-tree path whose last label it is.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Completed span count.
    pub count: u64,
    /// Total wall-clock across spans.
    pub total_ns: u128,
    /// Longest single span.
    pub max_ns: u128,
    /// Deepest nesting level observed (0 = top level).
    pub max_depth: u32,
}

impl SpanStat {
    /// Fold one tree path into this label's aggregate. A path's depth is
    /// its number of `;` separators: the span's stack index, phantom
    /// context frames included.
    fn add(&mut self, path: &str, t: &TreeStat) {
        self.count += t.count;
        self.total_ns += t.total_ns;
        self.max_ns = self.max_ns.max(t.max_ns);
        self.max_depth = self.max_depth.max(path.matches(';').count() as u32);
    }

    fn summary(&self) -> Value {
        let mut m = Map::new();
        m.insert("count", Value::Int(self.count as i128));
        m.insert("total_ms", Value::Float(self.total_ns as f64 / 1e6));
        if self.count > 0 {
            m.insert(
                "mean_ms",
                Value::Float(self.total_ns as f64 / 1e6 / self.count as f64),
            );
        }
        m.insert("max_ms", Value::Float(self.max_ns as f64 / 1e6));
        m.insert("max_depth", Value::Int(i128::from(self.max_depth)));
        Value::Object(m)
    }
}

/// Aggregate over all completed spans sharing one call-tree *path*
/// (the `;`-joined label stack, collapsed-stack convention). A label
/// appearing under two different parents gets two tree entries, which is
/// what makes self-vs-child attribution and flamegraph export possible.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeStat {
    /// Completed span count at this path.
    pub count: u64,
    /// Total wall-clock across spans at this path.
    pub total_ns: u128,
    /// Wall-clock not attributed to child spans.
    pub self_ns: u128,
    /// Longest single span.
    pub max_ns: u128,
    /// Bytes allocated while spans at this path were open (0 without a
    /// counting allocator).
    pub alloc_bytes: u64,
    /// Allocation not attributed to child spans.
    pub self_alloc_bytes: u64,
}

impl TreeStat {
    fn summary(&self) -> Value {
        let mut m = Map::new();
        m.insert("count", Value::Int(self.count as i128));
        m.insert("total_ms", Value::Float(self.total_ns as f64 / 1e6));
        m.insert("self_ms", Value::Float(self.self_ns as f64 / 1e6));
        m.insert("max_ms", Value::Float(self.max_ns as f64 / 1e6));
        if self.alloc_bytes > 0 {
            m.insert("alloc_bytes", Value::Int(i128::from(self.alloc_bytes)));
            m.insert(
                "self_alloc_bytes",
                Value::Int(i128::from(self.self_alloc_bytes)),
            );
        }
        Value::Object(m)
    }
}

/// Per-label span aggregates: each tree path folds into the entry for
/// its last label.
fn span_stats(tree: &BTreeMap<String, TreeStat>) -> BTreeMap<&str, SpanStat> {
    let mut out: BTreeMap<&str, SpanStat> = BTreeMap::new();
    for (path, t) in tree {
        let label = path.rsplit(';').next().unwrap_or(path);
        out.entry(label).or_default().add(path, t);
    }
    out
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Cumulative `(items, bytes)` per pipeline stage.
    stages: BTreeMap<&'static str, (u64, u64)>,
    /// Stall-watchdog flag per registered stage: set by
    /// [`crate::stage_register`], cleared by [`crate::stage_finish`].
    watch: BTreeMap<&'static str, bool>,
    tree: BTreeMap<String, TreeStat>,
}

/// Thread-safe metric store. One global instance lives behind
/// [`crate::registry`]; standalone instances are constructible for tests.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add to a monotonic counter.
    pub fn counter_add(&self, label: &'static str, n: u64) {
        *self.inner.lock().counters.entry(label).or_insert(0) += n;
    }

    /// Read a counter (0 when never touched).
    pub fn counter(&self, label: &str) -> u64 {
        self.inner.lock().counters.get(label).copied().unwrap_or(0)
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&self, label: &'static str, value: f64) {
        self.inner.lock().gauges.insert(label, value);
    }

    /// Read a gauge.
    pub fn gauge(&self, label: &str) -> Option<f64> {
        self.inner.lock().gauges.get(label).copied()
    }

    /// Read a span aggregate: the fold of every tree path ending in
    /// `label` (`None` until one such span completed).
    pub fn span_stat(&self, label: &str) -> Option<SpanStat> {
        span_stats(&self.inner.lock().tree).remove(label)
    }

    /// Add to a stage's cumulative item/byte totals.
    pub(crate) fn stage_add(&self, label: &'static str, items: u64, bytes: u64) {
        let mut inner = self.inner.lock();
        let stat = inner.stages.entry(label).or_default();
        stat.0 += items;
        stat.1 += bytes;
    }

    /// Put a stage under (`on`) or take it out of the stall watchdog.
    pub(crate) fn watch(&self, label: &'static str, on: bool) {
        self.inner.lock().watch.insert(label, on);
    }

    /// Whether a stage is under the stall watchdog right now.
    pub fn watching(&self, label: &str) -> bool {
        self.inner.lock().watch.get(label).copied().unwrap_or(false)
    }

    /// Every stage that progressed or registered, as cumulative
    /// `(items, bytes, watched)`.
    pub(crate) fn stage_states(&self) -> BTreeMap<&'static str, (u64, u64, bool)> {
        let inner = self.inner.lock();
        let mut out: BTreeMap<_, _> = inner
            .stages
            .iter()
            .map(|(&label, &(items, bytes))| (label, (items, bytes, false)))
            .collect();
        for (&label, &on) in &inner.watch {
            out.entry(label).or_insert((0, 0, false)).2 = on;
        }
        out
    }

    /// Fold one completed span into the call-tree aggregate for its
    /// full stack path.
    pub fn record_tree(
        &self,
        path: &str,
        total_ns: u64,
        self_ns: u64,
        alloc_bytes: u64,
        self_alloc_bytes: u64,
    ) {
        let mut inner = self.inner.lock();
        // Avoid allocating the owned key on the hot repeat-visit path.
        if !inner.tree.contains_key(path) {
            inner.tree.insert(path.to_string(), TreeStat::default());
        }
        let stat = inner.tree.get_mut(path).expect("just inserted");
        stat.count += 1;
        stat.total_ns += u128::from(total_ns);
        stat.self_ns += u128::from(self_ns);
        stat.max_ns = stat.max_ns.max(u128::from(total_ns));
        stat.alloc_bytes += alloc_bytes;
        stat.self_alloc_bytes += self_alloc_bytes;
    }

    /// Read one call-tree aggregate by its `;`-joined path.
    pub fn tree_stat(&self, path: &str) -> Option<TreeStat> {
        self.inner.lock().tree.get(path).copied()
    }

    /// Snapshot the whole call tree, sorted by path.
    pub fn tree(&self) -> Vec<(String, TreeStat)> {
        self.inner
            .lock()
            .tree
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Dump everything as one JSON object with `counters` / `gauges` /
    /// `spans` / `stages` / `tree` sections.
    pub fn snapshot(&self) -> Value {
        let inner = self.inner.lock();
        let mut counters = Map::new();
        for (k, v) in &inner.counters {
            counters.insert(*k, Value::Int(i128::from(*v)));
        }
        let mut gauges = Map::new();
        for (k, v) in &inner.gauges {
            gauges.insert(*k, Value::Float(*v));
        }
        let mut spans = Map::new();
        for (k, s) in span_stats(&inner.tree) {
            spans.insert(k, s.summary());
        }
        let mut stages = Map::new();
        for (k, &(items, bytes)) in &inner.stages {
            let mut m = Map::new();
            m.insert("items", Value::Int(i128::from(items)));
            m.insert("bytes", Value::Int(i128::from(bytes)));
            stages.insert(*k, Value::Object(m));
        }
        let mut tree = Map::new();
        for (k, s) in &inner.tree {
            tree.insert(k.as_str(), s.summary());
        }
        let mut out = Map::new();
        out.insert("counters", Value::Object(counters));
        out.insert("gauges", Value::Object(gauges));
        out.insert("spans", Value::Object(spans));
        if !stages.is_empty() {
            out.insert("stages", Value::Object(stages));
        }
        out.insert("tree", Value::Object(tree));
        Value::Object(out)
    }

    /// Drop every recorded metric (used by the test capture harness so
    /// cases see only their own activity).
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_states_join_totals_and_watch_flags() {
        let reg = Registry::new();
        reg.stage_add("st.moving", 4, 40);
        reg.watch("st.moving", true);
        reg.watch("st.idle", true);
        assert!(reg.watching("st.idle") && !reg.watching("st.never"));
        reg.watch("st.idle", false);
        let states: Vec<_> = reg.stage_states().into_iter().collect();
        assert_eq!(
            states,
            vec![("st.idle", (0, 0, false)), ("st.moving", (4, 40, true))]
        );
        // A registration alone adds no stage total to the report.
        assert!(reg.snapshot()["stages"]["st.idle"].is_null());
    }
}
