//! Report differ: compares two RunReport / BENCH JSON artifacts leaf by
//! leaf, classifying every metric path into a tolerance class and
//! flagging regressions. This is the engine behind the `obs_diff` bench
//! bin and the `scripts/ci.sh` perf/quality gate.
//!
//! Classes, decided from the key path alone:
//!
//! - **Skip** — machine- or run-dependent identity (meta blocks,
//!   timestamps, thread ordinals, host core counts, chunk counters):
//!   never compared.
//! - **Quality** — paper-replication metrics (κ, accuracy, F1, …),
//!   config echoes, and discrete counts: must match exactly (floats
//!   within `quality_eps`). Any drift is a regression regardless of
//!   direction — these are replication invariants, not performance.
//!   Wall-clock leaves embedded in config echoes (per-model fit times
//!   in table rows) are the exception: they can never repeat exactly
//!   and gate as Time instead.
//! - **Time** — wall-clock leaves (`*_ns`, `*_us`, `*_ms`, `*_secs`,
//!   percentiles, durations): candidate may not exceed
//!   `baseline * (1 + time_ratio)`; leaves below `min_time_ms` are
//!   noise and ignored. The floor is read in each leaf's own unit, from
//!   its suffix, so 50 ms is 5e7 for a `_ns` leaf and 0.05 for `_secs`.
//! - **Quantile** — HDR latency quantiles (`p50_ms` … `p999_ms`, from
//!   the continuous-telemetry layer): each quantile carries its own
//!   tolerance ratio — tails are noisier, so p999 gets more headroom
//!   than p50 — with a shared `min_quantile_ms` noise floor.
//! - **Memory** — byte/peak/resident leaves: candidate may not exceed
//!   `baseline * (1 + mem_ratio)` once above `min_mem_bytes`.
//! - **Speedup** — bigger-is-better ratios (`*speedup*`,
//!   `*throughput*`, `*_per_s`): candidate may not fall below
//!   `baseline * (1 - time_ratio)`.
//! - **Info** — everything else: reported on mismatch only at the
//!   verbose level, never a regression.
//!
//! Every regression finding names the offending path and both values.
//! Series work too: the `obs_diff` bin feeds `.series.ndjson` files
//! through [`crate::timeseries::summarize_series`] before diffing.

use serde_json::Value;

/// Per-class tolerances for [`diff_reports`].
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Allowed relative increase for Time leaves (and decrease for
    /// Speedup leaves). CI default 0.15.
    pub time_ratio: f64,
    /// Allowed relative increase for Memory leaves.
    pub mem_ratio: f64,
    /// Time leaves where both sides are under this many ms (converted
    /// from the leaf's unit) are treated as noise and skipped.
    pub min_time_ms: f64,
    /// Memory leaves where both sides are under this many bytes are
    /// skipped.
    pub min_mem_bytes: f64,
    /// Absolute epsilon for float Quality leaves.
    pub quality_eps: f64,
    /// Allowed relative increase per latency quantile, `[p50, p90, p99,
    /// p999]`. Tails are noisier, so defaults widen with the quantile.
    pub quantile_ratios: [f64; 4],
    /// Quantile leaves where both sides are under this many ms are
    /// noise and skipped.
    pub min_quantile_ms: f64,
    /// Gate on Time/Quantile/Speedup leaves at all (CI on a loaded
    /// machine may disable timing and keep the quality gate).
    pub check_time: bool,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            time_ratio: 0.15,
            mem_ratio: 0.30,
            min_time_ms: 50.0,
            min_mem_bytes: (1 << 20) as f64,
            quality_eps: 1e-6,
            quantile_ratios: [0.15, 0.20, 0.25, 0.40],
            min_quantile_ms: 1.0,
            check_time: true,
        }
    }
}

impl Tolerances {
    /// The tolerance ratio for a quantile leaf segment (`"p50_ms"` …).
    fn quantile_ratio(&self, segment: &str) -> f64 {
        match quantile_index(segment) {
            Some(i) => self.quantile_ratios[i],
            None => self.time_ratio,
        }
    }
}

/// Index into [`Tolerances::quantile_ratios`] for a quantile leaf
/// segment, `None` for non-quantile segments.
fn quantile_index(segment: &str) -> Option<usize> {
    match segment {
        "p50_ms" => Some(0),
        "p90_ms" => Some(1),
        "p99_ms" => Some(2),
        "p999_ms" => Some(3),
        _ => None,
    }
}

/// Metric class a path resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Skip,
    Quality,
    Time,
    Quantile,
    Memory,
    Speedup,
    Info,
}

/// One comparison outcome worth reporting.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Dotted key path (`metrics.spans.dataset.build.total_ms`).
    pub path: String,
    pub class: Class,
    /// Whether this finding fails the gate.
    pub regression: bool,
    /// Human-readable explanation.
    pub detail: String,
}

/// Result of diffing two artifacts.
#[derive(Debug, Default)]
pub struct DiffResult {
    pub findings: Vec<Finding>,
    /// Leaves actually compared (after Skip filtering).
    pub compared: usize,
}

impl DiffResult {
    /// Whether any finding fails the gate.
    pub fn regressed(&self) -> bool {
        self.findings.iter().any(|f| f.regression)
    }
}

/// Keys (single path segments) that identify machine- or run-dependent
/// values: never compared.
const SKIP_SEGMENTS: &[&str] = &[
    "meta",
    "note",
    "notes",
    "generated_by",
    "ts_ms",
    "started_at",
    "thread",
    "host_cores",
    "pool_size",
    "shards_in_flight",
    "reps",
    "git_rev",
    // Which requests land in the slow-exemplar reservoir is inherently
    // run-dependent; the quantiles they explain are gated separately.
    "exemplars",
];

/// Path substrings for per-run scheduling counters that legitimately
/// vary with thread count and machine.
const SKIP_SUBSTRINGS: &[&str] = &["par.tasks", "par.pool", "alloc.allocations"];

/// Segment substrings marking bigger-is-better ratio leaves.
const SPEEDUP_MARKS: &[&str] = &["speedup", "throughput", "per_s"];

/// Segment substrings marking memory leaves.
const MEM_MARKS: &[&str] = &["bytes", "resident", "peak_live", "rss"];

/// Segment substrings marking replication-quality leaves.
const QUALITY_MARKS: &[&str] = &[
    "kappa",
    "accuracy",
    "f1",
    "precision",
    "recall",
    "alpha",
    "agreement",
    "percent",
    "support",
    // SLO verdicts: a clean baseline must stay clean — any burn count
    // or degraded flag drifting from the baseline is a regression.
    "burn",
    "degraded",
];

/// Exact segment names for discrete counts that must not drift.
const COUNT_SEGMENTS: &[&str] = &[
    "count", "counts", "posts", "users", "shards", "items", "rows", "labels", "n",
];

/// Identity keys compared exactly (including strings).
const IDENTITY_SEGMENTS: &[&str] = &["bin", "scale", "seed", "mode", "kernel", "dim", "status"];

/// Time-unit suffixes and the milliseconds one unit is worth.
const TIME_UNITS: &[(&str, f64)] = &[("_ns", 1e-6), ("_us", 1e-3), ("_ms", 1.0), ("_secs", 1e3)];

/// Segment suffixes/substrings marking wall-clock leaves.
fn is_time_segment(seg: &str) -> bool {
    TIME_UNITS.iter().any(|(suffix, _)| seg.ends_with(suffix))
        || seg == "elapsed"
        || seg.contains("duration")
        || matches!(seg, "p50" | "p90" | "p99" | "mean" | "min" | "max" | "sum")
}

/// Classify a dotted path. The *last* matching rule among the specific
/// classes wins over Info; Skip beats everything.
pub(crate) fn classify(path: &str) -> Class {
    let lower = path.to_ascii_lowercase();
    let segs: Vec<&str> = lower.split('.').collect();
    if segs.iter().any(|s| SKIP_SEGMENTS.contains(s))
        || SKIP_SUBSTRINGS.iter().any(|m| lower.contains(m))
    {
        return Class::Skip;
    }
    if quantile_index(segs.last().unwrap_or(&"")).is_some() {
        return Class::Quantile;
    }
    if segs
        .iter()
        .any(|s| SPEEDUP_MARKS.iter().any(|m| s.contains(m)))
    {
        return Class::Speedup;
    }
    if segs.iter().any(|s| MEM_MARKS.iter().any(|m| s.contains(m))) {
        return Class::Memory;
    }
    let last = segs.last().unwrap_or(&"");
    if segs
        .iter()
        .any(|s| QUALITY_MARKS.iter().any(|m| s.contains(m)))
        || IDENTITY_SEGMENTS.contains(last)
        || COUNT_SEGMENTS.contains(last)
    {
        return Class::Quality;
    }
    if segs.first() == Some(&"config")
        || segs.first() == Some(&"tables")
        || segs.get(1) == Some(&"counters")
    {
        // Config echoes are replication invariants — except wall-clock
        // leaves embedded in them (per-model fit times in table rows),
        // which can never repeat exactly and gate as Time below.
        if !is_time_segment(last) {
            return Class::Quality;
        }
    }
    if segs.iter().any(|s| is_time_segment(s)) {
        return Class::Time;
    }
    Class::Info
}

/// Milliseconds per unit of a time leaf: the suffix of the innermost
/// segment that carries one (`…window_apply_ns.p50` is in ns). Leaves
/// with none (`elapsed`, `duration`) read as ms.
fn ms_per_unit(path: &str) -> f64 {
    let lower = path.to_ascii_lowercase();
    lower
        .rsplit('.')
        .find_map(|seg| {
            TIME_UNITS
                .iter()
                .find(|(suffix, _)| seg.ends_with(suffix))
                .map(|&(_, ms)| ms)
        })
        .unwrap_or(1.0)
}

fn as_num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn fmt_leaf(v: &Value) -> String {
    v.to_json()
}

/// Leaf formatting for missing-key findings, truncated so a vanished
/// subtree doesn't dump its whole JSON into the gate output.
fn fmt_leaf_short(v: &Value) -> String {
    let s = v.to_json();
    if s.len() <= 120 {
        return s;
    }
    let cut = s
        .char_indices()
        .take_while(|(i, _)| *i < 117)
        .last()
        .map(|(i, c)| i + c.len_utf8())
        .unwrap_or(0);
    format!("{}...", &s[..cut])
}

/// Compare one leaf pair under its class; push a finding if noteworthy.
fn compare_leaf(path: &str, base: &Value, cand: &Value, tol: &Tolerances, out: &mut DiffResult) {
    let class = classify(path);
    if class == Class::Skip {
        return;
    }
    out.compared += 1;
    match class {
        Class::Quality => {
            let equal = match (as_num(base), as_num(cand)) {
                (Some(b), Some(c)) => (b - c).abs() <= tol.quality_eps,
                _ => base == cand,
            };
            if !equal {
                out.findings.push(Finding {
                    path: path.to_string(),
                    class,
                    regression: true,
                    detail: format!(
                        "quality drift: baseline {} != candidate {}",
                        fmt_leaf(base),
                        fmt_leaf(cand)
                    ),
                });
            }
        }
        Class::Time | Class::Quantile | Class::Speedup | Class::Memory => {
            let (Some(b), Some(c)) = (as_num(base), as_num(cand)) else {
                if base != cand {
                    out.findings.push(Finding {
                        path: path.to_string(),
                        class,
                        regression: false,
                        detail: format!(
                            "non-numeric change: {} -> {}",
                            fmt_leaf(base),
                            fmt_leaf(cand)
                        ),
                    });
                }
                return;
            };
            let (floor, allowed, bad, what) = match class {
                Class::Time => {
                    if !tol.check_time {
                        return;
                    }
                    let allowed = b * (1.0 + tol.time_ratio);
                    let floor = tol.min_time_ms / ms_per_unit(path);
                    (floor, allowed, c > allowed, "slower")
                }
                Class::Quantile => {
                    if !tol.check_time {
                        return;
                    }
                    let seg = path.rsplit('.').next().unwrap_or("");
                    let allowed = b * (1.0 + tol.quantile_ratio(seg));
                    (tol.min_quantile_ms, allowed, c > allowed, "slower quantile")
                }
                Class::Speedup => {
                    if !tol.check_time {
                        return;
                    }
                    let allowed = b * (1.0 - tol.time_ratio);
                    (0.0, allowed, c < allowed, "lost speedup")
                }
                _ => {
                    let allowed = b * (1.0 + tol.mem_ratio);
                    (tol.min_mem_bytes, allowed, c > allowed, "more memory")
                }
            };
            if b < floor && c < floor {
                return; // below the noise floor on both sides
            }
            if bad {
                let ratio = if b != 0.0 { c / b } else { f64::INFINITY };
                out.findings.push(Finding {
                    path: path.to_string(),
                    class,
                    regression: true,
                    detail: format!(
                        "{what}: baseline {b:.3} -> candidate {c:.3} ({ratio:.2}x, allowed {allowed:.3})"
                    ),
                });
            }
        }
        Class::Info => {
            if base != cand {
                out.findings.push(Finding {
                    path: path.to_string(),
                    class,
                    regression: false,
                    detail: format!("changed: {} -> {}", fmt_leaf(base), fmt_leaf(cand)),
                });
            }
        }
        Class::Skip => unreachable!(),
    }
}

fn walk(path: &str, base: &Value, cand: &Value, tol: &Tolerances, out: &mut DiffResult) {
    if classify(path) == Class::Skip && !path.is_empty() {
        return;
    }
    match (base, cand) {
        (Value::Object(bm), Value::Object(cm)) => {
            for (k, bv) in bm.iter() {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match cm.get(k) {
                    Some(cv) => walk(&sub, bv, cv, tol, out),
                    None => {
                        if classify(&sub) != Class::Skip {
                            out.findings.push(Finding {
                                path: sub,
                                class: Class::Quality,
                                regression: true,
                                detail: format!(
                                    "present in baseline ({}), missing in candidate",
                                    fmt_leaf_short(bv)
                                ),
                            });
                        }
                    }
                }
            }
        }
        (Value::Array(ba), Value::Array(ca)) => {
            if ba.len() != ca.len() {
                out.findings.push(Finding {
                    path: path.to_string(),
                    class: Class::Quality,
                    regression: true,
                    detail: format!("array length {} -> {}", ba.len(), ca.len()),
                });
                return;
            }
            for (i, (bv, cv)) in ba.iter().zip(ca.iter()).enumerate() {
                walk(&format!("{path}.{i}"), bv, cv, tol, out);
            }
        }
        _ => compare_leaf(path, base, cand, tol, out),
    }
}

/// Diff two parsed report artifacts. Keys present only in the candidate
/// are additions and never regress; keys present only in the baseline
/// regress (a metric silently disappearing is how gates rot).
pub fn diff_reports(baseline: &Value, candidate: &Value, tol: &Tolerances) -> DiffResult {
    let mut out = DiffResult::default();
    walk("", baseline, candidate, tol, &mut out);
    out
}

/// Both artifacts' `meta.host_cores` when both carry it and the counts
/// differ. Wall-clock leaves from different core counts do not compare,
/// so `obs_diff` refuses the time classes on such a pair.
pub fn host_cores_mismatch(baseline: &Value, candidate: &Value) -> Option<(u64, u64)> {
    let cores = |v: &Value| v.get("meta")?.get("host_cores")?.as_u64();
    let (b, c) = (cores(baseline)?, cores(candidate)?);
    (b != c).then_some((b, c))
}

/// Functionally rewrite `v`, applying `f` to every leaf (passed its
/// dotted path). Used by the self-test injector; the vendored `Value`
/// has no mutable traversal.
fn map_leaves(path: &str, v: &Value, f: &mut impl FnMut(&str, &Value) -> Value) -> Value {
    match v {
        Value::Object(m) => {
            let mut out = serde_json::Map::new();
            for (k, child) in m.iter() {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                out.insert(k.as_str(), map_leaves(&sub, child, f));
            }
            Value::Object(out)
        }
        Value::Array(a) => Value::Array(
            a.iter()
                .enumerate()
                .map(|(i, child)| map_leaves(&format!("{path}.{i}"), child, f))
                .collect(),
        ),
        leaf => f(path, leaf),
    }
}

/// Outcome of [`inject_regressions`]: what was actually perturbed.
#[derive(Debug, Default)]
pub struct Injection {
    /// Time leaf that was slowed, if the report has one.
    pub time_path: Option<String>,
    /// Path whose quality value was perturbed, if any.
    pub quality_path: Option<String>,
    /// Tail-latency quantile (p99/p999) that was inflated, if any.
    pub quantile_path: Option<String>,
}

/// Produce a copy of `report` with an injected slowdown on the largest
/// Time leaf, a drift on the first float Quality leaf, and an inflated
/// tail (p99/p999) on the first latency quantile — the `obs_diff
/// --self-test` fixture proving each gate class trips.
///
/// The largest leaf is picked by its value in ms. It then reads at least
/// twice its value and twice `min_time_ms` in its own unit, so it crosses
/// the noise floor even when every time leaf of the report sits under it.
pub fn inject_regressions(report: &Value, tol: &Tolerances) -> (Value, Injection) {
    let mut largest: Option<(String, f64, f64)> = None;
    // A read-only pass; the copy it builds is dropped.
    map_leaves("", report, &mut |path, leaf| {
        if let (Class::Time, Some(n)) = (classify(path), as_num(leaf)) {
            let ms = n * ms_per_unit(path);
            if largest.as_ref().is_none_or(|(_, _, m)| ms > *m) {
                largest = Some((path.to_string(), n, ms));
            }
        }
        Value::Null
    });
    let mut inj = Injection {
        time_path: largest.as_ref().map(|(path, _, _)| path.clone()),
        ..Injection::default()
    };
    let injected = map_leaves("", report, &mut |path, leaf| {
        match classify(path) {
            Class::Time => {
                if let Some((slow, n, _)) = &largest {
                    if slow == path {
                        let floor = tol.min_time_ms / ms_per_unit(path);
                        return Value::Float((n * 2.0).max(floor * 2.0));
                    }
                }
            }
            Class::Quantile if inj.quantile_path.is_none() => {
                let seg = path.rsplit('.').next().unwrap_or("");
                // Target the tail: a p99 drift is what the continuous
                // layer exists to catch.
                if matches!(seg, "p99_ms" | "p999_ms") {
                    if let Some(n) = as_num(leaf) {
                        // Clears both the noise floor and every
                        // per-quantile tolerance band.
                        inj.quantile_path = Some(path.to_string());
                        return Value::Float(n * 2.0 + tol.min_quantile_ms * 2.0 + 1.0);
                    }
                }
            }
            Class::Quality if inj.quality_path.is_none() => {
                if let Value::Float(f) = leaf {
                    inj.quality_path = Some(path.to_string());
                    return Value::Float(f + 10.0 * tol.quality_eps.max(1e-6) + 0.01);
                }
            }
            _ => {}
        }
        leaf.clone()
    });
    (injected, inj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn report() -> Value {
        // The vendored json! macro does not recurse into bare object
        // literals, hence the nested json!() calls.
        json!({
            "bin": "table1",
            "scale": "small",
            "seed": 2026,
            "elapsed_ms": 812.5,
            "meta": json!({"host_cores": 8, "git_rev": "abc1234"}),
            "config": json!({"models": 4}),
            "metrics": json!({
                "counters": json!({"dataset.posts": 120000}),
                "gauges": json!({
                    "pipeline.peak_resident_posts": 9000.0,
                    "alloc.peak_live_bytes": 52428800.0
                }),
                "spans": json!({
                    "dataset.build": json!({"count": 1, "total_ms": 512.0, "max_ms": 512.0})
                }),
                "tree": json!({
                    "bench.run;dataset.build":
                        json!({"count": 1, "total_ms": 512.0, "self_ms": 100.0})
                })
            }),
            "tables": json!({"lr": json!({"accuracy": 0.8132, "f1": 0.7991})}),
            "kappa": 0.7206
        })
    }

    #[test]
    fn identical_reports_pass() {
        let r = report();
        let d = diff_reports(&r, &r, &Tolerances::default());
        assert!(!d.regressed(), "findings: {:?}", d.findings);
        assert!(d.compared > 5);
    }

    #[test]
    fn time_regression_trips_and_tolerance_holds() {
        let base = report();
        let tol = Tolerances::default();
        // +10% stays inside the 15% band…
        let mut ok = DiffResult::default();
        compare_leaf("elapsed_ms", &json!(812.5), &json!(893.0), &tol, &mut ok);
        assert!(!ok.regressed());
        // …2x does not.
        let (slow, inj) = inject_regressions(&base, &tol);
        assert!(inj.time_path.is_some());
        let d = diff_reports(&base, &slow, &tol);
        assert!(d.regressed());
        assert!(d
            .findings
            .iter()
            .any(|f| f.class == Class::Time && f.regression));
    }

    #[test]
    fn injected_slowdown_crosses_the_noise_floor() {
        let tol = Tolerances::default();
        let base = json!({
            "elapsed_ms": 49.0,
            "metrics": json!({
                "spans": json!({"pipeline.merge": json!({"total_ms": 12.0, "max_ms": 3.0})})
            })
        });
        let (slow, inj) = inject_regressions(&base, &tol);
        assert_eq!(inj.time_path.as_deref(), Some("elapsed_ms"));
        let d = diff_reports(&base, &slow, &tol);
        assert!(d
            .findings
            .iter()
            .any(|f| f.class == Class::Time && f.regression && f.path == "elapsed_ms"));
    }

    #[test]
    fn time_floor_is_read_in_the_leaf_unit() {
        let tol = Tolerances::default();
        let gate = |path: &str, base: f64| {
            let mut r = DiffResult::default();
            compare_leaf(path, &json!(base), &json!(base * 1.4), &tol, &mut r);
            r.regressed()
        };
        // 3.3 ms in ns sits under the 50 ms floor; 60 ms does not.
        assert!(!gate("metrics.counters.nn.op.matmul_ns", 3.3e6));
        assert!(gate("metrics.counters.nn.op.matmul_ns", 6.0e7));
        // 10 s clears the floor; 30 ms rising to 42 ms stays under it.
        assert!(gate("tables.table4.fit_secs", 10.0));
        assert!(!gate("tables.table4.fit_secs", 0.03));
        // `_us` leaves are time leaves, gated from 50,000 µs.
        assert_eq!(classify("kernels.0.nt_us"), Class::Time);
        assert!(!gate("kernels.0.nt_us", 20.0));
        assert!(gate("kernels.0.nt_us", 6.0e4));
        // A bare quantile takes the unit of the segment that names one.
        assert!(!gate("histograms.window_apply_ns.p50", 3.3e6));
        assert!(gate("histograms.window_apply_ns.p50", 6.0e7));
    }

    #[test]
    fn injected_slowdown_clears_the_floor_in_its_own_unit() {
        let tol = Tolerances::default();
        let base = json!({"counters": json!({"op.a_ns": 3.3e6, "op.b_ns": 1.0e6})});
        let (slow, inj) = inject_regressions(&base, &tol);
        assert_eq!(inj.time_path.as_deref(), Some("counters.op.a_ns"));
        assert!(diff_reports(&base, &slow, &tol).regressed());
        // The largest leaf is picked by its time, not its raw value.
        let mixed = json!({"elapsed_ms": 900.0, "fit_ns": 4.0e5, "fit_secs": 2.0});
        let (_, inj) = inject_regressions(&mixed, &tol);
        assert_eq!(inj.time_path.as_deref(), Some("fit_secs"));
    }

    #[test]
    fn quality_drift_trips_even_when_tiny_and_in_the_good_direction() {
        let base = report();
        let mut cand = base.clone();
        // κ "improving" is still drift: replication metrics are exact.
        if let Value::Object(m) = &mut cand {
            m.insert("kappa", json!(0.7306));
        }
        let d = diff_reports(&base, &cand, &Tolerances::default());
        assert!(d.regressed());
        assert!(d.findings.iter().any(|f| f.path == "kappa"));
    }

    #[test]
    fn machine_dependent_leaves_are_skipped() {
        let base = report();
        let mut cand = base.clone();
        if let Value::Object(m) = &mut cand {
            m.insert("meta", json!({"host_cores": 1, "git_rev": "zzz9999"}));
        }
        let d = diff_reports(&base, &cand, &Tolerances::default());
        assert!(!d.regressed(), "findings: {:?}", d.findings);
    }

    #[test]
    fn host_core_counts_must_match_to_compare_time() {
        let base = report();
        let with_cores = |cores| {
            let mut r = base.clone();
            if let Value::Object(m) = &mut r {
                m.insert("meta", json!({"host_cores": cores}));
            }
            r
        };
        assert_eq!(host_cores_mismatch(&base, &with_cores(8)), None);
        assert_eq!(host_cores_mismatch(&base, &with_cores(2)), Some((8, 2)));
        // An artifact without the count cannot be told apart.
        assert_eq!(
            host_cores_mismatch(&json!({"elapsed_ms": 1.0}), &base),
            None
        );
    }

    #[test]
    fn missing_baseline_metric_regresses() {
        let base = report();
        let mut cand = base.clone();
        if let Value::Object(m) = &mut cand {
            m.remove("kappa");
        }
        let d = diff_reports(&base, &cand, &Tolerances::default());
        assert!(d.regressed());
    }

    #[test]
    fn memory_and_speedup_classes_gate_directionally() {
        let tol = Tolerances::default();
        let mut r = DiffResult::default();
        // Memory: +50% over a 50 MiB baseline trips (tolerance 30%).
        compare_leaf(
            "metrics.gauges.alloc.peak_live_bytes",
            &json!(52428800.0),
            &json!(78643200.0),
            &tol,
            &mut r,
        );
        assert!(r.regressed());
        // Speedup: falling from 2.5x to 1.2x trips; rising never does.
        let mut s = DiffResult::default();
        compare_leaf("matmul.speedup", &json!(2.5), &json!(1.2), &tol, &mut s);
        assert!(s.regressed());
        let mut s2 = DiffResult::default();
        compare_leaf("matmul.speedup", &json!(2.5), &json!(3.5), &tol, &mut s2);
        assert!(!s2.regressed());
    }

    #[test]
    fn quantile_class_gates_per_quantile() {
        let tol = Tolerances::default();
        assert_eq!(classify("latency.pipeline.shard.p99_ms"), Class::Quantile);
        assert_eq!(
            classify("series.latency.models.train.batch.p999_ms"),
            Class::Quantile
        );
        // Bare quantile names (no `_ms` unit) keep the Time class.
        assert_eq!(classify("bench.dist.p99"), Class::Time);

        // p50 drift beyond 15% trips…
        let mut r = DiffResult::default();
        compare_leaf("latency.x.p50_ms", &json!(10.0), &json!(12.0), &tol, &mut r);
        assert!(r.regressed());
        // …while the same +20% on p999 sits inside its 40% band.
        let mut r2 = DiffResult::default();
        compare_leaf(
            "latency.x.p999_ms",
            &json!(10.0),
            &json!(12.0),
            &tol,
            &mut r2,
        );
        assert!(!r2.regressed(), "findings: {:?}", r2.findings);
        // Sub-floor quantiles are noise on both sides.
        let mut r3 = DiffResult::default();
        compare_leaf("latency.x.p99_ms", &json!(0.2), &json!(0.9), &tol, &mut r3);
        assert!(!r3.regressed());
    }

    #[test]
    fn config_time_leaves_gate_as_time_not_quality() {
        // Config echoes are exact replication invariants…
        assert_eq!(classify("config.qps"), Class::Quality);
        assert_eq!(classify("config.models.0.accuracy"), Class::Quality);
        // …except wall-clock leaves inside them, which can never repeat
        // exactly across runs and take the ratio gate instead.
        assert_eq!(classify("config.models.0.elapsed_ms"), Class::Time);
        assert_eq!(classify("tables.table4.fit_secs"), Class::Time);

        let tol = Tolerances::default();
        // A faster candidate fit passes…
        let mut ok = DiffResult::default();
        compare_leaf(
            "config.models.1.elapsed_ms",
            &json!(5500.0),
            &json!(4700.0),
            &tol,
            &mut ok,
        );
        assert!(!ok.regressed(), "findings: {:?}", ok.findings);
        // …a 2x slower one still trips.
        let mut bad = DiffResult::default();
        compare_leaf(
            "config.models.1.elapsed_ms",
            &json!(5500.0),
            &json!(11000.0),
            &tol,
            &mut bad,
        );
        assert!(bad.regressed());
    }

    #[test]
    fn injector_inflates_a_tail_quantile() {
        let tol = Tolerances::default();
        let base = json!({
            "series": json!({
                "latency": json!({
                    "pipeline.shard": json!({
                        "count": 16, "p50_ms": 3.0, "p90_ms": 4.0,
                        "p99_ms": 4.5, "p999_ms": 4.5
                    })
                })
            })
        });
        let (cand, inj) = inject_regressions(&base, &tol);
        let qpath = inj.quantile_path.expect("tail quantile injected");
        assert!(qpath.ends_with("p99_ms") || qpath.ends_with("p999_ms"));
        let d = diff_reports(&base, &cand, &tol);
        assert!(d
            .findings
            .iter()
            .any(|f| f.class == Class::Quantile && f.regression && f.path == qpath));
    }

    #[test]
    fn throughput_rates_gate_as_speedup() {
        assert_eq!(
            classify("series.stages.pipeline.shards.items_per_s"),
            Class::Speedup
        );
        assert_eq!(
            classify("series.stages.pipeline.shards.bytes_per_s"),
            Class::Speedup
        );
        let tol = Tolerances::default();
        let mut r = DiffResult::default();
        compare_leaf(
            "series.stages.s.items_per_s",
            &json!(1000.0),
            &json!(500.0),
            &tol,
            &mut r,
        );
        assert!(r.regressed());
    }

    #[test]
    fn slo_and_exemplar_paths_classify_for_the_gate() {
        // Burn counts and degradation verdicts are replication-exact:
        // a clean baseline must stay clean.
        assert_eq!(classify("series.slo.burn_events"), Class::Quality);
        assert_eq!(classify("series.slo.degraded"), Class::Quality);
        assert_eq!(classify("series.health.status"), Class::Quality);
        assert_eq!(classify("slo.burn_events"), Class::Quality);
        // The SLO *target* is a wall-clock-shaped constant: ratio-gated,
        // never confused with a measured p99 quantile.
        assert_eq!(classify("series.slo.target_p99_ms"), Class::Time);
        // Exemplar contents are run-dependent and skipped wholesale.
        assert_eq!(classify("series.exemplars.0.total_ms"), Class::Skip);
        assert_eq!(classify("exemplars.2.stages.score_ms"), Class::Skip);
        // Tagged histogram families keep their tags inside one path
        // segment, so suffix classification still lands.
        assert_eq!(
            classify("series.latency.serve.request|gbdt|Indicator.p99_ms"),
            Class::Quantile
        );
        assert_eq!(
            classify("series.latency.serve.request|gbdt|Indicator.count"),
            Class::Quality
        );

        // A candidate whose burn count drifts from the clean baseline
        // regresses even though both are "just counters".
        let base = json!({"series": json!({"slo": json!({"burn_events": 0, "degraded": false})})});
        let cand = json!({"series": json!({"slo": json!({"burn_events": 3, "degraded": true})})});
        let d = diff_reports(&base, &cand, &Tolerances::default());
        assert!(d.regressed());
        assert_eq!(
            d.findings.iter().filter(|f| f.regression).count(),
            2,
            "findings: {:?}",
            d.findings
        );
    }

    #[test]
    fn missing_key_detail_names_the_baseline_value() {
        let base = report();
        let mut cand = base.clone();
        if let Value::Object(m) = &mut cand {
            m.remove("kappa");
        }
        let d = diff_reports(&base, &cand, &Tolerances::default());
        let f = d
            .findings
            .iter()
            .find(|f| f.path == "kappa")
            .expect("missing-key finding");
        assert!(
            f.detail.contains("0.7206"),
            "detail must carry the baseline value: {}",
            f.detail
        );
    }

    #[test]
    fn check_time_false_disables_only_timing() {
        let base = report();
        let tol = Tolerances {
            check_time: false,
            ..Tolerances::default()
        };
        let (slow, _) = inject_regressions(&base, &Tolerances::default());
        // The injector also perturbs a quality leaf, so strip that out by
        // diffing a pure-time perturbation.
        let mut r = DiffResult::default();
        compare_leaf("elapsed_ms", &json!(812.5), &json!(5000.0), &tol, &mut r);
        assert!(!r.regressed());
        let d = diff_reports(&base, &slow, &tol);
        // Quality drift still trips with timing off.
        assert!(d.regressed());
        assert!(d
            .findings
            .iter()
            .all(|f| f.class != Class::Time || !f.regression));
    }
}
