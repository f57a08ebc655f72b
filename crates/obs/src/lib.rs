//! `rsd-obs` — workspace-wide telemetry for the RSD-15K reproduction.
//!
//! Five pieces, all opt-in at runtime:
//!
//! - a global thread-safe [`Registry`] (counters, gauges, stage totals
//!   and stall-watchdog flags, and a hierarchical span **tree** keyed by
//!   collapsed-stack paths, from which per-label span aggregates are
//!   folded on read);
//! - RAII [`Span`] timers (`Span::enter("annotation.campaign.day")`)
//!   that maintain a per-thread stack and fold wall-clock, self-time,
//!   and allocation deltas into the tree, streaming NDJSON records to
//!   the active sink — the one per-event record of a run;
//! - an opt-in counting allocator ([`alloc::CountingAlloc`]) feeding
//!   bytes-allocated/peak-live gauges and per-span memory attribution;
//! - [`RunReport`], the final JSON artifact bench binaries write to
//!   `bench_runs/<scale>/<bin>.report.json`;
//! - renderers that turn those artifacts into viewer formats after the
//!   run: a report's tree into a flamegraph-compatible folded profile
//!   ([`render_folded`]) and an NDJSON stream into a Chrome trace
//!   ([`trace_export`]), both behind `obs_top --render`;
//! - a report differ ([`diff`]) behind the `obs_diff` bench bin that
//!   gates CI on time/memory/quality regressions between runs.
//!
//! Latency distributions have one home: the sharded HDR histograms in
//! [`hist`], fed while the continuous layer is armed.
//!
//! On top of these, the serving tier gets request-scoped observability:
//! [`reqctx::ReqCtx`] trace contexts with per-stage latency breakdowns
//! recorded into tagged histogram families ([`hist::observe_tagged`]),
//! an [`exemplar`] reservoir of the slowest requests, an [`slo`]
//! burn-rate monitor over the request histograms, and a std-only live
//! introspection endpoint ([`http`], `RSD_OBS_HTTP=<port>`) serving
//! `/metrics`, `/health`, and `/snapshot`.
//!
//! The sink is selected by `RSD_OBS`: `off`/unset is the default —
//! every entry point is a single atomic load and branch, no allocation
//! or lock; `stderr`; or a file path receiving the NDJSON stream.
//! `RSD_OBS_TICK_MS` and `RSD_OBS_HTTP` turn the registry on as well,
//! keeping any `RSD_OBS` sink. Telemetry never writes to stdout, so
//! table output stays byte-identical whether or not it is enabled.

pub mod alloc;
pub mod diff;
pub mod exemplar;
pub mod hist;
pub mod http;
pub mod knob;
mod registry;
mod report;
pub mod reqctx;
pub mod ring;
mod sink;
pub mod slo;
mod span;
pub mod timeseries;
pub mod trace_export;
mod tree;

pub use registry::{Registry, SpanStat, TreeStat};
pub use report::{run_meta, RunReport};
pub use reqctx::{ReqCtx, Stage};
pub use span::{current_context, with_context, Span, SpanContext};
pub use tree::render_folded;

/// Re-exported so instrumented crates can build tagged records without
/// depending on `serde_json` themselves.
pub use serde_json::{Map, Value};

use parking_lot::Mutex;
use sink::Sink;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Tri-state enable flag: 0 = not yet resolved from the environment,
/// 1 = disabled, 2 = enabled. Everything hot checks this first.
static FLAG: AtomicU8 = AtomicU8::new(0);
const FLAG_UNKNOWN: u8 = 0;
const FLAG_OFF: u8 = 1;
const FLAG_ON: u8 = 2;

struct Global {
    registry: Registry,
    sink: Mutex<Sink>,
    epoch: Instant,
}

static GLOBAL: OnceLock<Global> = OnceLock::new();

/// Human-readable description of the mode that actually won
/// initialization (explicit [`init`] calls can differ from the
/// environment), surfaced as `meta.obs_mode` in run reports.
static MODE_DESC: OnceLock<String> = OnceLock::new();

/// The latched mode as a string: `off`, `silent`, `stderr`, or
/// `file:<path>`. Resolves from the environment if nothing initialized
/// telemetry yet.
pub fn mode_desc() -> String {
    if FLAG.load(Ordering::Acquire) == FLAG_UNKNOWN {
        enabled();
    }
    MODE_DESC
        .get()
        .cloned()
        .unwrap_or_else(|| "off".to_string())
}

/// Sink destination requested at init time.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Registry off, sink off — the zero-overhead default.
    Off,
    /// Registry on, sink off: spans/counters/trees aggregate in memory
    /// (for report metrics) without any NDJSON stream. Never read from
    /// the environment: chosen by an explicit [`init`], and taken by the
    /// continuous layer ([`timeseries`], [`http`]) when `RSD_OBS` is off.
    Silent,
    /// NDJSON records to stderr.
    Stderr,
    /// NDJSON records appended to a file (created/truncated at init).
    File(PathBuf),
}

impl Mode {
    /// Parse the `RSD_OBS` convention: `off`/empty → [`Mode::Off`],
    /// `stderr` → [`Mode::Stderr`], anything else is a file path.
    pub fn from_env() -> Mode {
        match knob::OBS.get::<Option<String>>() {
            Some(v) if v == "stderr" => Mode::Stderr,
            Some(path) => Mode::File(PathBuf::from(path)),
            None => Mode::Off,
        }
    }
}

fn global() -> &'static Global {
    GLOBAL.get_or_init(|| Global {
        registry: Registry::new(),
        sink: Mutex::new(Sink::Off),
        epoch: Instant::now(),
    })
}

/// Initialize telemetry with an explicit mode. The first initialization
/// (explicit or lazy via [`enabled`]) wins; later calls are no-ops.
/// Returns whether telemetry ended up enabled.
pub fn init(mode: Mode) -> bool {
    latch(mode, true)
}

/// [`init`], arming allocation counting with the registry only when
/// `count_allocs` asks for it.
fn latch(mode: Mode, count_allocs: bool) -> bool {
    if FLAG.load(Ordering::Acquire) != FLAG_UNKNOWN {
        return enabled();
    }
    let g = global();
    let (flag, desc) = {
        let mut sink = g.sink.lock();
        // Respect a sink some racing initializer installed first.
        if sink.is_active() {
            (FLAG_ON, "on".to_string())
        } else {
            match mode {
                Mode::Off => (FLAG_OFF, "off".to_string()),
                // Registry on, sink stays Sink::Off: spans aggregate but
                // nothing streams.
                Mode::Silent => (FLAG_ON, "silent".to_string()),
                Mode::Stderr => {
                    *sink = Sink::Stderr;
                    (FLAG_ON, "stderr".to_string())
                }
                Mode::File(path) => match std::fs::File::create(&path) {
                    Ok(f) => {
                        *sink = Sink::File(std::io::BufWriter::new(f));
                        (FLAG_ON, format!("file:{}", path.display()))
                    }
                    Err(e) => {
                        eprintln!(
                            "rsd-obs: cannot open RSD_OBS sink {}: {e}; telemetry disabled",
                            path.display()
                        );
                        (FLAG_OFF, "off".to_string())
                    }
                },
            }
        }
    };
    let _ = MODE_DESC.set(desc);
    // Arm allocation counting together with the rest of telemetry, so an
    // installed CountingAlloc stays free when RSD_OBS is off.
    alloc::set_counting(count_allocs && flag == FLAG_ON);
    FLAG.store(flag, Ordering::Release);
    flag == FLAG_ON
}

/// Whether telemetry is on. The hot path for every instrumented site:
/// once resolved this is a single atomic load plus branch.
#[inline]
pub fn enabled() -> bool {
    match FLAG.load(Ordering::Acquire) {
        FLAG_OFF => false,
        FLAG_ON => true,
        _ => init(Mode::from_env()),
    }
}

/// The global registry (created on first use).
pub fn registry() -> &'static Registry {
    &global().registry
}

/// Force the registry on, even if telemetry already latched off. Used
/// by the continuous-telemetry driver ([`timeseries::start`]) and the
/// live endpoint ([`http::start`]): `RSD_OBS_TICK_MS` must produce span
/// and stage data even when `RSD_OBS` is unset. The environment is
/// resolved first, so an `RSD_OBS` sink still opens; without one the
/// registry runs [`Mode::Silent`].
pub(crate) fn ensure_registry() {
    let on = match FLAG.load(Ordering::Acquire) {
        // Deliberately NOT arming alloc counting for a silent registry:
        // counting every allocation costs ~25% wall-clock on
        // allocation-heavy builds, while the continuous layer must stay
        // within a few percent of telemetry-off. Allocation gauges appear
        // in series snapshots only when an explicit `RSD_OBS` mode armed
        // the counter (or a test armed it directly); the `alloc` section
        // is conditional on `alloc::active()` either way.
        FLAG_UNKNOWN => match Mode::from_env() {
            Mode::Off => latch(Mode::Silent, false),
            mode => init(mode),
        },
        flag => flag == FLAG_ON,
    };
    if !on {
        FLAG.store(FLAG_ON, Ordering::Release);
    }
}

/// Monotonic ordinal source for [`thread_ord`].
static NEXT_THREAD_ORD: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

thread_local! {
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

/// A small stable ordinal for the calling thread (0 for whichever thread
/// touches telemetry first, usually main). Every NDJSON record carries it
/// as the `thread` field so spans emitted from pool workers are
/// attributable to a specific thread.
pub fn thread_ord() -> u64 {
    THREAD_ORD.with(|t| *t)
}

/// Serialize one NDJSON record to the active sink.
fn emit_record(kind: &str, label: &str, fields: &[(&'static str, Value)]) {
    let Some(g) = GLOBAL.get() else {
        return;
    };
    let thread = thread_ord();
    let mut sink = g.sink.lock();
    if !sink.is_active() {
        return;
    }
    let mut m = Map::new();
    m.insert("ts_ms", Value::Float(g.epoch.elapsed().as_secs_f64() * 1e3));
    m.insert("kind", Value::String(kind.to_string()));
    m.insert("label", Value::String(label.to_string()));
    m.insert("thread", Value::Int(i128::from(thread)));
    for (k, v) in fields {
        m.insert(*k, v.clone());
    }
    sink.write_line(&Value::Object(m).to_json());
}

/// Add to a counter. Counters aggregate silently (they surface in
/// [`snapshot`] and run reports, not as per-increment NDJSON lines).
pub fn counter_add(label: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    registry().counter_add(label, n);
}

/// Report progress for a pipeline stage: `items` records and `bytes`
/// processed since the last call. Aggregates into the registry's stage
/// totals, which the time-series driver turns into windowed
/// `items_per_s` / `bytes_per_s` rates.
pub fn stage_progress(label: &'static str, items: u64, bytes: u64) {
    if !enabled() {
        return;
    }
    registry().stage_add(label, items, bytes);
}

/// Register a stage with the stall watchdog: while registered (and not
/// yet finished), the time-series driver emits a `stall` event if the
/// stage reports no progress for 10 consecutive ticks.
pub fn stage_register(label: &'static str) {
    if !enabled() {
        return;
    }
    registry().watch(label, true);
}

/// Mark a registered stage as finished (leaves the stall watchdog).
pub fn stage_finish(label: &'static str) {
    if !enabled() {
        return;
    }
    registry().watch(label, false);
}

/// Record a latency observation (nanoseconds) into the sharded HDR
/// histogram registry. Only active while the continuous layer is armed,
/// so hot paths pay one atomic load otherwise.
pub fn latency_ns(label: &'static str, ns: u64) {
    if !ring::armed() {
        return;
    }
    hist::observe_ns(label, ns);
}

/// Set a gauge and emit a `gauge` NDJSON record.
pub fn gauge(label: &'static str, value: f64) {
    gauge_tagged(label, value, &[]);
}

/// [`gauge`] with extra record fields (e.g. the epoch a training-loss
/// gauge belongs to).
pub fn gauge_tagged(label: &'static str, value: f64, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    registry().gauge_set(label, value);
    let mut all = Vec::with_capacity(fields.len() + 1);
    all.push(("value", Value::Float(value)));
    all.extend_from_slice(fields);
    emit_record("gauge", label, &all);
}

/// Emit a free-form `event` NDJSON record.
pub fn event(label: &'static str, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    emit_record("event", label, fields);
}

/// Measurement a dropping [`Span`] guard hands to the registry and sink.
pub(crate) struct SpanRecord {
    pub label: &'static str,
    /// Innermost enclosing span label, if any (includes phantom context
    /// frames installed by [`with_context`]).
    pub parent: Option<&'static str>,
    /// Full `;`-joined label stack, collapsed-stack style.
    pub path: String,
    pub elapsed: Duration,
    /// Wall-clock not attributed to child spans.
    pub self_ns: u64,
    pub depth: u32,
    /// Bytes allocated while the span was open (0 without a counting
    /// allocator).
    pub alloc_total: u64,
    /// Allocation not attributed to child spans.
    pub alloc_self: u64,
}

/// Called by [`Span`] guards on drop.
pub(crate) fn finish_span(rec: SpanRecord) {
    let g = global();
    let dur_ns = rec.elapsed.as_nanos() as u64;
    if ring::armed() {
        hist::observe_ns(rec.label, dur_ns);
    }
    g.registry.record_tree(
        &rec.path,
        dur_ns,
        rec.self_ns,
        rec.alloc_total,
        rec.alloc_self,
    );
    let mut fields = vec![
        ("ms", Value::Float(rec.elapsed.as_secs_f64() * 1e3)),
        ("self_ms", Value::Float(rec.self_ns as f64 / 1e6)),
        ("depth", Value::Int(i128::from(rec.depth))),
    ];
    if let Some(parent) = rec.parent {
        fields.push(("parent", Value::String(parent.to_string())));
    }
    if alloc::active() {
        fields.push(("alloc_bytes", Value::Int(i128::from(rec.alloc_total))));
    }
    emit_record("span", rec.label, &fields);
}

/// Snapshot the global registry as JSON.
pub fn snapshot() -> Value {
    match GLOBAL.get() {
        Some(g) => g.registry.snapshot(),
        None => Registry::new().snapshot(),
    }
}

/// Flush the sink (file sinks buffer). Bench binaries call this before
/// exiting.
pub fn flush() {
    if let Some(g) = GLOBAL.get() {
        g.sink.lock().flush();
    }
}

/// Serializes [`capture`] blocks so concurrent tests don't interleave
/// their event streams.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// Test harness: run `f` with telemetry forced on and the sink swapped
/// to an in-memory buffer, then return the parsed NDJSON records. The
/// global registry is reset on entry so assertions see only `f`'s
/// activity. Captures are serialized process-wide.
pub fn capture<F: FnOnce()>(f: F) -> Vec<Value> {
    let _guard = CAPTURE_LOCK.lock();
    let g = global();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let prev_flag = FLAG.swap(FLAG_ON, Ordering::AcqRel);
    let prev_sink = std::mem::replace(&mut *g.sink.lock(), Sink::Memory(Arc::clone(&buf)));
    g.registry.reset();
    hist::reset();
    exemplar::reset();

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));

    *g.sink.lock() = prev_sink;
    FLAG.store(
        if prev_flag == FLAG_UNKNOWN {
            FLAG_UNKNOWN
        } else {
            prev_flag
        },
        Ordering::Release,
    );
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }

    let bytes = buf.lock().clone();
    String::from_utf8(bytes)
        .expect("NDJSON sink produced invalid UTF-8")
        .lines()
        .map(|line| {
            serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("unparseable NDJSON line {line:?}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn counters_and_gauges_are_exact_under_contention() {
        let reg = StdArc::new(Registry::new());
        let threads: u32 = 8;
        let per_thread: u32 = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = StdArc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        reg.counter_add("contended", 1);
                        reg.gauge_set("last", f64::from(t * per_thread + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("contended"), u64::from(threads * per_thread));
        assert!(reg.gauge("last").is_some());
    }

    #[test]
    fn span_nesting_aggregates_depth_and_counts() {
        let events = capture(|| {
            let _outer = Span::enter("nest.outer");
            for _ in 0..3 {
                let _inner = Span::enter("nest.inner");
                let _leaf = Span::enter("nest.leaf");
            }
            let outer_stat_missing = registry().span_stat("nest.outer").is_none();
            assert!(outer_stat_missing, "outer span must still be open here");
        });
        let outer = registry().span_stat("nest.outer");
        // The registry was reset by any later capture; read from events
        // instead, which are immune to cross-test interleaving.
        let spans: Vec<_> = events.iter().filter(|e| e["kind"] == "span").collect();
        let count_label = |label: &str| spans.iter().filter(|e| e["label"] == label).count();
        assert_eq!(count_label("nest.outer"), 1);
        assert_eq!(count_label("nest.inner"), 3);
        assert_eq!(count_label("nest.leaf"), 3);
        let depth_of = |label: &str| {
            spans
                .iter()
                .find(|e| e["label"] == label)
                .map(|e| e["depth"].as_i64().unwrap())
                .unwrap()
        };
        assert_eq!(depth_of("nest.outer"), 0);
        assert_eq!(depth_of("nest.inner"), 1);
        assert_eq!(depth_of("nest.leaf"), 2);
        // Aggregate view still holds if no other capture ran since.
        if let Some(stat) = outer {
            assert_eq!(stat.count, 1);
            assert_eq!(stat.max_depth, 0);
        }
    }

    #[test]
    fn span_tree_attributes_self_and_child_time() {
        capture(|| {
            {
                let _outer = Span::enter("tree.outer");
                for _ in 0..2 {
                    let _inner = Span::enter("tree.inner");
                    std::hint::black_box((0..20_000).sum::<u64>());
                }
                std::hint::black_box((0..20_000).sum::<u64>());
            }
            let outer = registry().tree_stat("tree.outer").expect("outer path");
            let inner = registry()
                .tree_stat("tree.outer;tree.inner")
                .expect("inner path keyed under parent");
            assert_eq!(outer.count, 1);
            assert_eq!(inner.count, 2);
            // Self-time excludes children: outer.self + inner.total
            // reassembles outer.total (inner spans are the only children).
            assert!(outer.self_ns <= outer.total_ns);
            let reassembled = outer.self_ns + inner.total_ns;
            let drift = reassembled.abs_diff(outer.total_ns);
            assert!(
                drift < outer.total_ns / 2 + 1_000_000,
                "self+child ({reassembled}) should approximate total ({})",
                outer.total_ns
            );
            // The same label at top level would be a different path.
            assert!(registry().tree_stat("tree.inner").is_none());
        });
    }

    #[test]
    fn span_record_carries_parent_and_self_ms() {
        let events = capture(|| {
            let _a = Span::enter("edge.parent");
            let _b = Span::enter("edge.child");
        });
        let child = events
            .iter()
            .find(|e| e["label"] == "edge.child")
            .expect("child span record");
        assert_eq!(child["parent"], "edge.parent");
        assert!(child["self_ms"].as_f64().unwrap() <= child["ms"].as_f64().unwrap() + 1e-9);
        let parent = events
            .iter()
            .find(|e| e["label"] == "edge.parent")
            .expect("parent span record");
        assert!(parent["parent"].is_null());
    }

    #[test]
    fn panicking_span_unwinds_stack_cleanly() {
        capture(|| {
            let result = std::panic::catch_unwind(|| {
                let _outer = Span::enter("panic.outer");
                let _inner = Span::enter("panic.inner");
                panic!("stage exploded");
            });
            assert!(result.is_err());
            // Both guards dropped during unwinding, so a fresh span sits
            // at depth 0 with an unprefixed tree path.
            let after = Span::enter("panic.after");
            assert_eq!(after.depth(), Some(0));
            drop(after);
            assert!(registry().tree_stat("panic.after").is_some());
            assert!(registry().tree_stat("panic.outer;panic.inner").is_some());
        });
    }

    #[test]
    fn context_propagation_parents_cross_thread_spans() {
        capture(|| {
            let ctx = {
                let _submit = Span::enter("ctx.submit");
                current_context()
            };
            assert!(!ctx.is_empty());
            // Simulate a pool worker replaying the submitter's stack.
            std::thread::scope(|s| {
                s.spawn(|| {
                    with_context(&ctx, || {
                        let worker = Span::enter("ctx.work");
                        assert_eq!(worker.depth(), Some(1));
                    });
                    // Phantom frames are gone after the scope.
                    let free = Span::enter("ctx.free");
                    assert_eq!(free.depth(), Some(0));
                })
                .join()
                .unwrap();
            });
            assert!(registry().tree_stat("ctx.submit;ctx.work").is_some());
            // Phantom frames record no timing of their own: only the real
            // submit span contributed to that path.
            assert_eq!(registry().tree_stat("ctx.submit").unwrap().count, 1);
        });
    }

    #[test]
    fn span_aggregates_are_folds_over_tree_paths() {
        // (label, span count, max depth): a label nested under itself, a
        // worker span under `with_context`, and one label on two paths.
        let expected = [
            ("fold.a", 2, 1),
            ("fold.b", 1, 0),
            ("fold.leaf", 2, 2),
            ("fold.worker", 1, 1),
        ];
        let events = capture(|| {
            {
                let _a = Span::enter("fold.a");
                let _again = Span::enter("fold.a");
                let _leaf = Span::enter("fold.leaf");
            }
            {
                let _b = Span::enter("fold.b");
                let ctx = current_context();
                std::thread::scope(|s| {
                    s.spawn(|| with_context(&ctx, || drop(Span::enter("fold.worker"))));
                });
                let _leaf = Span::enter("fold.leaf");
            }
            let tree = registry().tree();
            let spans = snapshot()["spans"].clone();
            for (label, count, depth) in expected {
                let sums = tree
                    .iter()
                    .filter(|(p, _)| p.rsplit(';').next() == Some(label))
                    .fold((0, 0, 0, 0), |acc, (p, t)| {
                        let d = p.matches(';').count() as u32;
                        (
                            acc.0 + t.count,
                            acc.1 + t.total_ns,
                            acc.2.max(t.max_ns),
                            acc.3.max(d),
                        )
                    });
                let stat = registry().span_stat(label).expect(label);
                assert_eq!(
                    (stat.count, stat.total_ns, stat.max_ns, stat.max_depth),
                    sums
                );
                assert_eq!((stat.count, stat.max_depth), (count, depth), "{label}");
                assert_eq!(spans[label]["count"], stat.count);
                assert_eq!(spans[label]["total_ms"], stat.total_ns as f64 / 1e6);
                assert_eq!(spans[label]["max_ms"], stat.max_ns as f64 / 1e6);
                assert_eq!(spans[label]["max_depth"], stat.max_depth);
            }
            assert!(registry().span_stat("fold.absent").is_none());
        });
        // The derived depth is the one each span recorded on drop.
        for (label, _, depth) in expected {
            let recorded = events
                .iter()
                .filter(|e| e["kind"] == "span" && e["label"] == label)
                .map(|e| e["depth"].as_i64().unwrap())
                .max();
            assert_eq!(recorded, Some(i64::from(depth)), "{label}");
        }
    }

    #[test]
    fn ndjson_sink_round_trips_schema() {
        let events = capture(|| {
            counter_add("rt.counter", 7);
            gauge_tagged("rt.gauge", 1.5, &[("epoch", Value::Int(3))]);
            event(
                "rt.event",
                &[("items", Value::Int(42)), ("ok", Value::Bool(true))],
            );
            let _s = Span::enter("rt.span");
        });
        assert!(!events.is_empty());
        for e in &events {
            assert!(e["ts_ms"].as_f64().is_some(), "ts_ms missing in {e}");
            assert!(e["kind"].as_str().is_some(), "kind missing in {e}");
            assert!(e["label"].as_str().is_some(), "label missing in {e}");
            assert!(e["thread"].as_i64().is_some(), "thread missing in {e}");
        }
        // Everything in this capture ran on one thread, so the ordinal is
        // constant across records.
        let ords: std::collections::BTreeSet<i64> = events
            .iter()
            .map(|e| e["thread"].as_i64().unwrap())
            .collect();
        assert_eq!(ords.len(), 1);
        assert_eq!(*ords.iter().next().unwrap() as u64, thread_ord());
        let gauge_rec = events
            .iter()
            .find(|e| e["label"] == "rt.gauge")
            .expect("gauge record present");
        assert_eq!(gauge_rec["kind"], "gauge");
        assert_eq!(gauge_rec["value"], 1.5f64);
        assert_eq!(gauge_rec["epoch"], 3u32);
        let event_rec = events
            .iter()
            .find(|e| e["label"] == "rt.event")
            .expect("event record present");
        assert_eq!(event_rec["items"], 42u32);
        assert_eq!(event_rec["ok"], true);
        let span_rec = events
            .iter()
            .find(|e| e["label"] == "rt.span")
            .expect("span record present");
        assert!(span_rec["ms"].as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn capture_resets_registry_between_uses() {
        capture(|| counter_add("reset.probe", 5));
        let events = capture(|| {
            assert_eq!(registry().counter("reset.probe"), 0);
            counter_add("reset.probe", 2);
        });
        // Counters don't stream records; the capture itself must be clean.
        assert!(events.iter().all(|e| e["kind"] != "counter"));
    }

    #[test]
    fn run_report_embeds_metrics_snapshot() {
        capture(|| {
            counter_add("report.widgets", 11);
            let mut report = RunReport::new("unit_test", "small", 2026);
            report.set("models", Value::Int(4));
            let v = report.to_value();
            assert_eq!(v["bin"], "unit_test");
            assert_eq!(v["scale"], "small");
            assert_eq!(v["seed"], 2026u64);
            assert!(v["elapsed_ms"].as_f64().unwrap() >= 0.0);
            assert_eq!(v["config"]["models"], 4u32);
            assert_eq!(v["metrics"]["counters"]["report.widgets"], 11u32);
        });
    }
}
