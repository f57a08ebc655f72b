//! Log-linear ("HDR-style") latency histograms with mergeable shards.
//!
//! [`HdrHist`] records `u64` nanosecond values into log-linear buckets:
//! values below 32 are exact; every octave `[2^e, 2^(e+1))` above that is
//! split into 32 linear sub-buckets. Quantile estimates use the bucket
//! midpoint, so the **documented error bound** is a relative error of at
//! most `1/64` (≈1.6%) for any value ≥ 32 ns, and zero below. Merging is
//! exact bucket-count addition, so merging per-worker shards in *any
//! order* yields bit-identical quantiles to single-shard recording — the
//! property the shard-merge proptests pin.
//!
//! The global registry keeps one shard map per thread-ordinal stripe:
//! [`observe_ns`] locks only the calling thread's stripe (uncontended in
//! steady state — `rsd-par` worker ordinals are stable), and
//! [`merged`] folds all stripes into one `HdrHist` per label for
//! snapshots and reports.

use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Sub-bucket bits per octave: 32 linear sub-buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Buckets: 32 exact low values + 32 sub-buckets for each octave
/// `e = 5..=63`.
const N_BUCKETS: usize = (SUB_COUNT as usize) * (64 - SUB_BITS as usize + 1);

/// Maximum relative quantile error for values ≥ 32 (midpoint of a
/// 1/32-wide sub-bucket): `1/64`.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 64.0;

/// A mergeable log-linear histogram over `u64` values (nanoseconds by
/// convention).
#[derive(Debug, Clone)]
pub struct HdrHist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for HdrHist {
    fn default() -> HdrHist {
        HdrHist {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HdrHist {
    /// Fresh empty histogram.
    pub fn new() -> HdrHist {
        HdrHist::default()
    }

    /// Bucket index for a value.
    fn bucket(value: u64) -> usize {
        if value < SUB_COUNT {
            return value as usize;
        }
        let e = 63 - value.leading_zeros(); // e >= SUB_BITS
        let sub = (value >> (e - SUB_BITS)) - SUB_COUNT;
        ((e - SUB_BITS + 1) as u64 * SUB_COUNT + sub) as usize
    }

    /// Representative (midpoint) value for a bucket index.
    fn bucket_mid(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_COUNT {
            return idx;
        }
        let e = idx / SUB_COUNT - 1 + u64::from(SUB_BITS);
        let sub = idx % SUB_COUNT;
        let low = (SUB_COUNT + sub) << (e - u64::from(SUB_BITS));
        let width = 1u64 << (e - u64::from(SUB_BITS));
        low + width / 2
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold another histogram into this one. Exact: bucket counts add,
    /// so quantiles after merging are independent of merge order.
    pub fn merge(&mut self, other: &HdrHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by cumulative walk,
    /// clamped to the observed `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_mid(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Summary as a JSON object with millisecond quantiles
    /// (`count`, `sum_ms`, `min_ms`, `max_ms`, `mean_ms`, `p50_ms`,
    /// `p90_ms`, `p99_ms`, `p999_ms`).
    fn summary_ms(&self) -> Value {
        let ms = |ns: u64| Value::Float(ns as f64 / 1e6);
        let mut m = Map::new();
        m.insert("count", Value::Int(self.count as i128));
        m.insert("sum_ms", Value::Float(self.sum as f64 / 1e6));
        if self.count > 0 {
            m.insert("min_ms", ms(self.min));
            m.insert("max_ms", ms(self.max));
            m.insert(
                "mean_ms",
                Value::Float(self.sum as f64 / 1e6 / self.count as f64),
            );
            for (name, q) in [
                ("p50_ms", 0.5),
                ("p90_ms", 0.9),
                ("p99_ms", 0.99),
                ("p999_ms", 0.999),
            ] {
                if let Some(v) = self.quantile(q) {
                    m.insert(name, ms(v));
                }
            }
        }
        Value::Object(m)
    }

    /// Number of recorded values strictly above `threshold`, at bucket
    /// granularity: a bucket counts as "over" when its midpoint exceeds
    /// the threshold. The SLO burn-rate monitor consumes this, so its
    /// breach counting inherits the documented `1/64` bucket error.
    pub fn count_over(&self, threshold: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(idx, _)| Self::bucket_mid(idx) > threshold)
            .map(|(_, &c)| c)
            .sum()
    }
}

/// Thread-ordinal stripes for the global registry. 16 stripes keeps the
/// per-stripe mutexes effectively uncontended at the 64-thread pool cap.
const N_STRIPES: usize = 16;

/// One thread-ordinal stripe of a histogram registry keyed by `K`.
type Stripe<K> = Mutex<BTreeMap<K, HdrHist>>;

fn stripes() -> &'static [Stripe<&'static str>; N_STRIPES] {
    static STRIPES: OnceLock<[Stripe<&'static str>; N_STRIPES]> = OnceLock::new();
    STRIPES.get_or_init(|| std::array::from_fn(|_| Mutex::new(BTreeMap::new())))
}

/// Key of one tagged histogram family: a base label refined by the
/// scoring-backend and risk-level tags a [`crate::reqctx::ReqCtx`]
/// carries. All components are `&'static str` so recording stays
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TagKey {
    /// Base family label (e.g. `serve.request`).
    pub label: &'static str,
    /// Scoring-backend tag (`ServeModel::name()`).
    pub backend: &'static str,
    /// Risk-level tag (`RiskLevel::name()`, or `unscored`).
    pub level: &'static str,
}

impl TagKey {
    /// Flattened `label|backend|level` name used in JSON snapshots. `|`
    /// keeps the tags inside a single `.`-separated path segment, so
    /// `obs_diff` still classifies the quantile/count leaves by suffix.
    pub fn flat(&self) -> String {
        format!("{}|{}|{}", self.label, self.backend, self.level)
    }
}

fn tag_stripes() -> &'static [Stripe<TagKey>; N_STRIPES] {
    static STRIPES: OnceLock<[Stripe<TagKey>; N_STRIPES]> = OnceLock::new();
    STRIPES.get_or_init(|| std::array::from_fn(|_| Mutex::new(BTreeMap::new())))
}

/// Bumped on every mutation of the stripe registry, so periodic
/// snapshotters (the time-series driver) can skip the merge entirely on
/// ticks where nothing was recorded.
static GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Current mutation generation of the stripe registry.
pub fn generation() -> u64 {
    GENERATION.load(std::sync::atomic::Ordering::Acquire)
}

/// Record `ns` under `key` into the calling thread's stripe. Cheap: one
/// uncontended mutex and a map upsert.
fn record_striped<K: Ord>(stripes: &[Stripe<K>], key: K, ns: u64) {
    let stripe = &stripes[(crate::thread_ord() as usize) % N_STRIPES];
    stripe.lock().entry(key).or_default().record(ns);
    GENERATION.fetch_add(1, std::sync::atomic::Ordering::Release);
}

/// Record a nanosecond latency observation for `label`.
pub fn observe_ns(label: &'static str, ns: u64) {
    record_striped(stripes(), label, ns);
}

/// Record a nanosecond observation into a tagged family (per-backend ×
/// per-level shard of `key.label`).
pub fn observe_tagged(key: TagKey, ns: u64) {
    record_striped(tag_stripes(), key, ns);
}

/// Fold one shard's histograms into an accumulator. This is the
/// commutative merge step the shard-merge proptests pin: folding worker
/// shards in any order yields bit-identical histograms.
fn merge_into<K: Ord + Copy>(out: &mut BTreeMap<K, HdrHist>, shard: &BTreeMap<K, HdrHist>) {
    for (key, hist) in shard {
        out.entry(*key)
            .and_modify(|h| h.merge(hist))
            .or_insert_with(|| hist.clone());
    }
}

fn merge_stripes<K: Ord + Copy>(stripes: &[Stripe<K>]) -> BTreeMap<K, HdrHist> {
    let mut out = BTreeMap::new();
    for stripe in stripes {
        merge_into(&mut out, &stripe.lock());
    }
    out
}

/// Merge every stripe into one histogram per label.
pub fn merged() -> BTreeMap<&'static str, HdrHist> {
    merge_stripes(stripes())
}

/// Merge every stripe into one histogram per tagged family.
pub fn merged_tagged() -> BTreeMap<TagKey, HdrHist> {
    merge_stripes(tag_stripes())
}

/// Cumulative `(total, over_threshold)` observation counts for an
/// untagged label across all stripes — the SLO burn-rate monitor's
/// input. Threshold comparison is at bucket granularity
/// ([`HdrHist::count_over`]).
pub fn count_over(label: &str, threshold_ns: u64) -> (u64, u64) {
    let mut total = 0u64;
    let mut over = 0u64;
    for stripe in stripes().iter() {
        if let Some(hist) = stripe.lock().get(label) {
            total += hist.count();
            over += hist.count_over(threshold_ns);
        }
    }
    (total, over)
}

/// JSON summaries of the merged registry — untagged labels first, then
/// tagged families under their flattened `label|backend|level` names —
/// or `Null` when no latencies were recorded.
pub fn snapshot_value() -> Value {
    let merged = merged();
    let tagged = merged_tagged();
    if merged.is_empty() && tagged.is_empty() {
        return Value::Null;
    }
    let mut m = Map::new();
    for (label, hist) in &merged {
        m.insert(*label, hist.summary_ms());
    }
    for (key, hist) in &tagged {
        m.insert(key.flat(), hist.summary_ms());
    }
    Value::Object(m)
}

/// Drop every recorded latency, tagged families included (test
/// isolation, and the serve bins' post-fit reset).
pub fn reset() {
    for stripe in stripes().iter() {
        stripe.lock().clear();
    }
    for stripe in tag_stripes().iter() {
        stripe.lock().clear();
    }
    GENERATION.fetch_add(1, std::sync::atomic::Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact() {
        let mut h = HdrHist::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(31));
        // Value 10 sits at rank 11/32.
        assert_eq!(h.quantile(11.0 / 32.0), Some(10));
    }

    #[test]
    fn quantile_error_within_documented_bound() {
        let mut h = HdrHist::new();
        let values: Vec<u64> = (0..10_000u64).map(|i| 1_000 + i * 977).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank] as f64;
            let got = h.quantile(q).unwrap() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(
                rel <= MAX_RELATIVE_ERROR,
                "q{q}: got {got}, exact {exact}, rel {rel}"
            );
        }
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let mut all = HdrHist::new();
        let mut shards: Vec<HdrHist> = (0..4).map(|_| HdrHist::new()).collect();
        for i in 0..5_000u64 {
            let v = (i * 7919) % 1_000_000 + 1;
            all.record(v);
            shards[(i % 4) as usize].record(v);
        }
        let mut ab = HdrHist::new();
        for s in &shards {
            ab.merge(s);
        }
        let mut ba = HdrHist::new();
        for s in shards.iter().rev() {
            ba.merge(s);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(ab.quantile(q), all.quantile(q), "q={q}");
            assert_eq!(ba.quantile(q), all.quantile(q), "q={q}");
        }
        assert_eq!(ab.count(), all.count());
        assert_eq!(ab.sum(), all.sum());
    }

    #[test]
    fn bucket_mid_is_monotone_and_in_range() {
        let mut prev = 0u64;
        for idx in 0..N_BUCKETS {
            let mid = HdrHist::bucket_mid(idx);
            assert!(mid >= prev, "idx {idx}: {mid} < {prev}");
            prev = mid;
        }
        for v in [0u64, 1, 31, 32, 33, 1_000, 1 << 20, u64::MAX / 2] {
            let idx = HdrHist::bucket(v);
            let mid = HdrHist::bucket_mid(idx) as f64;
            let rel = (mid - v as f64).abs() / (v as f64).max(1.0);
            assert!(
                rel <= MAX_RELATIVE_ERROR || v < 32,
                "v={v} mid={mid} rel={rel}"
            );
        }
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Merging per-worker shards in ANY order must yield the
            /// same quantiles as recording every value into a single
            /// histogram: merge adds bucket counts, which is exact, so
            /// the merged quantiles are bucket-identical — and both
            /// stay within the documented `MAX_RELATIVE_ERROR` of the
            /// true sample quantile.
            fn sharded_merge_matches_single_recording(
                samples in collection::vec((1u64..5_000_000, 0usize..8), 1..400),
                rotation in 0usize..8,
            ) {
                let n_shards = 8;
                let mut single = HdrHist::new();
                let mut shards: Vec<HdrHist> =
                    (0..n_shards).map(|_| HdrHist::new()).collect();
                for &(value, worker) in &samples {
                    single.record(value);
                    shards[worker % n_shards].record(value);
                }

                // Merge in an arbitrary rotated order.
                let mut merged = HdrHist::new();
                for i in 0..n_shards {
                    merged.merge(&shards[(i + rotation) % n_shards]);
                }

                prop_assert_eq!(merged.count(), single.count());
                prop_assert_eq!(merged.sum(), single.sum());
                let mut sorted: Vec<u64> =
                    samples.iter().map(|&(v, _)| v).collect();
                sorted.sort_unstable();
                for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    let m = merged.quantile(q);
                    prop_assert_eq!(m, single.quantile(q));
                    // Both stay within the documented bucket bound of
                    // the true sample quantile.
                    let rank = ((q * sorted.len() as f64).ceil() as usize)
                        .max(1)
                        - 1;
                    let exact = sorted[rank] as f64;
                    let got = m.unwrap() as f64;
                    let rel = (got - exact).abs() / exact.max(1.0);
                    prop_assert!(
                        rel <= MAX_RELATIVE_ERROR || exact < 32.0,
                        "q={} got {} exact {} rel {}", q, got, exact, rel
                    );
                }
            }
        }
    }

    #[test]
    fn count_over_matches_bucket_semantics() {
        let mut h = HdrHist::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count_over(0), 6);
        // Low values (<32) are exact buckets, so the threshold is sharp.
        assert_eq!(h.count_over(1), 5);
        assert_eq!(h.count_over(10), 4);
        // Above the exact range the comparison is at bucket midpoints:
        // far-away thresholds are unambiguous.
        assert_eq!(h.count_over(5_000), 2);
        assert_eq!(h.count_over(u64::MAX / 2), 0);
        assert_eq!(HdrHist::new().count_over(0), 0);
    }

    /// The global-registry tests below all `reset()` the process-wide
    /// stripes; serialize them so the test harness's parallelism cannot
    /// interleave a reset with another test's assertions.
    static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn tagged_registry_shards_by_key_and_resets() {
        let _guard = REGISTRY_LOCK.lock();
        reset();
        let a = TagKey {
            label: "t.req",
            backend: "gbdt",
            level: "Ideation",
        };
        let b = TagKey {
            label: "t.req",
            backend: "plm-int8",
            level: "Ideation",
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..500u64 {
                        observe_tagged(a, 1_000 + i);
                        observe_tagged(b, 2_000 + i);
                    }
                });
            }
        });
        let folded = merged_tagged();
        assert_eq!(folded.get(&a).map(HdrHist::count), Some(2_000));
        assert_eq!(folded.get(&b).map(HdrHist::count), Some(2_000));
        assert_eq!(a.flat(), "t.req|gbdt|Ideation");
        reset();
        assert!(merged_tagged().is_empty());
    }

    mod tagged_properties {
        use super::super::*;
        use proptest::prelude::*;

        const LABELS: [&str; 2] = ["req", "stage.score"];
        const BACKENDS: [&str; 3] = ["gbdt", "plm-f32", "plm-int8"];
        const LEVELS: [&str; 4] = ["Indicator", "Ideation", "Behavior", "Attempt"];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// Tagged-family merge is commutative across worker shards:
            /// folding per-worker maps in any rotation yields the exact
            /// counts/sums/quantiles of single-map recording, per key.
            fn tagged_merge_commutes_across_worker_shards(
                samples in collection::vec(
                    (
                        (0usize..2, 0usize..3),
                        (0usize..4, 1u64..5_000_000, 0usize..6),
                    ),
                    1..300,
                ),
                rotation in 0usize..6,
            ) {
                let n_shards = 6;
                let mut single: BTreeMap<TagKey, HdrHist> = BTreeMap::new();
                let mut shards: Vec<BTreeMap<TagKey, HdrHist>> =
                    vec![BTreeMap::new(); n_shards];
                for &((l, b), (lv, value, worker)) in &samples {
                    let key = TagKey {
                        label: LABELS[l],
                        backend: BACKENDS[b],
                        level: LEVELS[lv],
                    };
                    single.entry(key).or_default().record(value);
                    shards[worker % n_shards]
                        .entry(key)
                        .or_default()
                        .record(value);
                }
                let mut folded = BTreeMap::new();
                for i in 0..n_shards {
                    merge_into(&mut folded, &shards[(i + rotation) % n_shards]);
                }
                prop_assert_eq!(folded.len(), single.len());
                for (key, want) in &single {
                    let got = &folded[key];
                    prop_assert_eq!(got.count(), want.count());
                    prop_assert_eq!(got.sum(), want.sum());
                    for q in [0.0, 0.5, 0.99, 1.0] {
                        prop_assert_eq!(got.quantile(q), want.quantile(q));
                    }
                }
            }
        }
    }

    #[test]
    fn registry_stripes_merge_across_threads() {
        let _guard = REGISTRY_LOCK.lock();
        reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1_000u64 {
                        observe_ns("stripe.test", 1_000 + i);
                    }
                });
            }
        });
        let folded = merged();
        let h = folded.get("stripe.test").expect("label recorded");
        assert_eq!(h.count(), 8_000);
        reset();
        assert!(!merged().contains_key("stripe.test"));
    }
}
