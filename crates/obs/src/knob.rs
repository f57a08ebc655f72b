//! Every `RSD_*` environment knob, declared once in [`KNOBS`] and parsed
//! by one rule set per value [`Kind`]. No other module reads an `RSD_*`
//! variable; a source-scan test enforces it.
//!
//! The rules, for every knob:
//!
//! * unset and `""` mean the default;
//! * `0`, `off` and `none` switch an *optional* knob (one whose default
//!   is off) off;
//! * any other value outside the kind's accepted form aborts, naming the
//!   knob and the form. A typo'd knob must never quietly run a different
//!   experiment: `RSD_SEED=2O26` is not seed 2026.
//!
//! [`snapshot`] echoes every knob's effective value; run reports embed
//! it as `meta.knobs`.

use serde_json::{Map, Value};

/// How a knob's value is spelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Positive integer; `None` makes the knob optional (off by default).
    Int(Option<u64>),
    /// Positive finite number; `None` makes the knob optional.
    Float(Option<f64>),
    /// TCP port in `1..=65535`, off by default.
    Port,
    /// One of the listed spellings; the first is the default.
    Choice(&'static [&'static str]),
    /// Comma-separated subset of the listed names; the default is all.
    Subset(&'static [&'static str]),
    /// A path; `None` makes the knob optional.
    Path(Option<&'static str>),
}

/// One environment knob: its variable name and value kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// How its value is spelled, and its default.
    pub kind: Kind,
}

/// Upper bound on the worker-pool size (`RSD_THREADS` is capped here).
pub const MAX_THREADS: usize = 64;
/// `RSD_SCALE` spellings (`smoke` is an alias for `small`).
pub const SCALES: &[&str] = &["mid", "paper", "small", "smoke"];
/// `RSD_MODELS` names: the Table III baselines, in print order.
pub const TABLE3_MODELS: &[&str] = &["xgboost", "bilstm", "higru", "roberta", "deberta"];
/// `RSD_SERVE_MODEL` spellings, in `ServeModel` declaration order.
pub const SERVE_MODELS: &[&str] = &["gbdt", "plm-f32", "plm-int8"];

const fn knob(name: &'static str, kind: Kind) -> Knob {
    Knob { name, kind }
}

/// Experiment scale.
pub const SCALE: Knob = knob("RSD_SCALE", Kind::Choice(SCALES));
/// Master seed.
pub const SEED: Knob = knob("RSD_SEED", Kind::Int(Some(2026)));
/// Worker-pool size; off means the detected core count (see [`threads`]).
pub const THREADS: Knob = knob("RSD_THREADS", Kind::Int(None));
/// Baselines `table3` trains.
pub const MODELS: Knob = knob("RSD_MODELS", Kind::Subset(TABLE3_MODELS));
/// `build_dataset`'s build path.
pub const BUILD_MODE: Knob = knob("RSD_BUILD_MODE", Kind::Choice(&["stream", "batch"]));
/// `build_dataset`'s output file; off writes to stdout.
pub const BUILD_OUT: Knob = knob("RSD_BUILD_OUT", Kind::Path(None));
/// Checkpoint directory of streaming builds; off disables checkpointing.
pub const CHECKPOINT_DIR: Knob = knob("RSD_CHECKPOINT_DIR", Kind::Path(None));
/// Users per streaming-build shard.
pub const SHARD_USERS: Knob = knob("RSD_SHARD_USERS", Kind::Int(Some(4096)));
/// Fault injection: abort a streaming build after this many shards.
pub const INTERRUPT_AFTER_SHARDS: Knob = knob("RSD_INTERRUPT_AFTER_SHARDS", Kind::Int(None));
/// `export`'s output directory.
pub const EXPORT_DIR: Knob = knob("RSD_EXPORT_DIR", Kind::Path(Some("export")));
/// `loadgen`'s offered load, posts per second.
pub const QPS: Knob = knob("RSD_QPS", Kind::Int(Some(200)));
/// `loadgen` sustained-soak duration.
pub const LOADGEN_SOAK_MS: Knob = knob("RSD_LOADGEN_SOAK_MS", Kind::Int(None));
/// Telemetry sink: `stderr` or an NDJSON path.
pub const OBS: Knob = knob("RSD_OBS", Kind::Path(None));
/// Series tick period.
pub const OBS_TICK_MS: Knob = knob("RSD_OBS_TICK_MS", Kind::Int(None));
/// Live introspection endpoint port.
pub const OBS_HTTP: Knob = knob("RSD_OBS_HTTP", Kind::Port);
/// SLO burn-rate monitor p99 target.
pub const SLO_P99_MS: Knob = knob("RSD_SLO_P99_MS", Kind::Float(None));
/// SLO error budget: fraction of requests allowed over target.
pub const SLO_BUDGET: Knob = knob("RSD_SLO_BUDGET", Kind::Float(Some(0.01)));
/// Scoring backend of the serving tier.
pub const SERVE_MODEL: Knob = knob("RSD_SERVE_MODEL", Kind::Choice(SERVE_MODELS));
/// Fault injection: the scoring worker sleeps once this long.
pub const SERVE_INJECT_STALL_MS: Knob = knob("RSD_SERVE_INJECT_STALL_MS", Kind::Int(None));

/// Every knob, in README order.
pub const KNOBS: &[Knob] = &[
    SCALE,
    SEED,
    THREADS,
    MODELS,
    BUILD_MODE,
    BUILD_OUT,
    CHECKPOINT_DIR,
    SHARD_USERS,
    INTERRUPT_AFTER_SHARDS,
    EXPORT_DIR,
    QPS,
    LOADGEN_SOAK_MS,
    OBS,
    OBS_TICK_MS,
    OBS_HTTP,
    SLO_P99_MS,
    SLO_BUDGET,
    SERVE_MODEL,
    SERVE_INJECT_STALL_MS,
];

fn is_off(v: &str) -> bool {
    matches!(v, "0" | "off" | "none")
}

impl Knob {
    /// Whether `0`/`off`/`none` switch this knob off: its default is off.
    pub fn optional(&self) -> bool {
        self.default_text() == "off"
    }

    /// The default, as the README table spells it.
    pub fn default_text(&self) -> String {
        match self.kind {
            Kind::Int(Some(n)) => n.to_string(),
            Kind::Float(Some(x)) => x.to_string(),
            Kind::Choice(values) => values[0].to_string(),
            Kind::Subset(values) => values.join(","),
            Kind::Path(Some(t)) => t.to_string(),
            _ => "off".to_string(),
        }
    }

    /// The accepted form, as abort messages and the README table spell it.
    pub fn accepts(&self) -> String {
        let form = match self.kind {
            Kind::Int(_) => "positive integer".to_string(),
            Kind::Float(_) => "positive number".to_string(),
            Kind::Port => "port 1..=65535".to_string(),
            Kind::Choice(values) => format!("one of {}", values.join(", ")),
            Kind::Subset(values) => format!("comma list of {}", values.join(", ")),
            Kind::Path(_) => "path".to_string(),
        };
        if self.optional() {
            format!("{form}, or 0/off")
        } else {
            form
        }
    }

    /// Parse `raw` (`None` = unset) into the effective value: `Null` for
    /// off, otherwise an `Int`, a `Float` or a `String`. Aborts
    /// naming the knob on any value outside [`Knob::accepts`].
    pub fn parse(&self, raw: Option<&str>) -> Value {
        let raw = raw.map(str::trim).unwrap_or("");
        if raw.is_empty() {
            return self.parse(Some(&self.default_text()));
        }
        if is_off(raw) && self.optional() {
            return Value::Null;
        }
        let parsed = match self.kind {
            Kind::Int(_) => raw
                .parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .map(|n| Value::Int(n.into())),
            Kind::Float(_) => raw
                .parse::<f64>()
                .ok()
                .filter(|x| *x > 0.0 && x.is_finite())
                .map(Value::Float),
            Kind::Port => raw
                .parse::<u16>()
                .ok()
                .filter(|&p| p > 0)
                .map(|p| Value::Int(p.into())),
            Kind::Choice(values) => values
                .contains(&raw)
                .then(|| Value::String(raw.to_string())),
            Kind::Subset(values) => {
                let names: Vec<&str> = raw.split(',').map(str::trim).collect();
                names
                    .iter()
                    .all(|n| values.contains(n))
                    .then(|| Value::String(names.join(",")))
            }
            Kind::Path(_) => (!is_off(raw)).then(|| Value::String(raw.to_string())),
        };
        parsed.unwrap_or_else(|| {
            panic!(
                "invalid {} value {raw:?}; expected {}",
                self.name,
                self.accepts()
            )
        })
    }

    /// The effective value from the environment.
    pub fn value(&self) -> Value {
        match std::env::var(self.name) {
            Ok(raw) => self.parse(Some(&raw)),
            Err(std::env::VarError::NotPresent) => self.parse(None),
            Err(std::env::VarError::NotUnicode(raw)) => {
                panic!("invalid {} value {raw:?}; expected UTF-8", self.name)
            }
        }
    }

    /// The effective value from the environment, as `T`.
    pub fn get<T: KnobValue>(&self) -> T {
        self.read_as(self.value())
    }

    /// [`Knob::parse`] as `T`; `parse_as(None)` is the default.
    pub fn parse_as<T: KnobValue>(&self, raw: Option<&str>) -> T {
        self.read_as(self.parse(raw))
    }

    fn read_as<T: KnobValue>(&self, v: Value) -> T {
        T::from_value(v).unwrap_or_else(|| {
            panic!(
                "{} does not read as {}",
                self.name,
                std::any::type_name::<T>()
            )
        })
    }

    /// Whether the variable is set to something other than `""`, so
    /// `off` and an unset knob can be told apart.
    pub fn is_set(&self) -> bool {
        std::env::var_os(self.name).is_some_and(|v| !v.to_string_lossy().trim().is_empty())
    }
}

/// The Rust type a knob reads as: `u64`, `f64` or `String` for a knob
/// with a default; `Option` of those for an optional knob, `None` when
/// off.
pub trait KnobValue: Sized {
    /// `None` when `v` is not of this type.
    fn from_value(v: Value) -> Option<Self>;
}

impl KnobValue for u64 {
    fn from_value(v: Value) -> Option<Self> {
        v.as_u64()
    }
}

impl KnobValue for f64 {
    fn from_value(v: Value) -> Option<Self> {
        v.as_f64()
    }
}

impl KnobValue for String {
    fn from_value(v: Value) -> Option<Self> {
        v.as_str().map(str::to_string)
    }
}

impl<T: KnobValue> KnobValue for Option<T> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Null => Some(None),
            v => T::from_value(v).map(Some),
        }
    }
}

/// The effective worker-pool size: `RSD_THREADS` through [`pool_size`].
pub fn threads() -> usize {
    pool_size(THREADS.get())
}

/// The pool size for a requested thread count, or the detected core
/// count for `None`; capped at [`MAX_THREADS`].
pub fn pool_size(requested: Option<u64>) -> usize {
    let n = requested.map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |n| n as usize,
    );
    n.min(MAX_THREADS)
}

/// Every knob's effective value, keyed by name. Parsing them all also
/// aborts on any invalid knob, so callers run it before doing work.
pub fn snapshot() -> Value {
    let mut m = Map::new();
    for k in KNOBS {
        m.insert(k.name, k.value());
    }
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(k: Knob, raw: &str) -> Value {
        k.parse(Some(raw))
    }

    fn abort_message(k: Knob, raw: &str) -> String {
        let err = std::panic::catch_unwind(|| k.parse(Some(raw)))
            .expect_err(&format!("{} must reject {raw:?}", k.name));
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// A knob, its accepted spellings with their values, its default,
    /// and spellings it rejects.
    type Case = (
        Knob,
        Vec<(&'static str, Value)>,
        Value,
        &'static [&'static str],
    );

    /// Per kind: accepted spellings, the default (unset and `""`), the
    /// off spellings of optional knobs, and rejects, each abort naming
    /// the knob and the accepted form.
    #[test]
    fn each_kind_accepts_defaults_disables_and_rejects() {
        let s = |v: &str| Value::String(v.to_string());
        let cases: Vec<Case> = vec![
            (
                SEED,
                vec![("7", Value::Int(7)), (" 250 ", Value::Int(250))],
                Value::Int(2026),
                &["2O26", "0", "off", "-3", "1.5", "0x10"],
            ),
            (
                OBS_TICK_MS,
                vec![("50", Value::Int(50))],
                Value::Null,
                &["banana", "5O", "-3", "1.5"],
            ),
            (
                SLO_BUDGET,
                vec![("2.5", Value::Float(2.5)), (" 99 ", Value::Float(99.0))],
                Value::Float(0.01),
                &["banana", "-1.5", "0", "0.0", "inf", "NaN", "off"],
            ),
            (
                SLO_P99_MS,
                vec![("250", Value::Float(250.0))],
                Value::Null,
                &["fast", "-1"],
            ),
            (
                OBS_HTTP,
                vec![("9100", Value::Int(9100)), (" 65535 ", Value::Int(65535))],
                Value::Null,
                &["banana", "-1", "65536", "80.0"],
            ),
            (
                SERVE_MODEL,
                vec![(" plm-int8 ", s("plm-int8")), ("plm-f32", s("plm-f32"))],
                s("gbdt"),
                &["resnet", "off", "gbdt,plm-f32"],
            ),
            (
                MODELS,
                vec![("xgboost, deberta", s("xgboost,deberta"))],
                s("xgboost,bilstm,higru,roberta,deberta"),
                &["deberat", "xgboost,,bilstm", "off"],
            ),
            (
                BUILD_OUT,
                vec![("out/a.jsonl", s("out/a.jsonl"))],
                Value::Null,
                &[],
            ),
            (
                EXPORT_DIR,
                vec![("dist", s("dist"))],
                s("export"),
                &["off", "0"],
            ),
        ];
        for (k, accepts, default, rejects) in cases {
            for (raw, want) in accepts {
                assert_eq!(parse(k, raw), want, "{} accepts {raw:?}", k.name);
            }
            assert_eq!(k.parse(None), default, "{} unset", k.name);
            assert_eq!(parse(k, ""), default, "{} empty", k.name);
            if k.optional() {
                // Off is the default for optional knobs.
                for raw in ["0", "off", "none"] {
                    assert_eq!(parse(k, raw), default, "{} off via {raw:?}", k.name);
                }
            }
            for raw in rejects {
                let msg = abort_message(k, raw);
                assert!(
                    msg.contains(k.name) && msg.contains(&k.accepts()),
                    "abort names the knob and the form for {raw:?}: {msg}"
                );
            }
        }
    }

    #[test]
    fn values_read_as_their_rust_types() {
        assert_eq!(SEED.parse_as::<u64>(None), 2026);
        assert_eq!(SLO_BUDGET.parse_as::<f64>(Some("0.5")), 0.5);
        assert_eq!(SERVE_MODEL.parse_as::<String>(None), "gbdt");
        assert_eq!(OBS_TICK_MS.parse_as::<Option<u64>>(Some("50")), Some(50));
        assert_eq!(OBS_TICK_MS.parse_as::<Option<u64>>(Some("off")), None);
        assert_eq!(SLO_P99_MS.parse_as::<Option<f64>>(None), None);
        assert_eq!(BUILD_OUT.parse_as::<Option<String>>(None), None);
        // An optional knob read as a plain value is a programming error.
        let err = std::panic::catch_unwind(|| OBS_TICK_MS.parse_as::<u64>(None))
            .expect_err("off is not a u64");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("RSD_OBS_TICK_MS"), "{msg}");
    }

    #[test]
    fn abort_messages_list_the_valid_names() {
        let msg = abort_message(MODELS, "deberat");
        for name in TABLE3_MODELS {
            assert!(msg.contains(name), "{msg}");
        }
        assert!(abort_message(OBS_HTTP, "banana").contains("65535"));
    }

    #[test]
    fn the_table_is_well_formed() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KNOBS.len(), "duplicate knob names");
        for k in KNOBS {
            assert!(k.name.starts_with("RSD_"), "{}", k.name);
            k.parse(None); // the default parses
        }
    }
}
