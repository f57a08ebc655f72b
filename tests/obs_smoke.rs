//! Facade-level telemetry smoke test: a tiny end-to-end dataset build with
//! the NDJSON sink pointed at a temp file, then structural checks on the
//! event stream, the RunReport artifact (meta block, span call-tree), and
//! the collapsed-stack profile rendered from that report.
//!
//! Kept as a single `#[test]` because the telemetry mode latches on first
//! use — one test owns the process-wide sink for this binary.

use rsd15k::obs;
use rsd15k::prelude::*;
use rsd_bench::{Prepared, Scale};

#[test]
fn ndjson_sink_and_run_report_round_trip() {
    let dir = std::env::temp_dir().join(format!("rsd_obs_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ndjson = dir.join("events.ndjson");

    // Sink to the temp file before any instrumented code runs.
    assert!(obs::init(obs::Mode::File(ndjson.clone())));
    assert!(obs::enabled());

    let prepared = Prepared::build(Scale::Small, 77);
    assert!(prepared.dataset.n_posts() > 0);

    let mut run = RunReport::new("obs_smoke", "small", 77);
    run.set("posts", obs::Value::Int(prepared.dataset.n_posts() as i128));
    let report_path = dir.join("obs_smoke.report.json");
    run.write_to(&report_path).unwrap();
    obs::flush();

    // Every sink line must parse as a JSON object with the record envelope.
    let raw = std::fs::read_to_string(&ndjson).unwrap();
    let records: Vec<rsd15k::obs::Value> = raw
        .lines()
        .map(|l| serde_json::from_str(l).expect("malformed NDJSON line"))
        .collect();
    assert!(!records.is_empty(), "sink captured no events");
    for r in &records {
        assert!(
            !matches!(r["ts_ms"], obs::Value::Null),
            "missing ts_ms: {r}"
        );
        assert!(!matches!(r["kind"], obs::Value::Null), "missing kind: {r}");
        assert!(
            !matches!(r["label"], obs::Value::Null),
            "missing label: {r}"
        );
    }

    // The build must have produced spans for every major pipeline stage.
    let span_labels: Vec<&str> = records
        .iter()
        .filter(|r| r["kind"] == "span")
        .filter_map(|r| r["label"].as_str())
        .collect();
    for expected in [
        "bench.prepare",
        "dataset.build",
        "dataset.build.streaming",
        "pipeline.shards",
        "pipeline.shard.corpus",
        "pipeline.shard.preprocess",
        "pipeline.merge",
        "pipeline.select",
        "pipeline.annotate",
        "annotation.campaign",
        "annotation.campaign.day",
    ] {
        assert!(
            span_labels.contains(&expected),
            "no span record for {expected}; saw {span_labels:?}"
        );
    }

    // The report JSON embeds identity, wall-clock, and the metrics snapshot.
    let report: rsd15k::obs::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report["bin"], "obs_smoke");
    assert_eq!(report["scale"], "small");
    assert_eq!(report["seed"], 77);
    assert!(!matches!(report["elapsed_ms"], obs::Value::Null));
    let spans = &report["metrics"]["spans"];
    assert!(
        !matches!(spans["dataset.build"], obs::Value::Null),
        "report metrics missing dataset.build span stat: {report}"
    );
    let counters = &report["metrics"]["counters"];
    assert!(!matches!(counters["textproc.posts_in"], obs::Value::Null));

    // The meta block pins the run's environment: core count, effective
    // thread budget, git revision, telemetry switches, every knob.
    let meta = &report["meta"];
    assert!(meta["host_cores"].as_i64().unwrap() >= 1, "meta: {meta}");
    assert!(meta["rsd_threads"].as_i64().unwrap() >= 1, "meta: {meta}");
    assert!(!meta["git_rev"].as_str().unwrap().is_empty());
    assert!(meta["obs_mode"].as_str().unwrap().starts_with("file:"));
    for knob in obs::knob::KNOBS {
        assert!(
            meta["knobs"].get(knob.name).is_some(),
            "meta.knobs lacks {}",
            knob.name
        );
    }

    // The hierarchical call tree keys spans by their full stack path and
    // attributes self-time separately from child time.
    let tree = &report["metrics"]["tree"];
    let build = &tree["bench.prepare;dataset.build"];
    assert!(
        !matches!(build, obs::Value::Null),
        "tree missing bench.prepare;dataset.build: {tree}"
    );
    let total = build["total_ms"].as_f64().unwrap();
    let self_ms = build["self_ms"].as_f64().unwrap();
    assert!(
        self_ms <= total + 1e-9,
        "self_ms {self_ms} exceeds total_ms {total}"
    );
    assert!(!matches!(
        tree["bench.prepare;dataset.build;dataset.build.streaming"],
        obs::Value::Null
    ));

    // The report's tree renders as a folded profile: one sorted
    // `path self_us` line per tree path.
    let folded = obs::render_folded(&report).unwrap();
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(lines.len(), tree.as_object().unwrap().len());
    assert!(lines.windows(2).all(|w| w[0] < w[1]), "{folded}");
    assert!(lines
        .iter()
        .any(|l| l.starts_with("bench.prepare;dataset.build ")));

    std::fs::remove_dir_all(&dir).ok();
}
