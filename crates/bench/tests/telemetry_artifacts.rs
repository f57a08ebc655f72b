//! Telemetry artifacts end to end: the `RSD_OBS` sink survives the
//! continuous layer switching the registry on, and `obs_top --render`
//! turns a run report into its folded profile and an NDJSON stream into
//! a Chrome trace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde_json::Value;

/// A fresh, empty working directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsd_telemetry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, cwd: &Path, env: &[(&str, &str)], args: &[&Path]) -> Output {
    let out = Command::new(bin)
        .env_clear()
        .env("RSD_SCALE", "smoke")
        .envs(env.iter().copied())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn bench binary");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn render(artifact: &Path) -> String {
    let out = run(
        env!("CARGO_BIN_EXE_obs_top"),
        Path::new("."),
        &[],
        &[Path::new("--render"), artifact],
    );
    String::from_utf8(out.stdout).expect("UTF-8 render")
}

#[test]
fn tick_runs_keep_the_rsd_obs_sink() {
    let dir = scratch_dir("latch");
    let ndjson = dir.join("x.ndjson");
    run(
        env!("CARGO_BIN_EXE_table1"),
        &dir,
        &[
            ("RSD_OBS", ndjson.to_str().unwrap()),
            ("RSD_OBS_TICK_MS", "50"),
        ],
        &[],
    );
    let events = std::fs::read_to_string(&ndjson).expect("NDJSON sink written");
    assert!(!events.trim().is_empty(), "NDJSON sink is empty");
    let report: Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("bench_runs/small/table1.report.json")).unwrap(),
    )
    .unwrap();
    let mode = report["meta"]["obs_mode"].as_str().unwrap_or_default();
    assert!(mode.starts_with("file:"), "obs_mode {mode:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reports_render_as_the_folded_profile_they_were_written_with() {
    // Each pair is one smoke run's report and the `.folded` profile the
    // same run wrote when the profile was still a run-time artifact.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for bin in ["table1", "table3"] {
        let folded = std::fs::read_to_string(fixtures.join(format!("{bin}.folded"))).unwrap();
        let rendered = render(&fixtures.join(format!("{bin}.report.json")));
        assert_eq!(rendered, folded, "{bin}");
    }
}

#[test]
fn event_streams_render_one_complete_event_per_span() {
    let dir = scratch_dir("trace");
    let ndjson = dir.join("build.ndjson");
    run(
        env!("CARGO_BIN_EXE_build_dataset"),
        &dir,
        &[
            ("RSD_OBS", ndjson.to_str().unwrap()),
            ("RSD_BUILD_OUT", "out.jsonl"),
            ("RSD_CHECKPOINT_DIR", "off"),
        ],
        &[],
    );
    let text = std::fs::read_to_string(&ndjson).unwrap();
    let spans: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).unwrap())
        .filter(|r| r["kind"] == "span")
        .collect();
    assert!(!spans.is_empty());
    let trace: Value = serde_json::from_str(&render(&ndjson)).expect("trace parses");
    let complete: Vec<&Value> = trace["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .iter()
        .filter(|e| e["ph"] == "X")
        .collect();
    assert_eq!(complete.len(), spans.len());
    for (x, span) in complete.iter().zip(&spans) {
        assert_eq!(x["name"], span["label"]);
        assert_eq!(x["tid"], span["thread"]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_diff_refuses_time_across_core_counts() {
    let dir = scratch_dir("cores");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/table1.report.json");
    let text = std::fs::read_to_string(&fixture).unwrap();
    let one_core = text.replacen("\"host_cores\": 2", "\"host_cores\": 1", 1);
    let (same, drifted) = (dir.join("same.json"), dir.join("drifted.json"));
    std::fs::write(&same, &one_core).unwrap();
    std::fs::write(
        &drifted,
        one_core.replacen("\"posts\": 528", "\"posts\": 529", 1),
    )
    .unwrap();
    let diff = |args: &[&Path]| {
        Command::new(env!("CARGO_BIN_EXE_obs_diff"))
            .args(args)
            .output()
            .expect("spawn obs_diff")
    };
    let refused = diff(&[&fixture, &same]);
    let said = String::from_utf8_lossy(&refused.stdout);
    assert_eq!(refused.status.code(), Some(2), "{said}");
    assert!(said.contains("on 2 host cores, candidate on 1"), "{said}");
    // The quality gate still runs, and outranks the refusal.
    assert_eq!(diff(&[&fixture, &drifted]).status.code(), Some(5));
    let ignore = Path::new("--ignore-time");
    assert!(diff(&[ignore, &fixture, &same]).status.success());
    assert_eq!(diff(&[ignore, &fixture, &drifted]).status.code(), Some(5));
    let _ = std::fs::remove_dir_all(&dir);
}
