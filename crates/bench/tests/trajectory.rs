//! `bench_runs/trajectory.ndjson` is the append-only perf record across
//! changes: one JSON object per line, each carrying the parent → change
//! medians of the repository benchmark's `train_s` on both workloads.
//! Every line must parse and carry those keys, and lines stay in order.
//! Lines from [`FIRST_PR_WITH_REV`] on also name the commits they
//! measured: `git_rev` with a `parent` and a `change` revision. Lines
//! from [`FIRST_PR_WITH_SETUP`] on also carry the medians of `setup_s`,
//! the dataset build, on both workloads.

use serde_json::Value;

const WORKLOADS: [&str; 2] = ["train-serve-neural", "serve-gbdt"];

/// The first trajectory line that records `git_rev`.
const FIRST_PR_WITH_REV: u64 = 23;

/// The first trajectory line that records `setup_s`.
const FIRST_PR_WITH_SETUP: u64 = 25;

#[test]
fn every_trajectory_line_parses_with_its_keys() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_runs/trajectory.ndjson"
    );
    let text = std::fs::read_to_string(path).expect("bench_runs/trajectory.ndjson is readable");
    let mut last_pr = 0;
    let mut lines = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("trajectory.ndjson line {}", n + 1);
        let v: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{at}: {e:?}"));
        let pr = v["pr"]
            .as_u64()
            .unwrap_or_else(|| panic!("{at}: no integer `pr`"));
        assert!(pr > last_pr, "{at}: pr {pr} does not follow {last_pr}");
        last_pr = pr;
        let metrics: &[&str] = if pr >= FIRST_PR_WITH_SETUP {
            &["train_s", "setup_s"]
        } else {
            &["train_s"]
        };
        for &metric in metrics {
            for w in WORKLOADS {
                for side in ["parent", "change"] {
                    let s = v[metric][w][side].as_f64();
                    assert!(
                        s.is_some_and(|s| s > 0.0),
                        "{at}: {metric}.{w}.{side} must be a positive number"
                    );
                }
            }
        }
        if pr >= FIRST_PR_WITH_REV {
            for side in ["parent", "change"] {
                let rev = v["git_rev"][side].as_str();
                assert!(
                    rev.is_some_and(|r| r.len() >= 7 && r.bytes().all(|b| b.is_ascii_hexdigit())),
                    "{at}: git_rev.{side} must be a hex revision of at least 7 digits"
                );
            }
        }
        lines += 1;
    }
    assert!(lines > 0, "trajectory.ndjson has no lines");
}
