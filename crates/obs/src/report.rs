//! Run reports: a final machine-readable JSON summary each bench binary
//! writes next to its stdout tables (`bench_runs/<scale>/<bin>.report.json`).
//! The report embeds the full registry snapshot, so per-stage span
//! timings, counters, and throughput gauges all land in one artifact.

use serde_json::{Map, Value};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Run one git subcommand and return its trimmed stdout, or `None` if
/// git is missing, fails, or prints nothing usable.
fn git_capture(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// Decorate a short revision with the working-tree state: `status` is
/// `git status --porcelain` output (`None` when the check itself
/// failed, which leaves the revision undecorated rather than guessing).
/// Any non-empty porcelain output — staged, unstaged, or untracked —
/// marks the artifact as not reproducible from the commit alone.
fn decorate_rev(rev: String, status: Option<&str>) -> String {
    match status {
        Some(s) if !s.trim().is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Short git revision of the working tree, suffixed `-dirty` when the
/// tree has uncommitted changes, or `"unknown"` outside a repo /
/// without git. Committed baselines carry this through `meta.git_rev`,
/// so a benchmark regenerated from a half-edited tree is visibly
/// tainted in any later diff.
fn git_rev() -> String {
    match git_capture(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) {
        Some(rev) => {
            let status = git_capture(&["status", "--porcelain"]);
            decorate_rev(rev, status.as_deref())
        }
        None => "unknown".to_string(),
    }
}

/// The environment block every report (and `BENCH_kernels.json`)
/// embeds as `meta`: detected cores, the effective `RSD_THREADS`
/// budget, git revision, the latched telemetry mode, and every knob's
/// effective value.
pub fn run_meta() -> Value {
    let mut m = Map::new();
    m.insert(
        "host_cores",
        Value::Int(
            std::thread::available_parallelism()
                .map(|n| n.get() as i128)
                .unwrap_or(1),
        ),
    );
    m.insert("rsd_threads", Value::Int(crate::knob::threads() as i128));
    m.insert("git_rev", Value::String(git_rev()));
    m.insert("obs_mode", Value::String(crate::mode_desc()));
    m.insert("knobs", crate::knob::snapshot());
    Value::Object(m)
}

/// Builder for a run's summary artifact.
#[derive(Debug)]
pub struct RunReport {
    bin: &'static str,
    scale: String,
    seed: u64,
    config: Map,
    started: Instant,
}

impl RunReport {
    /// Start a report for one binary invocation. Call as early as
    /// possible so `elapsed_ms` covers the whole run.
    pub fn new(bin: &'static str, scale: impl Into<String>, seed: u64) -> RunReport {
        RunReport {
            bin,
            scale: scale.into(),
            seed,
            config: Map::new(),
            started: Instant::now(),
        }
    }

    /// Attach a config/context entry (model names, row counts, …).
    pub fn set(&mut self, key: impl Into<String>, value: Value) -> &mut RunReport {
        self.config.insert(key.into(), value);
        self
    }

    /// Assemble the report JSON: identity, config, total wall-clock, and
    /// the global registry snapshot.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("bin", Value::String(self.bin.to_string()));
        m.insert("scale", Value::String(self.scale.clone()));
        m.insert("seed", Value::Int(i128::from(self.seed)));
        m.insert(
            "elapsed_ms",
            Value::Float(self.started.elapsed().as_secs_f64() * 1e3),
        );
        if !self.config.is_empty() {
            m.insert("config", Value::Object(self.config.clone()));
        }
        m.insert("meta", run_meta());
        let alloc = crate::alloc::snapshot();
        if alloc != Value::Null {
            m.insert("alloc", alloc);
        }
        let latency = crate::hist::snapshot_value();
        if latency != Value::Null {
            m.insert("latency", latency);
        }
        m.insert("metrics", crate::snapshot());
        Value::Object(m)
    }

    /// Default artifact location for this report.
    fn default_path(&self) -> PathBuf {
        PathBuf::from("bench_runs")
            .join(&self.scale)
            .join(format!("{}.report.json", self.bin))
    }

    /// Write the report to `bench_runs/<scale>/<bin>.report.json` when
    /// telemetry is enabled. Disabled runs are a no-op (`Ok(None)`) so the default
    /// `RSD_OBS=off` behaviour leaves the filesystem untouched.
    pub fn write(&self) -> std::io::Result<Option<PathBuf>> {
        if !crate::enabled() {
            return Ok(None);
        }
        let path = self.default_path();
        self.write_to(&path)?;
        Ok(Some(path))
    }

    /// Write the report JSON to an explicit path unconditionally.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_value().to_json_pretty().as_bytes())?;
        file.write_all(b"\n")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_status_leaves_rev_undecorated() {
        assert_eq!(decorate_rev("abc1234".into(), Some("")), "abc1234");
        assert_eq!(decorate_rev("abc1234".into(), Some("  \n")), "abc1234");
    }

    #[test]
    fn any_porcelain_output_marks_dirty() {
        for status in [
            " M crates/nn/src/quant.rs",
            "?? scratch.txt",
            "A  new.rs\n M old.rs",
        ] {
            assert_eq!(
                decorate_rev("abc1234".into(), Some(status)),
                "abc1234-dirty",
                "status {status:?}"
            );
        }
    }

    #[test]
    fn failed_status_check_does_not_guess() {
        assert_eq!(decorate_rev("abc1234".into(), None), "abc1234");
    }

    #[test]
    fn git_rev_matches_decorated_shape() {
        // Inside this repo the revision is short-hex with an optional
        // -dirty suffix; outside any repo it is "unknown". Accept both
        // so the test is environment-independent.
        let rev = git_rev();
        let hex = rev.strip_suffix("-dirty").unwrap_or(&rev);
        assert!(
            hex == "unknown" || (hex.len() >= 4 && hex.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected git_rev {rev:?}"
        );
    }
}
