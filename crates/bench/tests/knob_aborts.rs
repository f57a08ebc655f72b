//! Knob values the binaries once ignored or misread: each invalid one
//! aborts before any work with a message naming the knob, and `""`
//! means the default.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one binary run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsd_knob_aborts_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, cwd: &Path, env: &[(&str, &str)]) -> Output {
    Command::new(bin)
        .env_clear()
        .env("RSD_SCALE", "smoke")
        .env("RSD_BUILD_OUT", "out.jsonl")
        .envs(env.iter().copied())
        .current_dir(cwd)
        .output()
        .expect("spawn bench binary")
}

#[test]
fn invalid_knobs_abort_naming_the_knob() {
    // (binary, knob, value, words the abort message must contain)
    let cases: [(&str, &str, &str, &[&str]); 5] = [
        (
            env!("CARGO_BIN_EXE_table1"),
            "RSD_SEED",
            "2O26",
            &["RSD_SEED", "positive integer"],
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            "RSD_THREADS",
            "four",
            &["RSD_THREADS", "positive integer"],
        ),
        (
            env!("CARGO_BIN_EXE_table3"),
            "RSD_MODELS",
            "deberat",
            &[
                "RSD_MODELS",
                "xgboost",
                "bilstm",
                "higru",
                "roberta",
                "deberta",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_loadgen"),
            "RSD_QPS",
            "0",
            &["RSD_QPS", "positive integer"],
        ),
        // A knob this binary never reads still aborts it at start.
        (
            env!("CARGO_BIN_EXE_bench_kernels"),
            "RSD_OBS_TICK_MS",
            "fast",
            &["RSD_OBS_TICK_MS", "positive integer"],
        ),
    ];
    let dir = scratch_dir("invalid");
    for (bin, knob, value, words) in cases {
        let out = run(bin, &dir, &[(knob, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{knob}={value:?} must abort");
        assert!(
            out.stdout.is_empty(),
            "{knob}={value:?} aborts before any work"
        );
        for word in words {
            assert!(
                stderr.contains(word),
                "{knob}={value:?}: {word:?} in {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_build_mode_means_the_default_stream() {
    let dir = scratch_dir("mode");
    let out = run(
        env!("CARGO_BIN_EXE_build_dataset"),
        &dir,
        &[("RSD_BUILD_MODE", "")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("streaming build"), "{stderr}");
    // Unset, `RSD_CHECKPOINT_DIR` keeps this binary's own default.
    assert!(dir.join("bench_runs/small/checkpoints").is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_dir_off_disables_checkpointing() {
    let dir = scratch_dir("ckpt_off");
    let out = run(
        env!("CARGO_BIN_EXE_build_dataset"),
        &dir,
        &[("RSD_CHECKPOINT_DIR", "off")],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("bench_runs").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
