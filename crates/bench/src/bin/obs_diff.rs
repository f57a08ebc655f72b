//! `obs_diff` — the perf/quality regression gate.
//!
//! Compares two RunReport / BENCH JSON artifacts (or `.series.ndjson`
//! time-series files, summarized via
//! `rsd_obs::timeseries::summarize_series`) with per-metric tolerances
//! (see `rsd_obs::diff` for the classification rules):
//!
//! ```text
//! obs_diff [FLAGS] baseline.json candidate.json
//! obs_diff --self-test [FLAGS] report.json|series.ndjson
//! ```
//!
//! Flags: `--time-tol F` (default 0.15), `--mem-tol F` (default 0.30),
//! `--min-time-ms F` (default 50), `--quantile-tol Q F` (per-quantile
//! ratio for Q in p50/p90/p99/p999; defaults 0.15/0.20/0.25/0.40),
//! `--min-quantile-ms F` (default 1), `--ignore-time`, `--verbose`.
//!
//! Exit codes: 0 — no regression; 1 — `--self-test` failure (the
//! injected regressions did not trip, or the identity diff regressed);
//! 2 — usage or I/O error, or artifacts whose `meta.host_cores` differ
//! (time, quantile and speedup leaves are then not compared unless
//! `--ignore-time` is given; the quality and memory gates still run);
//! 3 — time/quantile/throughput regression;
//! 4 — memory regression; 5 — quality regression. When several classes
//! regress at once the most severe wins: quality > memory > time.
//! Every regression line names the offending path and both values.
//!
//! `--self-test` loads one artifact, injects a slowdown on its largest
//! time leaf (to at least twice its value and twice `--min-time-ms`), a
//! drift on the first quality leaf, and an inflated tail quantile
//! (p99/p999) where latency data exists, then verifies the gate trips on
//! the perturbed copy while passing on the identity diff — CI runs it to
//! prove the gate itself works. Unless `--ignore-time` is given, an
//! artifact with no time leaf fails the self-test.

use rsd_obs::diff::{diff_reports, host_cores_mismatch, inject_regressions, Class, Tolerances};
use rsd_obs::Value;

/// Exit code for a usage or I/O error, or a time comparison across core
/// counts.
const EXIT_USAGE: i32 = 2;
/// Exit code for a wall-clock/quantile/throughput regression.
const EXIT_TIME: i32 = 3;
/// Exit code for a memory regression.
const EXIT_MEMORY: i32 = 4;
/// Exit code for a quality (replication-invariant) regression.
const EXIT_QUALITY: i32 = 5;

struct Args {
    tol: Tolerances,
    self_test: bool,
    verbose: bool,
    paths: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: obs_diff [--time-tol F] [--mem-tol F] [--min-time-ms F] \
         [--quantile-tol p50|p90|p99|p999 F] [--min-quantile-ms F] \
         [--ignore-time] [--verbose] baseline.json candidate.json\n\
         \x20      obs_diff --self-test [flags] report.json|series.ndjson\n\
         exit codes: 0 ok, 1 self-test failure, 2 usage/io or host core counts differ, \
         3 time, 4 memory, 5 quality"
    );
    std::process::exit(EXIT_USAGE);
}

fn parse_args() -> Args {
    let mut args = Args {
        tol: Tolerances::default(),
        self_test: false,
        verbose: false,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let float_flag = |it: &mut dyn Iterator<Item = String>| -> f64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--time-tol" => args.tol.time_ratio = float_flag(&mut it),
            "--mem-tol" => args.tol.mem_ratio = float_flag(&mut it),
            "--min-time-ms" => args.tol.min_time_ms = float_flag(&mut it),
            "--min-quantile-ms" => args.tol.min_quantile_ms = float_flag(&mut it),
            "--quantile-tol" => {
                let idx = match it.next().as_deref() {
                    Some("p50") => 0,
                    Some("p90") => 1,
                    Some("p99") => 2,
                    Some("p999") => 3,
                    _ => usage(),
                };
                args.tol.quantile_ratios[idx] = float_flag(&mut it);
            }
            "--ignore-time" => args.tol.check_time = false,
            "--self-test" => args.self_test = true,
            "--verbose" | "-v" => args.verbose = true,
            "--help" | "-h" => usage(),
            p if !p.starts_with('-') => args.paths.push(p.to_string()),
            _ => usage(),
        }
    }
    args
}

/// Load an artifact: `.ndjson` series files are summarized into a
/// report-shaped object, everything else parses as plain JSON.
fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs_diff: cannot read {path}: {e}");
        std::process::exit(EXIT_USAGE);
    });
    if path.ends_with(".ndjson") {
        return rsd_obs::timeseries::summarize_series(&text).unwrap_or_else(|e| {
            eprintln!("obs_diff: {path}: {e}");
            std::process::exit(EXIT_USAGE);
        });
    }
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("obs_diff: {path} is not valid JSON: {e}");
        std::process::exit(EXIT_USAGE);
    })
}

fn print_findings(result: &rsd_obs::diff::DiffResult, verbose: bool) {
    for f in &result.findings {
        if f.regression {
            println!("REGRESSION [{:?}] {}: {}", f.class, f.path, f.detail);
        } else if verbose {
            println!("note       [{:?}] {}: {}", f.class, f.path, f.detail);
        }
    }
}

/// Most severe exit code among the regressed classes:
/// quality > memory > time-like.
fn exit_code_for(result: &rsd_obs::diff::DiffResult) -> i32 {
    let mut code = 0;
    for f in result.findings.iter().filter(|f| f.regression) {
        let class_code = match f.class {
            Class::Quality => EXIT_QUALITY,
            Class::Memory => EXIT_MEMORY,
            Class::Time | Class::Quantile | Class::Speedup => EXIT_TIME,
            Class::Skip | Class::Info => continue,
        };
        code = code.max(class_code);
    }
    code
}

fn main() {
    let args = parse_args();

    if args.self_test {
        let [path] = args.paths.as_slice() else {
            usage()
        };
        let report = load(path);

        let identity = diff_reports(&report, &report, &args.tol);
        if identity.regressed() {
            println!("self-test FAILED: identity diff regressed");
            print_findings(&identity, true);
            std::process::exit(1);
        }

        let (injected, what) = inject_regressions(&report, &args.tol);
        let d = diff_reports(&report, &injected, &args.tol);
        let tripped = |class: Class| d.findings.iter().any(|f| f.regression && f.class == class);
        // With timing on, every artifact must carry a time leaf to slow.
        let time_ok = !args.tol.check_time || (what.time_path.is_some() && tripped(Class::Time));
        let quality_ok = what.quality_path.is_none() || tripped(Class::Quality);
        let quantile_ok =
            !args.tol.check_time || what.quantile_path.is_none() || tripped(Class::Quantile);
        if what.time_path.is_none() && what.quality_path.is_none() && what.quantile_path.is_none() {
            println!("self-test FAILED: no injectable leaves found in {path}");
            std::process::exit(1);
        }
        if !(time_ok && quality_ok && quantile_ok) {
            println!(
                "self-test FAILED: injected regressions did not trip \
                 (time on {:?}: {time_ok}, quality on {:?}: {quality_ok}, \
                 quantile on {:?}: {quantile_ok})",
                what.time_path, what.quality_path, what.quantile_path
            );
            print_findings(&d, true);
            std::process::exit(1);
        }
        println!(
            "self-test ok: identity diff clean ({} leaves); injected regressions tripped \
             (time: {:?}, quality: {:?}, quantile: {:?})",
            identity.compared, what.time_path, what.quality_path, what.quantile_path
        );
        return;
    }

    let [baseline, candidate] = args.paths.as_slice() else {
        usage()
    };
    let base = load(baseline);
    let cand = load(candidate);
    let mut tol = args.tol;
    let refused = match host_cores_mismatch(&base, &cand) {
        Some((b, c)) if tol.check_time => {
            println!(
                "obs_diff: refusing time comparison: baseline ran on {b} host cores, \
                 candidate on {c} (--ignore-time gates quality and memory only)"
            );
            tol.check_time = false;
            true
        }
        _ => false,
    };
    let result = diff_reports(&base, &cand, &tol);
    print_findings(&result, args.verbose);
    let regressions = result.findings.iter().filter(|f| f.regression).count();
    if regressions > 0 {
        println!(
            "obs_diff: {regressions} regression(s) across {} compared leaves ({} vs {})",
            result.compared, baseline, candidate
        );
        std::process::exit(exit_code_for(&result));
    }
    if refused {
        std::process::exit(EXIT_USAGE);
    }
    println!(
        "obs_diff: ok — {} leaves compared, no regressions ({} vs {})",
        result.compared, baseline, candidate
    );
}
