//! The knob table is the only reader of `RSD_*` variables, and README's
//! "Knobs" table documents exactly that table.

use std::path::{Path, PathBuf};

use rsd15k::obs::knob::KNOBS;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `env::var`/`env::var_os` calls in `src` whose argument is an `RSD_`
/// literal or not a literal at all (a constant could name any knob).
fn knob_reads(src: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in src.match_indices("env::var") {
        let rest = &src[at + "env::var".len()..];
        let Some(arg) = rest.strip_prefix("_os(").or_else(|| rest.strip_prefix('(')) else {
            continue;
        };
        let arg = arg.trim_start();
        if !arg.starts_with('"') || arg[1..].starts_with("RSD_") {
            found.push(arg.lines().next().unwrap_or_default().to_string());
        }
    }
    found
}

#[test]
fn only_the_knob_table_reads_rsd_variables() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let table = root.join("crates/obs/src/knob.rs");
    assert!(files.contains(&table), "scan must see the knob table");
    let offenders: Vec<String> = files
        .iter()
        .filter(|f| **f != table)
        .flat_map(|f| {
            let src = std::fs::read_to_string(f).unwrap();
            knob_reads(&src)
                .into_iter()
                .map(move |arg| format!("{}: env::var({arg}", f.display()))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "read RSD_* knobs through rsd_obs::knob only:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn the_scan_catches_direct_reads() {
    assert_eq!(knob_reads(r#"std::env::var("RSD_SEED").ok()"#).len(), 1);
    assert_eq!(knob_reads(r#"std::env::var_os( "RSD_X")"#).len(), 1);
    assert_eq!(knob_reads("std::env::var(KNOB)").len(), 1);
    assert!(knob_reads(r#"std::env::var("BENCH_KERNELS_OUT")"#).is_empty());
    assert!(knob_reads(r#"std::env::set_var("RSD_SEED", "1")"#).is_empty());
}

#[test]
fn readme_knob_table_matches_the_knob_table() {
    let readme =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md")).unwrap();
    let section = readme
        .split("\n## Knobs\n")
        .nth(1)
        .expect("README has a \"## Knobs\" section");
    let rows: Vec<[String; 3]> = section
        .lines()
        .take_while(|l| !l.starts_with("## "))
        .filter(|l| l.starts_with("| `RSD_"))
        .map(|l| {
            let cells: Vec<String> = l
                .split('|')
                .map(|c| c.trim().trim_matches('`').to_string())
                .collect();
            [cells[1].clone(), cells[2].clone(), cells[3].clone()]
        })
        .collect();
    let want: Vec<[String; 3]> = KNOBS
        .iter()
        .map(|k| [k.name.to_string(), k.default_text(), k.accepts()])
        .collect();
    assert_eq!(rows, want, "README knob table: name, default, accepted");
}
