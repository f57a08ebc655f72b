//! Every `pub fn` and `pub const` in `crates/*/src` has a caller outside
//! tests, or an entry in [`KEPT`] saying why it stays.
//!
//! rustc's `dead_code` lint does not look at `pub` items, so a function
//! that only tests call can sit in a production module unnoticed. This
//! scan closes that gap by name: it strips comments, string literals and
//! `#[cfg(test)]` items from the non-test sources (`crates/*/src`, `src`,
//! `benchmark/src`, `examples`), drops `pub use` re-exports, and fails
//! when the name of a `pub fn`/`pub const` defined outside `#[cfg(test)]`
//! appears nowhere else. It is lenient: a name shared with any other item
//! (`new`, `len`) always counts as called.
//!
//! A second scan does the same for dependencies: every `[dependencies]`
//! and `[dev-dependencies]` entry of a `crates/*` package or of the root
//! package must be named, as its `snake_case` identifier, in that
//! package's own `.rs` sources outside comments and string literals.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Public items that only tests call, each kept for the stated reason.
const KEPT: &[(&str, &str)] = &[
    (
        "capture",
        "test harness of the process-wide sink and registry; unit tests in \
         rsd-obs, rsd-par, rsd-nn and rsd-models record telemetry through it",
    ),
    (
        "counter",
        "read side of the registry's counters; asserted by rsd-obs, rsd-nn \
         and tests/obs_concurrency.rs",
    ),
    (
        "tree_stat",
        "read side of the span tree; asserted by rsd-obs, rsd-par and \
         tests/obs_concurrency.rs",
    ),
    (
        "watching",
        "read side of the stall watchdog's flags; asserted by rsd-obs and \
         rsd-pipeline tests",
    ),
    (
        "reset_peak",
        "resets the counting allocator's private peak gauge, which \
         tests/alloc_peak.rs cannot reach otherwise",
    ),
    (
        "is_user_disjoint",
        "the splits' user-disjointness invariant; asserted by the facade's \
         doc example and tests in rsd15k, rsd-bench and rsd-dataset",
    ),
    (
        "softmax_rows",
        "builds the unfused attention graph that crates/nn/tests/fused_ops.rs \
         checks the fused attention op's gradients against; its op and \
         backward are private to the tape",
    ),
    (
        "mcnemar",
        "waits for its production caller: table3's McNemar p-values \
         between adjacent rows (ROADMAP item 1, step 2)",
    ),
];

/// One scanned file: whether `pub` items defined in it are checked, and
/// its text.
struct Source {
    defines: bool,
    text: String,
}

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

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `src` with comments and the contents of string and char literals
/// blanked out, so names in them are not read as uses.
fn strip_comments_and_literals(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for c in &mut out[from..to.min(b.len())] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
    };
    let mut i = 0;
    while i < b.len() {
        // A `b` prefix (b'x', br"..") does not make the literal an
        // identifier's tail.
        let prev_ident =
            i > 0 && is_ident(b[i - 1]) && !(b[i - 1] == b'b' && (i < 2 || !is_ident(b[i - 2])));
        if b[i..].starts_with(b"//") {
            let end = src[i..].find('\n').map_or(b.len(), |n| i + n);
            blank(&mut out, i, end);
            i = end;
        } else if b[i..].starts_with(b"/*") {
            let (mut depth, mut j) = (1, i + 2);
            while j < b.len() && depth > 0 {
                if b[j..].starts_with(b"/*") {
                    depth += 1;
                    j += 2;
                } else if b[j..].starts_with(b"*/") {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if b[i] == b'r' && !prev_ident && matches!(b.get(i + 1), Some(b'"' | b'#')) {
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            if b.get(i + 1 + hashes) != Some(&b'"') {
                i += 1;
                continue;
            }
            let close = format!("\"{}", "#".repeat(hashes));
            let body = i + 2 + hashes;
            let end = src[body..].find(&close).map_or(b.len(), |n| body + n);
            blank(&mut out, body, end);
            i = end + close.len();
        } else if b[i] == b'"' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            blank(&mut out, i + 1, j);
            i = j + 1;
        } else if b[i] == b'\'' && !prev_ident {
            // A char literal ('x', '\n', '\u{..}'), or else a lifetime.
            let end = if b.get(i + 1) == Some(&b'\\') {
                src[i + 3..].find('\'').map(|n| i + 3 + n)
            } else {
                src[i + 1..]
                    .chars()
                    .next()
                    .map(|c| i + 1 + c.len_utf8())
                    .filter(|&j| b.get(j) == Some(&b'\''))
            };
            match end {
                Some(j) => {
                    blank(&mut out, i + 1, j);
                    i = j + 1;
                }
                None => i += 1,
            }
        } else {
            i += 1;
        }
    }
    String::from_utf8(out).unwrap()
}

/// `src` (already stripped) without `#[cfg(test)]` items and without
/// `pub use` re-exports.
fn strip_test_items_and_reexports(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        let item = &rest[at..];
        let brace = item.find('{');
        let semi = item.find(';');
        let end = match (brace, semi) {
            (_, Some(s)) if brace.is_none_or(|b| s < b) => s + 1,
            (Some(open), _) => {
                let mut depth = 0usize;
                let mut end = item.len();
                for (k, c) in item[open..].char_indices() {
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end = open + k + 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                end
            }
            _ => item.len(),
        };
        rest = &item[end..];
    }
    out.push_str(rest);
    let mut kept = String::with_capacity(out.len());
    let (mut copied, mut from) = (0, 0);
    while let Some(at) = find_word(&out, "pub", from) {
        from = at + 3;
        if out[from..].starts_with(char::is_whitespace) && first_ident(&out[from..]) == "use" {
            kept.push_str(&out[copied..at]);
            from = out[at..].find(';').map_or(out.len(), |n| at + n + 1);
            copied = from;
        }
    }
    kept.push_str(&out[copied..]);
    kept
}

/// Byte offset of the next whole-word `word` in `s` at or after `from`.
fn find_word(s: &str, word: &str, from: usize) -> Option<usize> {
    let b = s.as_bytes();
    let mut from = from;
    while let Some(n) = s[from..].find(word) {
        let at = from + n;
        let end = at + word.len();
        if (at == 0 || !is_ident(b[at - 1])) && (end == b.len() || !is_ident(b[end])) {
            return Some(at);
        }
        from = end;
    }
    None
}

/// The identifier starting at `s`'s first non-space byte, if any.
fn first_ident(s: &str) -> &str {
    let s = s.trim_start();
    let n = s.bytes().take_while(|&c| is_ident(c)).count();
    &s[..n]
}

/// Names of the `pub fn` and `pub const` items in `src` (plain `pub`
/// only: `pub(crate)` items are left to `dead_code`).
fn pub_items(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(at) = find_word(src, "pub", from) {
        from = at + 3;
        let mut rest = &src[from..];
        if !rest.starts_with(char::is_whitespace) {
            continue;
        }
        let mut kind = first_ident(rest);
        let mut saw_const = false;
        while matches!(kind, "const" | "unsafe" | "async") {
            saw_const |= kind == "const";
            rest = &rest.trim_start()[kind.len()..];
            kind = first_ident(rest);
        }
        let name = if kind == "fn" {
            first_ident(&rest.trim_start()[2..])
        } else if saw_const {
            kind
        } else {
            continue;
        };
        if !name.is_empty() {
            names.push(name.to_string());
        }
    }
    names
}

/// Add each identifier in `src` to `used`, except where it is being
/// defined (right after `fn`, `const` or `static`).
fn collect_uses<'a>(src: &'a str, used: &mut HashSet<&'a str>) {
    let mut prev = "";
    for ident in src
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
    {
        if !matches!(prev, "fn" | "const" | "static") {
            used.insert(ident);
        }
        prev = ident;
    }
}

/// Names of `pub fn`/`pub const` items defined in a `defines` source that
/// no non-test code uses, sorted and deduplicated.
fn uncalled(sources: &[Source]) -> Vec<String> {
    let code: Vec<(bool, String)> = sources
        .iter()
        .map(|s| {
            let text = strip_test_items_and_reexports(&strip_comments_and_literals(&s.text));
            (s.defines, text)
        })
        .collect();
    let mut used = HashSet::new();
    for (_, text) in &code {
        collect_uses(text, &mut used);
    }
    let mut out: Vec<String> = code
        .iter()
        .filter(|(defines, _)| *defines)
        .flat_map(|(_, text)| pub_items(text))
        .filter(|name| !used.contains(name.as_str()))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn workspace_sources() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defining = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut defining);
        }
    }
    let mut calling = Vec::new();
    for dir in ["src", "benchmark/src", "examples"] {
        rust_files(&root.join(dir), &mut calling);
    }
    let read = |path: &PathBuf, defines: bool| Source {
        defines,
        text: std::fs::read_to_string(path).unwrap(),
    };
    assert!(
        defining
            .iter()
            .any(|p| p.ends_with("crates/obs/src/knob.rs")),
        "scan must see the crates"
    );
    defining
        .iter()
        .map(|p| read(p, true))
        .chain(calling.iter().map(|p| read(p, false)))
        .collect()
}

#[test]
fn every_pub_item_has_a_non_test_caller_or_a_reason() {
    let found = uncalled(&workspace_sources());
    let unexplained: Vec<&String> = found
        .iter()
        .filter(|name| !KEPT.iter().any(|(kept, _)| kept == name))
        .collect();
    assert!(
        unexplained.is_empty(),
        "pub items only tests call: delete them, move them into the tests, \
         narrow them to pub(crate), or list them in KEPT with a reason:\n{unexplained:?}"
    );
    let stale: Vec<&str> = KEPT
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !found.iter().any(|f| f == name))
        .collect();
    assert!(
        stale.is_empty(),
        "KEPT lists items that are gone or now have a caller: {stale:?}"
    );
}

#[test]
fn the_scan_catches_an_uncalled_pub_fn() {
    let lib = |text: &str| Source {
        defines: true,
        text: text.to_string(),
    };
    let caller = |text: &str| Source {
        defines: false,
        text: text.to_string(),
    };
    let planted = lib("pub fn lonely() {}\npub fn used() {}\npub const MAX: usize = 3;\n");
    assert_eq!(
        uncalled(&[planted, caller("fn main() { used(); let _ = MAX; }")]),
        vec!["lonely"]
    );
    // Calls from tests, comments, strings and re-exports do not count.
    let test_only = lib(concat!(
        "pub fn probe() -> u8 { 1 }\n",
        "pub use crate::x::probe;\n",
        "// probe() in a comment\n",
        "fn f() -> &'static str { \"probe\" }\n",
        "#[cfg(test)]\nmod tests { #[test] fn t() { super::probe(); } }\n",
    ));
    assert_eq!(uncalled(&[test_only]), vec!["probe"]);
    // `pub(crate)` items and items inside `#[cfg(test)]` are left to rustc.
    let narrowed = lib("pub(crate) fn inner() {}\n#[cfg(test)]\npub fn helper() {}\n");
    assert!(uncalled(&[narrowed]).is_empty());
    // A call from another crate's source is a call.
    let split = [lib("pub unsafe fn raw() {}"), caller("unsafe { raw() }")];
    assert!(uncalled(&split).is_empty());
}

/// Entries of `manifest`'s `[dependencies]` and `[dev-dependencies]`
/// tables whose `snake_case` name no identifier in `sources` matches,
/// in manifest order.
fn unused_dependencies(manifest: &str, sources: &[String]) -> Vec<String> {
    let mut used = HashSet::new();
    let stripped: Vec<String> = sources
        .iter()
        .map(|s| strip_comments_and_literals(s))
        .collect();
    for text in &stripped {
        collect_uses(text, &mut used);
    }
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]");
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let name = line.split(['=', '.']).next().unwrap().trim();
            if !used.contains(name.replace('-', "_").as_str()) {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// Each package's manifest path and the text of its `.rs` sources: the
/// `crates/*` packages, and the root package's `src`, `tests` and
/// `examples`.
fn packages() -> Vec<(PathBuf, Vec<String>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |files: Vec<PathBuf>| -> Vec<String> {
        files
            .iter()
            .map(|p| std::fs::read_to_string(p).unwrap())
            .collect()
    };
    let mut out = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = krate.unwrap().path();
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        out.push((dir.join("Cargo.toml"), read(files)));
    }
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    out.push((root.join("Cargo.toml"), read(files)));
    out
}

#[test]
fn every_dependency_is_named_in_its_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unused: Vec<String> = packages()
        .iter()
        .flat_map(|(manifest, sources)| {
            let text = std::fs::read_to_string(manifest).unwrap();
            let at = manifest.strip_prefix(root).unwrap().display().to_string();
            unused_dependencies(&text, sources)
                .into_iter()
                .map(move |dep| format!("{at}: {dep}"))
        })
        .collect();
    unused.sort();
    assert!(
        unused.is_empty(),
        "dependencies no source of their package names; remove them:\n{unused:#?}"
    );
}

#[test]
fn the_scan_catches_an_unused_dependency() {
    let manifest = concat!(
        "[package]\nname = \"demo\"\n\n",
        "[dependencies]\n# comment = true\nrsd-common.workspace = true\n",
        "serde = { path = \"x\" }\nrand.workspace = true\n\n",
        "[dev-dependencies]\nproptest.workspace = true\n\n",
        "[[example]]\nname = \"quickstart\"\n",
    );
    let sources = [
        "use rsd_common::rng;\n#[derive(serde::Serialize)]\nstruct S;\n".to_string(),
        "// rand::random() in a comment\nfn f() -> &'static str { \"proptest\" }\n".to_string(),
    ];
    assert_eq!(
        unused_dependencies(manifest, &sources),
        vec!["rand", "proptest"]
    );
}
