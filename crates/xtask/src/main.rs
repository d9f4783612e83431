//! Workspace automation: the concurrency lint (no external dependencies).
//!
//! ```text
//! cargo run -p xtask -- lint               # lint the request-path crates
//! cargo run -p xtask -- lint --self-test   # assert every rule fires on the fixture
//! cargo run -p xtask -- lint <file.rs>...  # lint specific files
//! ```
//!
//! The `lint` task enforces the workspace concurrency policy that
//! rustc/clippy cannot express, with a plain textual scan:
//!
//! * **R1 std-sync ban** — request-path crates must use the
//!   `pario-check` primitives (model-checkable) instead of
//!   `std::sync::{Mutex, RwLock, Condvar}`, any `parking_lot`, or raw
//!   `std::thread::spawn` (named `thread::Builder` workers are
//!   allowed). The one unscheduled lock, `pario_check::real`'s, is
//!   found by grep, not by this rule.
//! * **R2 unwrap policy** — no `.unwrap()` / `.expect(` in non-test
//!   library code of the request-path crates; waive a genuinely
//!   infallible call with a `// invariant:` comment on the same or the
//!   preceding line stating *why* it cannot fail.
//! * **R3 lock order** — within one function, acquisitions of the
//!   ranked locks documented in DESIGN.md §8 must ascend. The scan is
//!   textual (it cannot see guard drops), so a deliberate
//!   release-before-acquire sequence is waived with
//!   `// lock-order: released above`.
//! * **R4 raw-atomic ban** — request-path crates must use the
//!   `pario-check` atomic wrappers, not `std::sync::atomic` types, so
//!   the happens-before race detector observes every operation and the
//!   `Ordering` it was given (importing `std::sync::atomic::Ordering`
//!   itself is fine — the wrappers take it).
//! * **R5 Relaxed justification** — every `Ordering::Relaxed` must
//!   carry a `// ordering:` comment on the same or the preceding line
//!   saying why no happens-before edge is needed there.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lint;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--self-test | <file.rs>...]");
            ExitCode::FAILURE
        }
    }
}

/// Crates whose `src/` trees are subject to the request-path rules.
const REQUEST_PATH_CRATES: &[&str] = &["core", "disk", "fs", "server", "buffer", "layout", "net"];

const FIXTURE: &str = "crates/xtask/fixtures/violation.rs";

fn run_lint(args: &[String]) -> ExitCode {
    let root = workspace_root();
    if args.first().map(String::as_str) == Some("--self-test") {
        return self_test(&root);
    }

    let files: Vec<PathBuf> = if args.is_empty() {
        REQUEST_PATH_CRATES
            .iter()
            .flat_map(|c| rust_sources(&root.join("crates").join(c).join("src")))
            .collect()
    } else {
        args.iter().map(PathBuf::from).collect()
    };

    let mut findings = Vec::new();
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(text) => findings.extend(lint::lint_file(f, &text)),
            Err(e) => {
                eprintln!("xtask lint: cannot read {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for v in &findings {
        println!("{v}");
    }
    if findings.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Assert the lint still catches everything the fixture seeds: one
/// finding per rule at minimum, and zero on a clean snippet. This is
/// what CI runs — a lint that silently stops firing fails here.
fn self_test(root: &Path) -> ExitCode {
    let fixture = root.join(FIXTURE);
    let text = match std::fs::read_to_string(&fixture) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "xtask lint --self-test: cannot read {}: {e}",
                fixture.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let findings = lint::lint_file(&fixture, &text);
    let mut ok = true;
    for rule in ["R1", "R2", "R3", "R4", "R5"] {
        let n = findings.iter().filter(|f| f.rule == rule).count();
        if n == 0 {
            eprintln!("xtask lint --self-test: rule {rule} found nothing in the fixture");
            ok = false;
        } else {
            println!("xtask lint --self-test: {rule} fired {n}x on the fixture");
        }
    }
    // Each fixture line marked `// R1` or `// R4` (`// R1 R4`: both)
    // is one banned pattern and must be flagged itself, so a pattern
    // dropped from the ban, or a form of import the scan stops seeing
    // through, fails here.
    for (i, line) in text.lines().enumerate() {
        let marks = line.split_once("// ").map_or("", |(_, comment)| comment);
        for rule in ["R1", "R4"] {
            let marked = marks.split([' ', ':']).any(|w| w == rule);
            if marked && !findings.iter().any(|f| f.rule == rule && f.line == i + 1) {
                eprintln!(
                    "xtask lint --self-test: {rule} did not flag fixture line {}: {}",
                    i + 1,
                    line.trim()
                );
                ok = false;
            }
        }
    }
    let clean = "fn fine() { let x = Some(1); if let Some(v) = x { drop(v); } }\n";
    let false_pos = lint::lint_file(Path::new("clean.rs"), clean);
    if !false_pos.is_empty() {
        eprintln!("xtask lint --self-test: false positives on clean code: {false_pos:?}");
        ok = false;
    }
    if ok {
        println!("xtask lint --self-test: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: xtask always runs via `cargo run -p xtask`,
/// whose working directory is the invoking directory; walk up from the
/// manifest instead so the scan works from anywhere in the tree.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask lives two levels under the workspace root")
        .to_path_buf()
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}
