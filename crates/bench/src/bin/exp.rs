//! `exp [--smoke] [--out DIR] [ID ...]`: run the experiments named
//! (every one in [`pario_bench::ALL`] when none is), print their
//! reports, and write the tables and summaries they declare —
//! `results/<table>.json` and `BENCH_<name>.json` — under `DIR`,
//! `target/exp/` by default. Only a run that names the repo root
//! (`run_experiments.sh` does) refreshes the committed files; a verdict
//! held to a committed figure reads it there either way. `--smoke` asks
//! the measured experiments for a CI-sized run. Exits non-zero on an
//! unknown id or argument, a failed verdict, a declared file not
//! produced or a failed write.

use std::path::PathBuf;
use std::process::ExitCode;

use pario_bench::{find, run, Size, ALL};

fn main() -> ExitCode {
    let mut size = Size::Full;
    let mut out = PathBuf::from("target/exp");
    let mut chosen = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            size = Size::Smoke;
        } else if arg == "--out" {
            let Some(dir) = args.next() else {
                eprintln!("exp: --out names a directory");
                return ExitCode::FAILURE;
            };
            out = PathBuf::from(dir);
        } else if let Some(exp) = find(&arg) {
            chosen.push(exp);
        } else {
            let ids: Vec<_> = ALL.iter().map(|e| e.id).collect();
            eprintln!(
                "exp: unknown experiment '{arg}'; the ids are {}",
                ids.join(" ")
            );
            return ExitCode::FAILURE;
        }
    }
    if chosen.is_empty() {
        chosen = ALL.iter().collect();
    }
    let mut problems = Vec::new();
    for exp in chosen {
        let found = run(exp, size, &out);
        problems.extend(found.into_iter().map(|p| format!("{}: {p}", exp.id)));
    }
    for p in &problems {
        eprintln!("exp: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
