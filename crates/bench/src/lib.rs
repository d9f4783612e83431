//! # pario-bench — the experiment harness
//!
//! Every experiment of DESIGN.md §5 is one function from a [`Size`] to
//! a [`Report`], listed once in [`ALL`]. E1–E12 regenerate a figure or
//! quantitative claim of Crockett (1989), on the simulator but for E1,
//! E3, E8, E10 and E11, which drive the real file system; E13 (span
//! coalescing) and E14–E20 measure the real I/O stack and the service
//! layers built on it, every one of them on the one [`rig`] builder and
//! through the one [`measure`] reducer. The `exp` binary runs them and
//! writes what they declare ([`run`]); the shape tests run the same
//! functions and assert their verdicts. Criterion microbenches cover
//! what neither they nor the gated `benchmark/` workloads time.

#![warn(missing_docs)]

use std::path::Path;

mod experiments;
pub mod gantt;
pub mod measure;
pub mod report;
pub mod rig;
pub mod simx;
pub mod table;

pub use experiments::ALL;
pub use report::{Report, Size, Verdict};

/// The volume/device block size used by every experiment (4 KiB — eight
/// 512-byte sectors on the modelled drives).
pub const BS: usize = 4096;

/// One experiment: what it claims, how to run it, and the files it
/// writes.
pub struct Experiment {
    /// What `exp` calls it: `e1` … `e20`, `e13` for span coalescing.
    pub id: &'static str,
    /// Its header line.
    pub title: &'static str,
    /// The claim it tests, in a sentence.
    pub claim: &'static str,
    /// The experiment itself.
    pub run: fn(Size) -> Report,
    /// The tables it saves, as `results/<name>.json`.
    pub tables: &'static [&'static str],
    /// The summaries it saves, as `BENCH_<name>.json`.
    pub benches: &'static [&'static str],
}

/// The experiment `id` names.
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}

/// Run `exp` at `size`, print its report, and write what it declares
/// under `dir`: each table as `results/<name>.json`, each summary as
/// `BENCH_<name>.json`. Returns what went wrong — a failed verdict, a
/// declared file the report lacks or an undeclared one it has, a failed
/// write — empty when nothing did.
pub fn run(exp: &Experiment, size: Size, dir: &Path) -> Vec<String> {
    println!("\n=== {} ===\nPaper claim: {}\n", exp.title, exp.claim);
    let report = (exp.run)(size);
    print!("{}", report.text);
    let mut problems = Vec::new();
    for v in &report.verdicts {
        println!("  [{}] {}", if v.holds { "ok" } else { "FAILED" }, v.claim);
        if !v.holds {
            problems.push(format!("failed: {}", v.claim));
        }
    }
    let tables = report.tables.iter().map(|(name, t)| {
        let json = serde_json::to_string_pretty(&t.to_json());
        let text = json.expect("a table of strings always serializes");
        (format!("results/{name}.json"), text)
    });
    let benches = report.benches.iter();
    let benches = benches.map(|(name, b)| (format!("BENCH_{name}.json"), b.json()));
    let produced: Vec<_> = tables.chain(benches).collect();
    let declared = exp.tables.iter().map(|n| format!("results/{n}.json"));
    let declared: Vec<_> = declared
        .chain(exp.benches.iter().map(|n| format!("BENCH_{n}.json")))
        .collect();
    for path in &declared {
        if !produced.iter().any(|(p, _)| p == path) {
            problems.push(format!("{path} declared but not produced"));
        }
    }
    if let Err(e) = std::fs::create_dir_all(dir.join("results")) {
        problems.push(format!("cannot create results/: {e}"));
    }
    for (path, text) in &produced {
        if !declared.contains(path) {
            problems.push(format!("{path} produced but not declared"));
        } else if let Err(e) = std::fs::write(dir.join(path), text) {
            problems.push(format!("cannot write {path}: {e}"));
        } else {
            println!("(saved {path})");
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pario-bench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_declared_table_the_report_lacks_fails_the_run() {
        let exp = Experiment {
            id: "t",
            title: "t",
            claim: "t",
            run: |_| Report::default(),
            tables: &["t_table"],
            benches: &[],
        };
        let dir = scratch("missing");
        let problems = run(&exp, Size::Smoke, &dir);
        assert_eq!(problems, ["results/t_table.json declared but not produced"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_writes_what_it_declares_and_fails_on_a_failed_verdict() {
        let exp = Experiment {
            id: "t",
            title: "t",
            claim: "t",
            run: |_| {
                let mut r = Report::default();
                let mut t = Table::new(&["k"]);
                t.row(&["v".into()]);
                r.table("t_table", t).at_least("x", 1.0, 2.0);
                r
            },
            tables: &["t_table"],
            benches: &[],
        };
        let dir = scratch("written");
        let problems = run(&exp, Size::Smoke, &dir);
        assert_eq!(problems, ["failed: x: 1 (required >= 2)"]);
        let saved = std::fs::read_to_string(dir.join("results/t_table.json")).unwrap();
        assert!(saved.contains("\"k\": \"v\""), "{saved}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_are_unique_and_every_file_is_declared_once() {
        let mut ids: Vec<_> = ALL.iter().map(|e| e.id).collect();
        let mut files: Vec<_> = ALL.iter().flat_map(|e| e.tables.iter().copied()).collect();
        let mut benches: Vec<_> = ALL.iter().flat_map(|e| e.benches.iter().copied()).collect();
        for list in [&mut ids, &mut files, &mut benches] {
            let n = list.len();
            list.sort();
            list.dedup();
            assert_eq!(list.len(), n);
        }
        assert_eq!(ids.len(), 20);
        assert!(find("e13").is_some() && find("e21").is_none());
    }
}
