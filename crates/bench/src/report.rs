//! What an experiment returns: the text it would print, the tables and
//! summaries it saves, and its verdicts. An experiment prints nothing
//! and writes nothing; [`crate::run`] does both.

use crate::measure::{cell, Measured};
use crate::table::{Bench, Table};

/// How large a run is. Only the measured experiments read it: a smoke
/// run keeps every lane and verdict over smaller populations. The
/// simulated experiments are exact and run the same at either size.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The committed tables' size.
    Full,
    /// A CI-sized run.
    Smoke,
}

impl Size {
    /// `full` in a full run, `smoke` in a smoke run.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// One claim an experiment checked: a named predicate, with the value
/// it measured in the text.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The claim, its measured value and its bound.
    pub claim: String,
    /// Whether it held.
    pub holds: bool,
}

/// What one experiment produced.
#[derive(Default)]
pub struct Report {
    /// Notes, tables and figures, rendered in the order they were added.
    pub text: String,
    /// Tables to save as `results/<name>.json`.
    pub(crate) tables: Vec<(String, Table)>,
    /// Summaries to save as `BENCH_<name>.json`.
    pub(crate) benches: Vec<(String, Bench)>,
    /// Every claim checked, in order.
    pub verdicts: Vec<Verdict>,
}

impl Report {
    /// Append a line of text.
    pub fn note(&mut self, line: impl AsRef<str>) -> &mut Report {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
        self
    }

    /// Render `table` into the text and save it as `results/<name>.json`.
    pub fn table(&mut self, name: &str, table: Table) -> &mut Report {
        self.text.push_str(&table.render());
        self.tables.push((name.to_string(), table));
        self
    }

    /// Add measured lanes: render their table into the text and save
    /// their summary as `BENCH_<name>.json`.
    pub fn measured(&mut self, lanes: Measured) -> &mut Report {
        let (name, table, bench) = lanes.into_parts();
        self.text.push_str(&table.render());
        self.benches.push((name, bench));
        self
    }

    /// Record a claim and whether it held.
    pub fn check(&mut self, claim: impl Into<String>, holds: bool) -> &mut Report {
        self.verdicts.push(Verdict {
            claim: claim.into(),
            holds,
        });
        self
    }

    fn bound(&mut self, what: &str, v: f64, holds: bool, bound: String) -> &mut Report {
        self.check(
            format!("{what}: {} (required {bound})", cell(what, v)),
            holds,
        )
    }

    /// Claim that `v` is at least `bound`.
    pub fn at_least(&mut self, what: &str, v: f64, bound: f64) -> &mut Report {
        self.bound(what, v, v >= bound, format!(">= {}", cell(what, bound)))
    }

    /// Claim that `v` is at most `bound`.
    pub fn at_most(&mut self, what: &str, v: f64, bound: f64) -> &mut Report {
        self.bound(what, v, v <= bound, format!("<= {}", cell(what, bound)))
    }

    /// Claim that `v` is above `bound`.
    pub fn above(&mut self, what: &str, v: f64, bound: f64) -> &mut Report {
        self.bound(what, v, v > bound, format!("> {}", cell(what, bound)))
    }

    /// Claim that `v` is below `bound`.
    pub fn below(&mut self, what: &str, v: f64, bound: f64) -> &mut Report {
        self.bound(what, v, v < bound, format!("< {}", cell(what, bound)))
    }

    /// Claim that `v` lies in `[lo, hi)`.
    pub fn within(&mut self, what: &str, v: f64, lo: f64, hi: f64) -> &mut Report {
        let range = format!("in {}..{}", cell(what, lo), cell(what, hi));
        self.bound(what, v, (lo..hi).contains(&v), range)
    }
}
