//! The one reducer of the service-layer experiments (E13–E20): a lane
//! is run [`RUNS`] times or more, every metric it returns is reduced to
//! its median and quartiles, and a [`Report`] carries them — as flat
//! `key`, `key_lo`, `key_hi` entries of `BENCH_<name>.json` through the
//! [`Bench`] emitter and as rows of `results/<name>.json` — together
//! with the experiment's asserted facts.

use std::collections::BTreeMap;

use crate::rig::fmt_ns;
use crate::table::{save_json, secs, Bench, Table};

/// Times a lane is run unless it asks for more.
pub const RUNS: usize = 5;

/// A metric over a lane's runs: the median, between the quartiles.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Interval {
    /// Lower quartile.
    pub lo: f64,
    /// Median (the mean of the middle two of an even count).
    pub median: f64,
    /// Upper quartile.
    pub hi: f64,
}

/// Reduce one metric's samples (at least one; order is not kept).
pub fn reduce(samples: &mut [f64]) -> Interval {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let quarter = (n - 1) / 4;
    Interval {
        lo: samples[quarter],
        median: (samples[(n - 1) / 2] + samples[n / 2]) / 2.0,
        hi: samples[n - 1 - quarter],
    }
}

/// The latency a run's histogram reports at some quantile, as a sample.
pub fn nanos(quantile: Option<u64>) -> f64 {
    quantile.expect("a lane that ran recorded latencies") as f64
}

/// One lane's reduced metrics, by the key the lane returned them under
/// (indexing by a key the lane never returned panics).
pub type Lane = BTreeMap<&'static str, Interval>;

/// What one experiment binary measured and asserted.
pub struct Report {
    name: String,
    bench: Bench,
    table: Table,
    failed: Vec<String>,
}

/// Emit `v` under `key`: a whole number (a count, a bucket bound in
/// nanoseconds) as an integer, anything else as a float.
fn emit(bench: &mut Bench, key: &str, v: f64) {
    if v.fract() == 0.0 && (0.0..9e15).contains(&v) {
        bench.int(key, v as u64);
    } else {
        bench.num(key, v);
    }
}

/// A table cell for `v`, by what `key` says it is.
fn cell(key: &str, v: f64) -> String {
    if key.ends_with("_nanos") {
        fmt_ns(v)
    } else if key.ends_with("_secs") {
        secs(v)
    } else if v.abs() >= 100.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

impl Report {
    /// An empty report; `name` names the two files [`Report::finish`]
    /// writes.
    pub fn new(name: &str) -> Report {
        let mut bench = Bench::new();
        bench.label("experiment", name);
        Report {
            name: name.to_string(),
            bench,
            table: Table::new(&[
                "lane",
                "metric",
                "median",
                "lower quartile",
                "upper quartile",
            ]),
            failed: Vec::new(),
        }
    }

    /// Run `run` `runs` (≥ [`RUNS`]) times and record every metric it
    /// returns as `<lane>_<key>` with its `_lo` and `_hi`. A run that
    /// finds its lane's own invariant broken should panic there.
    pub fn lane(
        &mut self,
        lane: &str,
        runs: usize,
        mut run: impl FnMut() -> Vec<(&'static str, f64)>,
    ) -> Lane {
        assert!(runs >= RUNS, "a lane runs at least {RUNS} times");
        // In the order the first run returned them.
        let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for _ in 0..runs {
            for (key, v) in run() {
                match samples.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, of)) => of.push(v),
                    None => samples.push((key, vec![v])),
                }
            }
        }
        let mut reduced = Lane::new();
        for (key, mut of) in samples {
            assert_eq!(of.len(), runs, "'{key}' must come back from every run");
            let i = reduce(&mut of);
            let full = format!("{lane}_{key}");
            emit(&mut self.bench, &full, i.median);
            emit(&mut self.bench, &format!("{full}_lo"), i.lo);
            emit(&mut self.bench, &format!("{full}_hi"), i.hi);
            self.table.row(&[
                lane.to_string(),
                key.to_string(),
                cell(key, i.median),
                cell(key, i.lo),
                cell(key, i.hi),
            ]);
            reduced.insert(key, i);
        }
        reduced
    }

    /// Record a value that is not a lane's sample: a configuration
    /// constant, an exact count, a ratio of two medians.
    pub fn fact(&mut self, key: &str, v: f64) -> &mut Report {
        emit(&mut self.bench, key, v);
        self.table.row(&[
            "-".into(),
            key.to_string(),
            cell(key, v),
            "-".into(),
            "-".into(),
        ]);
        self
    }

    /// Assert one of the experiment's claims. A failure is remembered
    /// and panics in [`Report::finish`], after the files are written, so
    /// a failing run still leaves its numbers behind.
    pub fn check(&mut self, claim: &str, holds: bool) -> &mut Report {
        println!("  [{}] {claim}", if holds { "ok" } else { "FAILED" });
        if !holds {
            self.failed.push(claim.to_string());
        }
        self
    }

    /// [`Report::check`] that `v` is at least `bound`.
    pub fn at_least(&mut self, what: &str, v: f64, bound: f64) -> &mut Report {
        let claim = format!(
            "{what}: {} (required >= {})",
            cell(what, v),
            cell(what, bound)
        );
        self.check(&claim, v >= bound)
    }

    /// [`Report::check`] that `v` is at most `bound`.
    pub fn at_most(&mut self, what: &str, v: f64, bound: f64) -> &mut Report {
        let claim = format!(
            "{what}: {} (required <= {})",
            cell(what, v),
            cell(what, bound)
        );
        self.check(&claim, v <= bound)
    }

    /// Print the table, write `results/<name>.json` and
    /// `BENCH_<name>.json`, and panic if any [`Report::check`] failed.
    pub fn finish(self) {
        println!();
        self.table.print();
        save_json(&self.name, &self.table);
        self.bench.save(&self.name);
        assert!(
            self.failed.is_empty(),
            "{}: {} claim(s) failed: {:?}",
            self.name,
            self.failed.len(),
            self.failed
        );
        println!("{}: every claim holds.", self.name);
    }

    /// The `BENCH_<name>.json` text so far (for tests of its consumers).
    pub fn json(&self) -> String {
        self.bench.json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_takes_the_median_and_quartiles() {
        let i = reduce(&mut [5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((i.lo, i.median, i.hi), (2.0, 3.0, 4.0));
        let i = reduce(&mut [4.0, 1.0, 3.0, 2.0]);
        assert_eq!((i.lo, i.median, i.hi), (1.0, 2.5, 4.0));
        let i = reduce(&mut [7.0]);
        assert_eq!((i.lo, i.median, i.hi), (7.0, 7.0, 7.0));
        let mut nine: Vec<f64> = (1..=9).map(f64::from).collect();
        let i = reduce(&mut nine);
        assert_eq!((i.lo, i.median, i.hi), (3.0, 5.0, 7.0));
    }

    #[test]
    fn a_lane_lands_as_flat_key_lo_hi_triples() {
        let mut report = Report::new("unit");
        let mut run = 0.0;
        let lane = report.lane("drain", RUNS, || {
            run += 1.0;
            vec![("rec_per_sec", 100.0 * run), ("p99_nanos", 5119.0)]
        });
        assert_eq!(lane["rec_per_sec"].median, 300.0);
        assert_eq!(lane["rec_per_sec"].lo, 200.0);
        report.fact("speedup", 1.5);
        let json = report.json();
        for line in [
            "\"drain_rec_per_sec\": 300",
            "\"drain_rec_per_sec_lo\": 200",
            "\"drain_rec_per_sec_hi\": 400",
            "\"drain_p99_nanos_hi\": 5119",
            "\"speedup\": 1.5",
        ] {
            assert!(json.contains(line), "{line} missing from {json}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 5 times")]
    fn fewer_than_five_runs_is_refused() {
        Report::new("unit").lane("x", 3, Vec::new);
    }
}
