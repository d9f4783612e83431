//! Markdown-ish tables, their JSON form, and the flat benchmark summary.

use std::fmt::Write as _;

/// A simple aligned table accumulated row by row.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "column count");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned pipes.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            out.push('|');
            for i in 0..ncols {
                let _ = write!(out, " {:>w$} |", cells[i], w = widths[i]);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Serialise as a JSON array of objects keyed by header.
    pub fn to_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .rows
            .iter()
            .map(|row| {
                let map: serde_json::Map<String, serde_json::Value> = self
                    .headers
                    .iter()
                    .zip(row)
                    .map(|(h, c)| (h.clone(), serde_json::Value::String(c.clone())))
                    .collect();
                serde_json::Value::Object(map)
            })
            .collect();
        serde_json::Value::Array(rows)
    }
}

/// A flat benchmark summary accumulated key by key, saved as
/// `BENCH_<name>.json` in the working directory — the repo root when
/// run through `run_experiments.sh` or CI. Unlike the `results/` tables
/// these are machine-readable objects for regression tracking.
#[derive(Default)]
pub struct Bench {
    map: serde_json::Map<String, serde_json::Value>,
}

impl Bench {
    /// An empty summary.
    pub fn new() -> Bench {
        Bench::default()
    }

    /// Record a floating-point metric.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Bench {
        self.map.insert(
            key.to_string(),
            serde_json::Value::Number(serde_json::Number::F64(v)),
        );
        self
    }

    /// Record an integer metric.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Bench {
        self.map.insert(
            key.to_string(),
            serde_json::Value::Number(serde_json::Number::U64(v)),
        );
        self
    }

    /// Record a string field.
    pub fn label(&mut self, key: &str, v: &str) -> &mut Bench {
        self.map
            .insert(key.to_string(), serde_json::Value::String(v.to_string()));
        self
    }

    /// The exact JSON text saved as `BENCH_<name>.json`. Exposed so tools
    /// that consume these summaries (`xtask bench-diff`) can be tested
    /// against the real emitter rather than a hand-written imitation.
    pub fn json(&self) -> String {
        let value = serde_json::Value::Object(self.map.clone());
        serde_json::to_string_pretty(&value)
            .expect("a flat map of numbers and strings always serializes")
    }
}

/// Format a byte rate human-readably.
pub fn rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e6 {
        format!("{:.2} MB/s", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{:.1} KB/s", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec:.0} B/s")
    }
}

/// Format seconds human-readably.
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["100".into(), "x".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert_eq!(lines[1].matches('|').count(), 3);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn json_shape() {
        let mut t = Table::new(&["k"]);
        t.row(&["v".into()]);
        let j = t.to_json();
        assert_eq!(j[0]["k"], "v");
    }

    #[test]
    fn formatters() {
        assert_eq!(rate(2_500_000.0), "2.50 MB/s");
        assert_eq!(rate(1_500.0), "1.5 KB/s");
        assert_eq!(rate(10.0), "10 B/s");
        assert_eq!(secs(2.5), "2.500 s");
        assert_eq!(secs(0.002), "2.000 ms");
        assert_eq!(secs(0.0000005), "0.5 us");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        Table::new(&["a", "b"]).row(&["only-one".into()]);
    }
}
