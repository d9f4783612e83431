//! `xtask bench-diff` — compare two `BENCH_*.json` files and flag
//! latency and throughput regressions.
//!
//! The bench summaries are flat JSON objects of numbers and strings
//! (see `pario_bench::table::Bench`); a measured key `k` comes with its
//! quartiles as `k_lo` and `k_hi` (`pario_bench::measure`). This task
//! parses them with a purpose-built scanner (xtask takes no
//! dependencies), lines up the numeric keys both files share, and
//! prints the relative change per key. Two kinds of key are gated: one
//! containing `p99` (higher is worse) and one ending in `_per_sec`
//! (lower is worse). Such a key **regressed** when its new interval
//! lies wholly past the old one by more than the threshold (default
//! 10%) — a key without quartiles is an interval of one point — and
//! any regression fails the task: wire it between a baseline and a
//! candidate run in CI and neither a p99 cliff nor a lost ceiling can
//! land silently, while two runs whose quartiles overlap never trip it.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A flat JSON object's values: numbers compared, strings displayed.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(f64),
    Str(String),
}

/// Parse a flat JSON object (`{"key": 1.5, "other": "text", ...}`) —
/// exactly the shape `Bench::save` writes. Nested objects/arrays are
/// rejected; the bench files never contain them.
pub fn parse_flat_json(text: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.ws();
    if p.peek() == Some(b'}') {
        return Ok(map);
    }
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        let v = match p.peek() {
            Some(b'"') => Value::Str(p.string()?),
            Some(c) if c == b'-' || c.is_ascii_digit() => Value::Num(p.number()?),
            other => return Err(format!("unsupported value at byte {}: {other:?}", p.i)),
        };
        map.insert(key, v);
        p.ws();
        match p.peek() {
            Some(b',') => p.i += 1,
            Some(b'}') => return Ok(map),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, got {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\' | b'/')) => s.push(c as char),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    s.push(c as char);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Which way a gated key gets worse.
enum Gate {
    /// Latency: a `p99` key regresses upward.
    HigherIsWorse,
    /// Throughput: a `*_per_sec` key regresses downward.
    LowerIsWorse,
}

/// How `key` is gated; `None` for an informational key.
fn gate(key: &str) -> Option<Gate> {
    if key.contains("p99") {
        Some(Gate::HigherIsWorse)
    } else if key.ends_with("_per_sec") {
        Some(Gate::LowerIsWorse)
    } else {
        None
    }
}

/// Is `key` the `_lo` or `_hi` of a key `map` also holds?
fn is_quartile(map: &BTreeMap<String, Value>, key: &str) -> bool {
    key.strip_suffix("_lo")
        .or_else(|| key.strip_suffix("_hi"))
        .is_some_and(|base| matches!(map.get(base), Some(Value::Num(_))))
}

/// `key`'s quartiles in `map`, each falling back to the value `v`.
fn interval(map: &BTreeMap<String, Value>, key: &str, v: f64) -> (f64, f64) {
    let side = |suffix: &str| match map.get(&format!("{key}{suffix}")) {
        Some(Value::Num(q)) => *q,
        _ => v,
    };
    (side("_lo"), side("_hi"))
}

/// One shared numeric key's comparison: (key, old, new, new/old ratio).
pub type KeyDelta = (String, f64, f64, f64);

/// Compare two parsed bench maps; returns (every shared measured key's
/// delta — quartile keys ride with the key they belong to — and a line
/// for each gated key that regressed past `threshold`).
pub fn compare(
    old: &BTreeMap<String, Value>,
    new: &BTreeMap<String, Value>,
    threshold: f64,
) -> (Vec<KeyDelta>, Vec<String>) {
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    for (key, ov) in old {
        let (Value::Num(o), Some(Value::Num(n))) = (ov, new.get(key)) else {
            continue;
        };
        if is_quartile(old, key) {
            continue;
        }
        let ratio = match (*o == 0.0, *n == 0.0) {
            (true, true) => 1.0,
            (true, false) => f64::INFINITY,
            _ => n / o,
        };
        let ((old_lo, old_hi), (new_lo, new_hi)) = (interval(old, key, *o), interval(new, key, *n));
        let regressed = match gate(key) {
            Some(Gate::HigherIsWorse) => new_lo > old_hi + threshold * old_hi.abs(),
            Some(Gate::LowerIsWorse) => new_hi < old_lo - threshold * old_lo.abs(),
            None => false,
        };
        if regressed {
            regressions.push(format!(
                "{key}: {o:.0} [{old_lo:.0}, {old_hi:.0}] -> {n:.0} [{new_lo:.0}, {new_hi:.0}] ({:+.1}%)",
                (ratio - 1.0) * 100.0
            ));
        }
        deltas.push((key.clone(), *o, *n, ratio));
    }
    (deltas, regressions)
}

/// Entry point: `xtask bench-diff <old.json> <new.json> [--threshold PCT]`.
pub fn run(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut threshold = 0.10;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("xtask bench-diff: --threshold needs a number (percent)");
                return ExitCode::FAILURE;
            };
            threshold = v / 100.0;
        } else {
            files.push(a.clone());
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!(
            "usage: cargo run -p xtask -- bench-diff <old.json> <new.json> [--threshold PCT]"
        );
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<BTreeMap<String, Value>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("xtask bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (deltas, regressions) = compare(&old, &new, threshold);
    if deltas.is_empty() {
        eprintln!("xtask bench-diff: no shared numeric keys between the files");
        return ExitCode::FAILURE;
    }
    println!(
        "bench-diff {old_path} -> {new_path} (threshold {:.0}%):",
        threshold * 100.0
    );
    for (key, o, n, ratio) in &deltas {
        let marker = if regressions
            .iter()
            .any(|r| r.starts_with(&format!("{key}:")))
        {
            "  <-- REGRESSION"
        } else {
            ""
        };
        println!(
            "  {key}: {o:.2} -> {n:.2} ({:+.1}%){marker}",
            (ratio - 1.0) * 100.0
        );
    }
    if regressions.is_empty() {
        println!("bench-diff: no p99 or throughput interval past the threshold");
        ExitCode::SUCCESS
    } else {
        println!("bench-diff: {} regression(s):", regressions.len());
        for r in &regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nums(pairs: &[(&str, f64)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::Num(v)))
            .collect()
    }

    #[test]
    fn parses_bench_shape() {
        let m = parse_flat_json(
            "{\n  \"experiment\": \"e19_scale\",\n  \"sat_fast_ops_per_sec\": 86829.5,\n  \"sweep_x025_p99_nanos\": 1048576\n}",
        )
        .unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m["experiment"], Value::Str("e19_scale".into()));
        assert_eq!(m["sat_fast_ops_per_sec"], Value::Num(86829.5));
        assert_eq!(m["sweep_x025_p99_nanos"], Value::Num(1_048_576.0));
        assert!(parse_flat_json("{}").unwrap().is_empty());
        assert!(parse_flat_json("{\"a\": [1]}").is_err());
        assert!(parse_flat_json("not json").is_err());
    }

    #[test]
    fn flags_p99_growth_and_throughput_loss_past_threshold() {
        let old = nums(&[
            ("sweep_x100_p99_nanos", 1000.0),
            ("sweep_x100_p50_nanos", 500.0),
            ("sat_fast_ops_per_sec", 100.0),
            ("depth1_rec_per_sec", 100.0),
            ("steady_overwrite_secs", 1.0),
        ]);
        // p99 +50% and throughput -90% regress; p50 growth, throughput
        // gain and a slower informational key do not.
        let new = nums(&[
            ("sweep_x100_p99_nanos", 1500.0),
            ("sweep_x100_p50_nanos", 5000.0),
            ("sat_fast_ops_per_sec", 10.0),
            ("depth1_rec_per_sec", 1000.0),
            ("steady_overwrite_secs", 9.0),
        ]);
        let (deltas, regressions) = compare(&old, &new, 0.10);
        assert_eq!(deltas.len(), 5);
        assert_eq!(regressions.len(), 2, "{regressions:?}");
        assert!(regressions[0].starts_with("sat_fast_ops_per_sec"));
        assert!(regressions[1].starts_with("sweep_x100_p99_nanos"));
    }

    #[test]
    fn within_threshold_is_clean() {
        let old = nums(&[("a_p99_nanos", 1000.0), ("a_per_sec", 1000.0)]);
        let new = nums(&[("a_p99_nanos", 1050.0), ("a_per_sec", 950.0)]);
        let (_, regressions) = compare(&old, &new, 0.10);
        assert!(regressions.is_empty(), "{regressions:?}");
        // A shrinking p99 and a growing rate are never regressions.
        let (_, r2) = compare(&new, &old, 0.10);
        assert!(r2.is_empty());
    }

    /// `key` at `v` between quartiles `lo` and `hi`.
    fn measured(key: &str, lo: f64, v: f64, hi: f64) -> BTreeMap<String, Value> {
        nums(&[
            (key, v),
            (&format!("{key}_lo"), lo),
            (&format!("{key}_hi"), hi),
        ])
    }

    #[test]
    fn a_throughput_interval_wholly_below_the_old_one_fails() {
        let old = measured("sat_ops_per_sec", 95_000.0, 100_000.0, 105_000.0);
        // Upper quartile 84 000 < 95 000 less 10 %.
        let new = measured("sat_ops_per_sec", 70_000.0, 80_000.0, 84_000.0);
        let (deltas, regressions) = compare(&old, &new, 0.10);
        assert_eq!(deltas.len(), 1, "quartile keys ride with their key");
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("sat_ops_per_sec:"));
        assert!(compare(&new, &old, 0.10).1.is_empty(), "a gain is clean");
    }

    #[test]
    fn a_p99_interval_wholly_above_the_old_one_fails() {
        let old = measured("oversub_p99_nanos", 3_500_000.0, 3_670_015.0, 3_800_000.0);
        // Lower quartile 4 300 000 > 3 800 000 plus 10 %.
        let new = measured("oversub_p99_nanos", 4_300_000.0, 4_456_447.0, 6_000_000.0);
        let (_, regressions) = compare(&old, &new, 0.10);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("oversub_p99_nanos:"));
        assert!(compare(&new, &old, 0.10).1.is_empty(), "a gain is clean");
    }

    #[test]
    fn overlapping_intervals_pass_whatever_the_medians_say() {
        // Medians 30 % apart either way, but the quartiles reach each
        // other (within the threshold): neither run resolves a change.
        let old = measured("sat_ops_per_sec", 70_000.0, 100_000.0, 110_000.0);
        let new = measured("sat_ops_per_sec", 60_000.0, 70_000.0, 75_000.0);
        assert!(compare(&old, &new, 0.10).1.is_empty());
        let old = measured("x_p99_nanos", 900.0, 1000.0, 1300.0);
        let new = measured("x_p99_nanos", 1400.0, 1500.0, 1600.0);
        assert!(compare(&old, &new, 0.10).1.is_empty());
    }

    #[test]
    fn missing_and_non_numeric_keys_are_skipped() {
        let mut old = nums(&[("x_p99_nanos", 100.0)]);
        old.insert("experiment".into(), Value::Str("e".into()));
        let new = nums(&[("y_p99_nanos", 100.0)]);
        let (deltas, regressions) = compare(&old, &new, 0.10);
        assert!(deltas.is_empty());
        assert!(regressions.is_empty());
    }

    /// Every committed `BENCH_*.json` holds measurements, not bucket
    /// edges or single shots: each `*_nanos` key is off a power of two
    /// (the log₂ histogram could report nothing else) and sits between
    /// its `_lo` and `_hi`.
    #[test]
    fn committed_latencies_are_measured_intervals() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).expect("the repo root lists") {
            let path = entry.expect("a readable entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let map = parse_flat_json(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            for (key, v) in &map {
                let (Value::Num(v), true) = (v, key.ends_with("_nanos")) else {
                    continue;
                };
                assert!(
                    !(v.fract() == 0.0 && (*v as u64).is_power_of_two()),
                    "{name}: {key} = {v} is a power of two"
                );
                let (lo, hi) = interval(&map, key, f64::NAN);
                assert!(
                    lo <= *v && *v <= hi,
                    "{name}: {key} = {v} outside [{lo}, {hi}]"
                );
            }
        }
        assert!(files >= 7, "E14–E20 each commit a summary; found {files}");
    }

    /// The scanner must round-trip anything the *actual* emitter
    /// (`pario_bench::table::Bench`) writes: every `num`/`int`/`label`
    /// field comes back under its key with the value bench-diff will
    /// compare. Floats are exact (`{:?}` is the shortest round-tripping
    /// form and `str::parse::<f64>` inverts it); integers past 2^53
    /// compare as their nearest f64, which is also what a decimal parse
    /// of the exact digits yields.
    mod roundtrip {
        use super::*;
        use pario_bench::table::Bench;
        use proptest::collection::vec;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Field {
            Num(f64),
            Int(u64),
            Label(String),
        }

        /// Bench keys in the wild: lowercase metric paths, sometimes
        /// dotted (`sweep.x025.p99_nanos`).
        fn key() -> impl Strategy<Value = String> {
            const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
            vec(0usize..ALPHA.len(), 1..17)
                .prop_map(|ix| ix.into_iter().map(|i| ALPHA[i] as char).collect())
        }

        /// Finite floats across the magnitudes `Bench::num` sees, so the
        /// emitter exercises both plain (`1.5`) and exponent (`1e300`,
        /// `6.1e-7`) notation.
        fn float() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                -1.0e9..1.0e9,
                (0.0..1.0).prop_map(|x| x * 1.0e300),
                (0.0..1.0).prop_map(|x| x * 1.0e-300),
                (1.0e-9..1.0).prop_map(|x| -x),
            ]
        }

        /// Label text: printable ASCII plus the escapes both the emitter
        /// and the scanner speak (`\"`, `\\`, `\n`, `\t`). The summaries
        /// are ASCII by construction, and the scanner is byte-wise, so
        /// non-ASCII is out of contract.
        fn label() -> impl Strategy<Value = String> {
            const CHARS: &[u8] = b" abcXYZ089_-./:()%\"\\\n\t";
            vec(0usize..CHARS.len(), 0..24)
                .prop_map(|ix| ix.into_iter().map(|i| CHARS[i] as char).collect())
        }

        fn field() -> impl Strategy<Value = Field> {
            prop_oneof![
                float().prop_map(Field::Num),
                any::<u64>().prop_map(Field::Int),
                label().prop_map(Field::Label),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            fn parser_roundtrips_bench_output(fields in vec((key(), field()), 0..12)) {
                let mut bench = Bench::new();
                let mut expected: BTreeMap<String, Value> = BTreeMap::new();
                // Apply in order: a repeated key overwrites in both the
                // emitter's map and the expectation.
                for (k, f) in &fields {
                    match f {
                        Field::Num(v) => {
                            bench.num(k, *v);
                            expected.insert(k.clone(), Value::Num(*v));
                        }
                        Field::Int(v) => {
                            bench.int(k, *v);
                            expected.insert(k.clone(), Value::Num(*v as f64));
                        }
                        Field::Label(s) => {
                            bench.label(k, s);
                            expected.insert(k.clone(), Value::Str(s.clone()));
                        }
                    }
                }
                let parsed = parse_flat_json(&bench.json()).expect("emitter output must parse");
                prop_assert_eq!(parsed, expected);
            }

            /// What `Measured::lane` emits for a measured key — `key`,
            /// `key_lo`, `key_hi` — comes back as the reducer's own
            /// interval, ordered, and self-compares clean under either
            /// gate.
            fn lane_triples_roundtrip(
                runs in vec((float(), float(), float()), pario_bench::measure::RUNS..12),
            ) {
                use pario_bench::measure::{reduce, Measured};
                const KEYS: [&str; 3] = ["rec_per_sec", "p99_nanos", "secs"];
                let mut report = Measured::new("roundtrip");
                let mut next = runs.iter();
                report.lane("lane", runs.len(), || {
                    let &(a, b, c) = next.next().expect("one call a run");
                    vec![(KEYS[0], a), (KEYS[1], b), (KEYS[2], c)]
                });
                let parsed = parse_flat_json(&report.json()).expect("emitter output must parse");
                for (i, key) in KEYS.iter().enumerate() {
                    let mut samples: Vec<f64> =
                        runs.iter().map(|r| [r.0, r.1, r.2][i]).collect();
                    let want = reduce(&mut samples);
                    let num = |suffix: &str| match parsed.get(&format!("lane_{key}{suffix}")) {
                        Some(Value::Num(v)) => *v,
                        other => panic!("lane_{key}{suffix}: {other:?}"),
                    };
                    prop_assert_eq!((num("_lo"), num(""), num("_hi")), (want.lo, want.median, want.hi));
                    prop_assert!(want.lo <= want.median && want.median <= want.hi);
                }
                let (deltas, regressions) = compare(&parsed, &parsed, 0.10);
                prop_assert_eq!(deltas.len(), KEYS.len(), "quartile keys ride with their key");
                prop_assert!(regressions.is_empty(), "{:?}", regressions);
            }

            fn self_diff_is_always_clean(fields in vec((key(), field()), 1..12)) {
                let mut bench = Bench::new();
                for (k, f) in &fields {
                    match f {
                        Field::Num(v) => bench.num(k, *v),
                        Field::Int(v) => bench.int(k, *v),
                        Field::Label(s) => bench.label(k, s),
                    };
                }
                let m = parse_flat_json(&bench.json()).expect("emitter output must parse");
                let (deltas, regressions) = compare(&m, &m, 0.10);
                prop_assert!(regressions.is_empty(), "{:?}", regressions);
                // Every shared numeric key self-compares at ratio 1.
                prop_assert!(deltas.iter().all(|(_, _, _, r)| *r == 1.0), "{:?}", deltas);
            }
        }
    }
}
