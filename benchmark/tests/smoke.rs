//! `--smoke`-sized runs of the real binary, held against `BENCHMARK.json`:
//! every declared name is emitted exactly once per workload with the
//! declared unit, nothing undeclared is emitted, and the catalogue in
//! the crate says the same as the file the gate reads.

use std::collections::BTreeMap;
use std::process::Command;

use pario_benchmark::catalogue::{Decl, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `name -> (unit, better)` of one of the file's metric lists.
fn declared(file: &Value, list: &str) -> BTreeMap<String, (String, String)> {
    file[list]
        .as_array()
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                (
                    m["unit"].as_str().expect("unit").to_string(),
                    m["better"].as_str().expect("better").to_string(),
                ),
            )
        })
        .collect()
}

fn check_catalogue(file: &Value, list: &str, decls: &[Decl]) {
    let declared = declared(file, list);
    assert_eq!(
        declared.len(),
        decls.len(),
        "{list}: same number of metrics"
    );
    for d in decls {
        let (unit, better) = declared
            .get(d.name)
            .unwrap_or_else(|| panic!("{} missing from BENCHMARK.json {list}", d.name));
        assert_eq!(unit, d.unit, "{}", d.name);
        assert_eq!(
            better,
            if d.higher { "higher" } else { "lower" },
            "{}",
            d.name
        );
    }
}

#[test]
fn catalogue_and_benchmark_json_agree() {
    let file = benchmark_json();
    check_catalogue(&file, "end_to_end", &END_TO_END);
    check_catalogue(&file, "per_layer", &PER_LAYER);
    for (m, d) in file["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .zip(&END_TO_END)
    {
        assert_eq!(m["bound"].as_f64(), Some(d.bound), "{}", d.name);
    }
    let names: Vec<&str> = file["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(file["paths"][0], "benchmark");
    assert!(file["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));
}

/// One smoke run; returns the result line, raw and parsed.
fn smoke(workload: &str, trace: bool, out_dir: &std::path::Path) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_pario-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("PARIO_BENCH_OUT", out_dir)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    let parsed = serde_json::from_str(&line)
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON: {e}"));
    (line, parsed)
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let file = benchmark_json();
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{}", std::process::id()));
    for workload in WORKLOADS {
        let mut layers = Value::Null;
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let declared = declared(&file, list);
            let (line, result) = smoke(workload, trace, &out_dir);
            assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            let keys: Vec<&String> = result.as_object().unwrap().iter().map(|(k, _)| k).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = result["metrics"].as_object().expect("metrics object");
            assert_eq!(
                metrics.len(),
                declared.len(),
                "{workload} {list}: nothing undeclared"
            );
            for (name, (unit, _)) in &declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
                assert_eq!(
                    line.matches(&format!("\"{name}\":")).count(),
                    1,
                    "{workload}: {name} emitted exactly once"
                );
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{workload} {name}");
                assert!(
                    m["value"].as_f64().is_some(),
                    "{workload} {name} has a number"
                );
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
            if trace {
                layers = result["metrics"].clone();
            } else {
                for (name, m) in metrics.iter() {
                    assert!(
                        m["value"].as_f64().unwrap() > 0.0,
                        "{workload}: end-to-end metric {name} must never be 0"
                    );
                }
            }
        }
        // The bypass property, straight from the issue's acceptance list.
        let zero = |prefix: &str| {
            layers
                .as_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .all(|(_, v)| v["value"].as_f64() == Some(0.0))
        };
        if workload != "gda-socket" {
            assert!(zero("net."), "{workload}: net.* must be zero");
        }
        if workload != "cache-skew" {
            assert!(zero("buffer."), "{workload}: buffer.* must be zero");
        }
        if ["span-parity", "ss-queue"].contains(&workload) {
            assert!(zero("server."), "{workload}: server.* must be zero");
        }
        let trace_file = out_dir.join(format!("trace-{workload}.json"));
        let trace: Value = serde_json::from_str(&std::fs::read_to_string(&trace_file).unwrap())
            .unwrap_or_else(|e| panic!("{trace_file:?} is not JSON: {e}"));
        assert!(
            !trace["spans"].as_array().unwrap().is_empty(),
            "{workload}: empty trace"
        );
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
