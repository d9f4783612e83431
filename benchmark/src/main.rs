//! The benchmark's command line. Two ways in:
//!
//! * **One run** — `--workload W --seed N --seconds S --trace 0|1` (what
//!   the gate's driver calls): runs that workload once in this process
//!   and ends with one JSON line.
//! * **A set** — no `--trace`: runs every workload (or the one named),
//!   untraced then traced, each in a child process of its own so
//!   `peak_rss_mb` is the workload's and nobody else's; `--repeat K`
//!   runs K untraced sets and checks their agreement against the bounds.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use pario_benchmark::catalogue::{json_number, END_TO_END, WORKLOADS};
use pario_benchmark::run::{Outcome, RunCfg};
use pario_benchmark::{gda, span, ss, stats};

/// Seconds measured per run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// `--smoke`: about a second per run.
const SMOKE_SECONDS: f64 = 1.0;
/// Default workload seed (the paper's year).
const DEFAULT_SEED: u64 = 1989;

const USAGE: &str =
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--smoke]
  with --trace: one run of one workload, ending in one JSON result line
  without:      every workload (or just W), untraced then traced, one process each
  --repeat K    K untraced sets; fails if any end-to-end metric strays from its
                set median by more than its bound
  --smoke       about one second per run";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.seconds = SMOKE_SECONDS,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, args.trace) {
        (Some(w), Some(trace)) => one_run(&RunCfg {
            workload: w.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace,
            out_dir: std::env::var_os("PARIO_BENCH_OUT")
                .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
        }),
        _ => sets(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pario-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in this process and print its metrics and result
/// line. `Ok(false)` when the outputs were wrong.
fn one_run(cfg: &RunCfg) -> Result<bool, String> {
    let out = match cfg.workload.as_str() {
        "span-parity" => span::run(cfg),
        "ss-queue" => ss::run(cfg),
        _ => gda::run(cfg),
    }?;
    println!(
        "# {} seed={} seconds={} trace={} cores={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    print!("{}", render(&out));
    Ok(out.failed == 0)
}

/// The human-readable lines and the final JSON line of a run.
fn render(out: &Outcome) -> String {
    let mut text = String::new();
    for note in &out.notes {
        text.push_str(&format!("# {note}\n"));
    }
    for r in &out.report.values {
        text.push_str(&format!(
            "{:<40} {:>16} {:<6} ({})\n",
            r.decl.name,
            format!("{:.4}", r.value),
            r.decl.unit,
            if r.basis.is_empty() {
                "layer bypassed"
            } else {
                &r.basis
            }
        ));
    }
    text.push_str(&format!(
        "{:<40} {:>16} {:<6} ({} of {} attempted)\n",
        "fail_frac",
        json_number(out.failed as f64 / out.attempted.max(1) as f64),
        "ratio",
        out.failed,
        out.attempted
    ));
    text.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        out.report.json()
    ));
    text
}

/// Run this binary again for one workload; pass its output through and
/// return its end-to-end values when the run was an untraced one.
fn child(args: &Args, workload: &str, trace: bool) -> Result<(bool, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (human, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{human}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} printed no result line ({e}); exit {:?}",
            out.status.code()
        )
    })?;
    let values = if trace {
        Vec::new()
    } else {
        END_TO_END
            .iter()
            .map(|d| {
                parsed["metrics"][d.name]["value"]
                    .as_f64()
                    .unwrap_or(f64::NAN)
            })
            .collect()
    };
    Ok((
        out.status.success() && parsed["correct"].as_bool() == Some(true),
        values,
    ))
}

/// Every workload, `--repeat` untraced sets and one traced set, then
/// the agreement table.
fn sets(args: &Args) -> Result<bool, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    // values[workload][metric] = one value per set.
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
    for set in 0..args.repeat {
        for (w, name) in workloads.iter().enumerate() {
            let (ok, vals) = child(args, name, false)?;
            all_ok &= ok;
            for (m, v) in vals.into_iter().enumerate() {
                values[w][m].push(v);
            }
            if set == 0 {
                all_ok &= child(args, name, true)?.0;
            }
        }
    }
    if args.repeat > 1 {
        println!("\n# agreement of {} sets: max relative deviation from the set median, against the bound", args.repeat);
        for (w, name) in workloads.iter().enumerate() {
            for (m, d) in END_TO_END.iter().enumerate() {
                let vals = &values[w][m];
                let med = stats::median(vals).unwrap_or(f64::NAN);
                let dev = vals
                    .iter()
                    .map(|v| ((v - med) / med).abs())
                    .fold(0.0, f64::max);
                let within = dev <= d.bound;
                all_ok &= within;
                println!(
                    "{name:<12} {:<14} median {med:>14.4} {:<5} max dev {:>6.2} %  bound {:>4.0} %  {}",
                    d.name,
                    d.unit,
                    dev * 100.0,
                    d.bound * 100.0,
                    if within { "ok" } else { "EXCEEDS" }
                );
            }
        }
    }
    if !all_ok {
        println!("# FAILED: wrong outputs or sets that disagree beyond their bounds (see above)");
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_benchmark::catalogue::Report;
    use pario_benchmark::{probe_disk, rig, run};
    use std::sync::Arc;

    /// The oracle end to end: flip one bit of a data block under a GDA
    /// rig and the remount read-back counts a failure, `fail_frac` is
    /// above zero and the result line says `correct: false` (which
    /// `one_run` turns into a non-zero exit).
    #[test]
    fn one_flipped_bit_fails_the_run() {
        let ctl = probe_disk::TraceCtl::new();
        let payload = Arc::new(rig::Payload::new(rig::BS));
        let shape = rig::GdaShape {
            socket: false,
            cache: false,
        };
        let rig = rig::Rig::gda(&ctl, shape, &payload).unwrap();
        let (dev, block) = rig.map[1234];
        let devs = rig.into_devices();
        let (checked, bad, _) =
            run::remount_and_check(&devs, |vol| run::read_back(vol, &payload)).unwrap();
        assert_eq!((checked, bad), (rig::RECORDS, 0), "clean before the flip");

        devs.mems[dev].corrupt_bit(block, 17);
        let (checked, bad, notes) =
            run::remount_and_check(&devs, |vol| run::read_back(vol, &payload)).unwrap();
        assert_eq!((checked, bad), (rig::RECORDS, 1));
        let out = Outcome {
            report: Report::new(&END_TO_END),
            attempted: checked,
            failed: bad,
            notes,
        };
        let text = render(&out);
        let last: serde_json::Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
        assert_eq!(last["correct"].as_bool(), Some(false));
        assert_eq!(last["failed"].as_u64(), Some(1));
        let fail_frac: f64 = text
            .lines()
            .find(|l| l.starts_with("fail_frac"))
            .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
            .unwrap();
        assert!(fail_frac > 0.0);
    }
}
