//! What every workload's run shares: the time plan, repeated set-up
//! timing, the reduction of windows to the end-to-end metrics, and the
//! remount oracle.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_fs::Volume;
use pario_reliability::audit_volume;

use crate::calib::{correction, reading, Calibrator, REFERENCE_NS};
use crate::catalogue::{Report, END_TO_END, PER_LAYER};
use crate::layers::Snapshot;
use crate::measure::{drive, Client, Driven, Schedule};
use crate::probe_disk::TraceCtl;
use crate::procfs::{cpu_us, peak_rss_mb};
use crate::rig::{Devices, Payload, Rig, BS, FILE, RECORDS};
use crate::stats::{
    cv, highest_supported_percentile, median, windowed_latency_us, windowed_median, Reduced, Window,
};
use crate::trace::Peeled;

pub type Res<T> = Result<T, String>;

/// One invocation: one workload, one seed, traced or not.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured part, seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics from untraced windows. `true`: the
    /// per-layer metrics from the traced run.
    pub trace: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub report: Report,
    /// Ops issued plus records checked by the oracle.
    pub attempted: u64,
    /// Errors, refusals, byte mismatches, exactly-once violations and
    /// audit errors among them.
    pub failed: u64,
    /// Free-form lines printed above the metrics.
    pub notes: Vec<String>,
}

/// How a run spends its `--seconds`.
///
/// Untraced (`--trace 0`): all of it in 1 s windows, after a warm-up.
/// Traced (`--trace 1`): 60 % in 0.5 s windows that alternate untraced /
/// traced, 25 % in peeled replays (split evenly over the boundary
/// pairs), the rest for the isolated micro-measurements.
pub struct Plan {
    pub sched: Schedule,
    /// Total time for the peeled replays.
    pub peel: Duration,
}

impl Plan {
    pub fn of(cfg: &RunCfg) -> Plan {
        if cfg.trace {
            Plan {
                sched: Schedule::new(cfg.seconds * 0.6, 0.5, (cfg.seconds * 0.15).min(2.0), true),
                peel: Duration::from_secs_f64(cfg.seconds * 0.25),
            }
        } else {
            Plan {
                sched: Schedule::new(cfg.seconds, 1.0, (cfg.seconds * 0.2).min(3.0), false),
                peel: Duration::ZERO,
            }
        }
    }
}

/// The measured part of a windowed workload.
pub struct Measured {
    pub driven: Driven,
    pub windows: Vec<Window>,
    /// Counter snapshots either side of the measured part (traced
    /// runs only).
    pub snaps: Option<(Snapshot, Snapshot)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Drive `clients` against `rig` through the plan's schedule and cut
/// the result into windows of `bytes_per_op`-sized ops.
pub fn measure<C: Client>(
    cfg: &RunCfg,
    plan: &Plan,
    ctl: &Arc<TraceCtl>,
    rig: &Rig,
    clients: Vec<C>,
    bytes_per_op: u64,
) -> Measured {
    let snap = || Snapshot::take(ctl, &rig.devs, &rig.vol, rig.server.as_ref());
    let mut before = None;
    let (mut driven, clients) = drive(clients, ctl, &plan.sched, || {
        before = cfg.trace.then(snap);
    });
    let snaps = before.map(|b| (b, snap()));
    let windows = driven.windows(&plan.sched, bytes_per_op, !cfg.trace);
    let (attempted, failed) = driven.tally();
    let notes = clients
        .iter()
        .filter_map(|c| c.first_error().map(|e| format!("first client error: {e}")))
        .collect();
    Measured {
        driven,
        windows,
        snaps,
        attempted,
        failed,
        notes,
    }
}

/// Close a windowed run: tear the rig down, run the remount oracle on
/// its file, and report the per-layer metrics if there are any, else
/// the end-to-end ones.
pub fn finish(
    rig: Rig,
    payload: &Payload,
    layer: Option<Report>,
    mut m: Measured,
    setup: &Setup,
) -> Res<Outcome> {
    let devs = rig.into_devices();
    let (checked, bad, more) = remount_and_check(&devs, |vol| read_back(vol, payload))?;
    m.notes.extend(more);
    let report = match layer {
        Some(rep) => rep,
        None => {
            let (rep, note) = end_to_end(&m.windows, setup)?;
            m.notes.push(note);
            rep
        }
    };
    Ok(Outcome {
        report,
        attempted: m.attempted + checked,
        failed: m.failed + bad,
        notes: m.notes,
    })
}

/// File one peeled boundary pair under `<layer>.self_us_read/write`.
pub fn set_peeled(rep: &mut Report, layer: &str, pair: &str, p: &mut Peeled) {
    let basis = format!(
        "median of {}+{} paired differences, {pair}",
        p.read.len(),
        p.write.len()
    );
    let (r, w) = p.median_us();
    rep.set(&format!("{layer}.self_us_read"), r, basis.clone());
    rep.set(&format!("{layer}.self_us_write"), w, basis);
}

/// File the hand-off pair (`io_device` against `device`, reads).
pub fn set_handoff(rep: &mut Report, p: &mut Peeled) {
    let basis = format!("median of {} paired differences, IoDev - Dev", p.read.len());
    rep.set("disk.handoff_us", p.median_us().0, basis);
}

/// How long the rig takes to build.
pub struct Setup {
    /// Median build time, corrected to the reference machine speed.
    pub seconds: f64,
    /// Median build time as the clock read it.
    pub raw_seconds: f64,
    pub builds: usize,
}

/// Build the rig repeatedly — at least three times, until 4 % of the
/// run's seconds are spent, at most 200 times — dropping each before
/// the next so memory does not stack, and return the median build time
/// with the last rig. Cheap set-ups (an empty volume is ~0.1 ms) get
/// hundreds of samples, the parity prefill gets three. A burst of the
/// calibration kernel either side of each build reads the machine's
/// speed, and the CPU share of the whole phase says how much of a
/// build that speed applies to (the `cache-skew` prefill sleeps in its
/// devices). A traced run and a smoke run build once.
pub fn time_setups<R>(
    cfg: &RunCfg,
    ctl: &TraceCtl,
    mut build: impl FnMut() -> Res<R>,
) -> Res<(Setup, R)> {
    const BURST: usize = 32;
    let least = if cfg.trace || cfg.seconds < 5.0 { 1 } else { 3 };
    let budget = Duration::from_secs_f64(cfg.seconds * 0.04);
    let (began, cpu_began) = (Instant::now(), cpu_us());
    let mut cal = Calibrator::default();
    // Per build: seconds as the clock read them, and the speed reading.
    let mut builds: Vec<(f64, Option<f64>)> = Vec::new();
    loop {
        let from = ctl.now_ns();
        (0..BURST).for_each(|_| cal.run(ctl));
        let t0 = Instant::now();
        let rig = build()?;
        let took = t0.elapsed().as_secs_f64();
        (0..BURST).for_each(|_| cal.run(ctl));
        builds.push((took, reading([&cal], from, ctl.now_ns())));
        let n = builds.len();
        if n >= least && (least == 1 || began.elapsed() >= budget || n == 200) {
            let wall_us = began.elapsed().as_micros() as f64;
            // CPU time ticks in 10 ms steps: too coarse under 0.2 s.
            let busy = if wall_us < 2e5 {
                1.0
            } else {
                (cpu_us() - cpu_began) as f64 / wall_us
            };
            let raw: Vec<f64> = builds.iter().map(|b| b.0).collect();
            let corrected: Vec<f64> = builds
                .iter()
                .map(|(took, c)| took * correction(busy, *c))
                .collect();
            let setup = Setup {
                seconds: median(&corrected).expect("at least one build"),
                raw_seconds: median(&raw).expect("at least one build"),
                builds: n,
            };
            return Ok((setup, rig));
        }
        drop(rig);
    }
}

/// The end-to-end report of an untraced run, plus a note with the same
/// numbers before the speed correction. `peak_rss_mb` is read here, so
/// call this last.
pub fn end_to_end(windows: &[Window], setup: &Setup) -> Res<(Report, String)> {
    let mut rep = Report::new(&END_TO_END);
    let ops = windowed_median(windows, |w| Some(w.ops_per_s()), |w| w.ops() as usize)
        .ok_or("no measured window")?;
    let basis = |r: &Reduced| format!("median of {} windows, {} ops", r.windows, r.samples);
    rep.set("ops_per_s", ops.value, basis(&ops));
    let mb = windowed_median(
        windows,
        |w| Some(w.bytes as f64 / 1e6 / w.seconds()),
        |w| w.ops() as usize,
    )
    .expect("same windows as ops_per_s");
    rep.set("mb_per_s", mb.value, basis(&mb));
    for (name, write) in [("read_p50_us", false), ("write_p50_us", true)] {
        let r = windowed_latency_us(windows, write, 0.5)
            .ok_or_else(|| format!("no {name} sample in any window"))?;
        rep.set(name, r.value, basis(&r));
    }
    rep.set(
        "setup_s",
        setup.seconds,
        format!("median of {} builds", setup.builds),
    );
    rep.set("peak_rss_mb", peak_rss_mb(), "VmHWM at exit");

    let raw = |f: &dyn Fn(&Window) -> Option<f64>| {
        median(&windows.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let note = format!(
        "as the clock read them, before the speed correction: ops_per_s={:.1} read_p50_us={:.3} write_p50_us={:.3} setup_s={:.6}; median window correction={:.4}",
        raw(&|w| Some(w.ops() as f64 * 1e9 / w.nanos as f64)),
        raw(&|w| w.latency_us(false, 0.5).map(|us| us / w.scale)),
        raw(&|w| w.latency_us(true, 0.5).map(|us| us / w.scale)),
        setup.raw_seconds,
        raw(&|w| Some(w.scale)),
    );
    Ok((rep, note))
}

/// A per-layer report with the numbers that come from the windows
/// alone: the tails, the run's own noise reading, the tracing overhead
/// (traced against untraced windows of the same run), and the machine
/// speed `calib_ns` the run was taken at (per-layer times are reported
/// as the clock read them). Also returns the read p50 of the untraced
/// windows, microseconds, for the per-layer times to be held against.
pub fn layer_report(
    windows: &[Window],
    sched: &Schedule,
    calib_ns: Option<f64>,
) -> (Report, Vec<String>, f64) {
    let mut rep = Report::new(&PER_LAYER);
    let mut notes = Vec::new();
    rep.set(
        "proc.calib_ns",
        calib_ns.unwrap_or(0.0),
        format!("lower quartile of the calibration kernel; the end-to-end metrics are corrected to {REFERENCE_NS} ns"),
    );
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (i, w) in windows.iter().enumerate() {
        if sched.traced(i) {
            traced.push(w);
        } else {
            plain.push(w);
        }
    }
    let rate = |ws: &[&Window]| {
        let v: Vec<f64> = ws.iter().map(|w| w.ops_per_s()).collect();
        (median(&v).unwrap_or(0.0), v)
    };
    let (plain_rate, plain_rates) = rate(&plain);
    let (traced_rate, _) = rate(&traced);
    rep.set(
        "tail.window_cv",
        cv(&plain_rates),
        format!("{} untraced windows", plain.len()),
    );
    if plain_rate > 0.0 && !traced.is_empty() {
        rep.set(
            "trace.overhead_frac",
            1.0 - traced_rate / plain_rate,
            format!(
                "{traced_rate:.0} traced vs {plain_rate:.0} untraced ops/s, {}+{} interleaved windows",
                traced.len(),
                plain.len()
            ),
        );
    }
    for (name, write) in [("tail.read_p99_us", false), ("tail.write_p99_us", true)] {
        if let Some(r) = windowed_latency_us(plain.iter().copied(), write, 0.99) {
            let per = r.samples / r.windows;
            let mut basis = format!("median of {} windows, {} ops", r.windows, r.samples);
            match highest_supported_percentile(per) {
                Some(q) if q >= 0.99 => {}
                Some(q) => basis.push_str(&format!(
                    "; {per} samples a window carry only p{:.0} with ten beyond, so this reads as a window maximum",
                    q * 100.0
                )),
                None => basis.push_str(&format!("; {per} samples a window carry no percentile")),
            }
            rep.set(name, r.value, basis);
        }
    }
    let p50 =
        |write| windowed_latency_us(plain.iter().copied(), write, 0.5).map_or(0.0, |r| r.value);
    notes.push(format!(
        "untraced windows of this run: {plain_rate:.0} ops/s, read_p50_us {:.2}, write_p50_us {:.2}",
        p50(false),
        p50(true)
    ));
    (rep, notes, p50(false))
}

/// The remount oracle: with the old volume gone, mount the devices
/// again, hand the fresh volume to `check` (which returns records
/// checked and records wrong), then audit the metadata. Returns
/// `(checked, failed, notes)` with audit errors counted as failures.
pub fn remount_and_check(
    devs: &Devices,
    check: impl FnOnce(&Volume) -> Res<(u64, u64)>,
) -> Res<(u64, u64, Vec<String>)> {
    let vol = Volume::mount(devs.refs()).map_err(|e| format!("remount: {e}"))?;
    let (checked, mut bad) = check(&vol)?;
    let audit = audit_volume(&vol).map_err(|e| format!("audit: {e}"))?;
    bad += audit.errors.len() as u64;
    let mut notes = vec![format!(
        "oracle: remounted, {checked} records read back, {bad} wrong; audit of {} files / {} extents: {}",
        audit.files,
        audit.extents,
        if audit.is_clean() { "clean" } else { "ERRORS" }
    )];
    notes.extend(audit.errors.iter().map(|e| format!("audit error: {e}")));
    Ok((checked, bad, notes))
}

/// Read the rig's file back through `read_span` and count the records
/// that differ from their payload.
pub fn read_back(vol: &Volume, payload: &Payload) -> Res<(u64, u64)> {
    const CHUNK: u64 = 256;
    let raw = vol
        .open(FILE)
        .map_err(|e| format!("open after remount: {e}"))?;
    if raw.len_records() != RECORDS {
        return Ok((RECORDS, RECORDS));
    }
    let mut buf = vec![0u8; CHUNK as usize * BS];
    let mut bad = 0;
    for first in (0..RECORDS).step_by(CHUNK as usize) {
        raw.read_span(first * BS as u64, &mut buf)
            .map_err(|e| format!("read back: {e}"))?;
        bad += payload.mismatches(first, &buf);
    }
    Ok((RECORDS, bad))
}
