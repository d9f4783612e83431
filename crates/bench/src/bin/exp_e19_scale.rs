//! E19 — the scale harness: open-loop load, the saturation ceiling, and
//! the overload knee.
//!
//! Every other service-layer experiment is closed-loop: clients wait
//! for each reply, so offered load politely adapts to the service rate
//! and overload is invisible. E19 drives the server **open-loop** — a
//! fixed arrival schedule from [`OpenLoop`], a shared fetch-add cursor
//! so no scheduled arrival is stranded behind a slow worker, and per-op
//! latency measured from each operation's *intended* start (coordinated-
//! omission safe). The experiment demonstrates, and *asserts*:
//!
//! * **The saturation ceiling is measured.** 64 concurrent sessions
//!   flood an 8-permit limit; the achieved rate is the in-process
//!   ceiling every other lane is scaled against.
//! * **The open-loop knee exists.** Sweeping offered rate from 0.25x to
//!   4x of measured saturation, p99 latency climbs a cliff past
//!   saturation (at least [`KNEE_BOUND`]x from the lowest to the highest
//!   rate) while sub-saturation goodput tracks the offered rate. The
//!   same discipline over `pario-net` shows the same cliff.
//! * **Goodput accounting adds up.** `AdmissionStats::total_admitted`
//!   equals the operations driven in every run, so achieved rates come
//!   straight from the server, and the same counter crosses the wire in
//!   the `pario-net` lane's `StatsSummary`.
//! * **Overload and degraded routing compose.** The flood keeps
//!   arriving while one shadow-pair device runs a transient schedule
//!   with a mid-flood fail-stop; the health board walks it to Failed
//!   and every read completes via the surviving shadow.
//!
//! Set `EXP_SMOKE=1` for a CI-sized run (same lanes and assertions,
//! fewer operations per lane).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pario_bench::measure::{nanos, Report, RUNS};
use pario_bench::rig::{clients, fill, inject, mirrored, serve, smoke, Rig};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_disk::FaultPlan;
use pario_fs::Volume;
use pario_net::NetClient;
use pario_server::{quantile_nanos, LatencyHistogram, Saturation, Server, ServerConfig};
use pario_workloads::OpenLoop;

/// Concurrent sessions (and worker threads) driving the server — the
/// oversubscription the acceptance criterion names.
const SESSIONS: usize = 64;
/// Admission limit: 8x oversubscribed by the session population.
const LIMIT: usize = 8;
/// Records in the GDA file the load addresses.
const RECORDS: u64 = 2048;
/// Required p99 climb from the 0.25x lane to the 4x lane.
const KNEE_BOUND: f64 = 4.0;
/// Required goodput fraction of offered load below saturation.
const GOODPUT_BOUND: f64 = 0.7;
/// Required p99 climb across the net lane's below/above-saturation pair.
const NET_KNEE_BOUND: f64 = 1.5;
/// An offered rate far past any achievable throughput: the schedule is
/// due "immediately", so the run measures pure saturation throughput.
const FLOOD_RATE: f64 = 5e7;
/// Connections in the net lane.
const NET_CONNS: usize = 8;

/// A server admitting [`LIMIT`] operations over `volume`, holding the
/// [`RECORDS`]-record GDA file "scale" (mirrored when `mirror`).
fn scale_server(volume: Volume, mirror: bool) -> Server {
    let org = Organization::GlobalDirect;
    let pf = if mirror {
        ParallelFile::create_with_layout(&volume, "scale", org, BS, 1, mirrored(2), None)
    } else {
        ParallelFile::create(&volume, "scale", org, BS, 1)
    };
    fill(&pf.unwrap(), RECORDS);
    Server::new(
        volume,
        ServerConfig {
            max_in_flight: LIMIT,
            saturation: Saturation::Block,
        },
    )
}

/// The healthy rig: 4 undelayed memory devices — the
/// per-op work is a block read, cheap enough that the
/// admission/completion path is what is being measured.
fn healthy_server() -> Server {
    scale_server(Rig::new(4).volume(), false)
}

/// Park until `due_nanos` past `start`: sleep out large gaps, yield the
/// rest — 64 workers on small hosts must not spin-burn the core that
/// the server needs.
fn wait_until(start: Instant, due_nanos: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_nanos {
            return;
        }
        let gap = due_nanos - now;
        if gap > 2_000_000 {
            std::thread::sleep(Duration::from_nanos(gap - 1_000_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Offer `ops` uniform reads at `rate` with `workers` threads pulling
/// operations off a shared fetch-add cursor. Each op waits for its
/// intended start, runs, and its latency is taken **from the intended
/// start** — a stalled server cannot hide the queueing delay it causes.
/// `setup` builds each worker's read closure (session, handle, buffer)
/// on its own thread. Returns the achieved rate and the p50/p99/p999.
fn drive<S, F>(rate: f64, ops: u64, seed: u64, workers: usize, setup: S) -> Vec<(&'static str, f64)>
where
    S: Fn() -> F + Sync,
    F: FnMut(u64),
{
    let plan = OpenLoop {
        rate,
        ops,
        records: RECORDS,
        theta: 0.0,
        write_fraction: 0.0,
        seed,
    }
    .plan();
    let hist = LatencyHistogram::default();
    let cursor = AtomicU64::new(0);
    let t0 = Instant::now();
    let secs = clients(workers, |_| {
        let mut read = setup();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
            if i >= plan.arrivals.len() {
                break;
            }
            let due = plan.arrivals[i];
            wait_until(t0, due);
            read(plan.ops[i].0);
            let done = t0.elapsed().as_nanos() as u64;
            hist.record(Duration::from_nanos(done.saturating_sub(due).max(1)));
        }
    });
    let snap = hist.snapshot();
    vec![
        ("achieved_per_sec", ops as f64 / secs),
        ("p50_nanos", nanos(quantile_nanos(&snap, 0.5))),
        ("p99_nanos", nanos(quantile_nanos(&snap, 0.99))),
        ("p999_nanos", nanos(quantile_nanos(&snap, 0.999))),
    ]
}

/// One in-process run: [`SESSIONS`] sessions offer `ops` reads at
/// `rate` against `server`.
fn inproc_run(server: &Server, rate: f64, ops: u64, seed: u64) -> Vec<(&'static str, f64)> {
    let out = drive(rate, ops, seed, SESSIONS, || {
        let sess = server.connect();
        let g = sess.open_direct("scale").unwrap();
        let mut buf = vec![0u8; BS];
        move |r| g.read_record(r, &mut buf).unwrap()
    });
    assert_eq!(
        server.stats().total_admitted,
        ops,
        "goodput accounting: every driven op admitted exactly once"
    );
    out
}

/// One run of the same discipline over `pario-net`.
fn net_run(rate: f64, ops: u64) -> Vec<(&'static str, f64)> {
    let (_net, addr) = serve(healthy_server());
    let out = drive(rate, ops, 91, NET_CONNS, || {
        let client = NetClient::connect_tcp(&addr).unwrap();
        let g = client.open_direct("scale").unwrap();
        let mut buf = vec![0u8; BS];
        move |r| {
            g.read_record(r, &mut buf).unwrap();
            // `client` must outlive the handle: dropping it closes the
            // connection under the ops still in flight.
            let _ = &client;
        }
    });
    let admitted = NetClient::connect_tcp(&addr).unwrap().stats().unwrap();
    assert_eq!(admitted.total_admitted, ops, "remote goodput accounting");
    out
}

/// One run of the fault-armed rung: the flood against a shadowed file
/// while device 1 runs a transient schedule and fail-stops an eighth of
/// the way in. Panics unless the schedule bit and the board noticed.
fn degraded_run(ops: u64) -> Vec<(&'static str, f64)> {
    let rig = Rig::new(4);
    let mut devices = rig.devices();
    let fault = inject(
        &mut devices,
        1,
        FaultPlan {
            seed: 1919,
            transient_rate: 0.05,
            fail_after: Some(ops / 8),
            ..FaultPlan::default()
        },
    );
    let server = scale_server(rig.volume_over(devices), true);
    fault.set_armed(true);
    let mut out = inproc_run(&server, FLOOD_RATE, ops, 119);
    fault.set_armed(false);
    let counts = fault.counts();
    assert!(
        counts.transients > 0 && counts.failed_ops > 0,
        "the fault schedule must actually bite mid-flood \
         (transients {}, refused {})",
        counts.transients,
        counts.failed_ops
    );
    assert!(
        server.volume().is_degraded(),
        "the fail-stop must surface on the health board during overload"
    );
    out.push(("transients", counts.transients as f64));
    out.push(("refused_ops", counts.failed_ops as f64));
    out
}

fn main() {
    banner(
        "E19: open-loop scale harness and the admission throughput ceiling",
        "a fixed arrival schedule (coordinated-omission safe) finds the \
         server's saturation point and the latency cliff past it",
    );
    let mut report = Report::new("e19_scale");
    report
        .fact("sessions", SESSIONS as f64)
        .fact("limit", LIMIT as f64);
    // Operations per run: `secs` of the offered rate, within bounds.
    let sized = |rate: f64, secs: f64, lo: u64, hi: u64| ((rate * secs) as u64).clamp(lo, hi);

    // Saturation throughput, then the offered-rate sweep around it.
    let sat_ops = if smoke() { 4_000 } else { 16_000 };
    let sat = report.lane("sat", RUNS, || {
        inproc_run(&healthy_server(), FLOOD_RATE, sat_ops, 19)
    })["achieved_per_sec"]
        .median;
    let multiples: &[(&str, f64)] = if smoke() {
        &[("x025", 0.25), ("x100", 1.0), ("x400", 4.0)]
    } else {
        &[
            ("x025", 0.25),
            ("x050", 0.5),
            ("x100", 1.0),
            ("x200", 2.0),
            ("x400", 4.0),
        ]
    };
    let sweep: Vec<_> = multiples
        .iter()
        .map(|&(tag, m)| {
            let rate = sat * m;
            let ops = if smoke() {
                sized(rate, 0.3, 500, 4_000)
            } else {
                sized(rate, 0.8, 2_000, 20_000)
            };
            report.fact(&format!("sweep_{tag}_offered_rate"), rate);
            report.lane(&format!("sweep_{tag}"), RUNS, || {
                inproc_run(&healthy_server(), rate, ops, 19)
            })
        })
        .collect();
    let (low, high) = (&sweep[0], &sweep[sweep.len() - 1]);
    let knee = high["p99_nanos"].median / low["p99_nanos"].median;
    let low_goodput = low["achieved_per_sec"].median / (sat * multiples[0].1);

    // The same discipline over pario-net: saturation, then below and
    // past it.
    let net_sat_ops = if smoke() { 1_500 } else { 6_000 };
    let net_sat = report.lane("net_sat", RUNS, || net_run(FLOOD_RATE, net_sat_ops))
        ["achieved_per_sec"]
        .median;
    let net_low = report.lane("net_x050", RUNS, || {
        net_run(net_sat * 0.5, sized(net_sat, 0.4, 400, 6_000))
    });
    let net_high = report.lane("net_x300", RUNS, || {
        net_run(net_sat * 3.0, sized(net_sat, 1.2, 400, 8_000))
    });
    let net_knee = net_high["p99_nanos"].median / net_low["p99_nanos"].median;

    // Overload and degraded routing at the same time.
    let degraded_ops = if smoke() { 2_000 } else { 8_000 };
    let degraded = report.lane("degraded", RUNS, || degraded_run(degraded_ops));

    println!("\nasserted facts:");
    report
        .fact("knee_p99_ratio", knee)
        .fact("sweep_x025_goodput", low_goodput)
        .fact("net_knee_p99_ratio", net_knee)
        .fact(
            "degraded_vs_healthy_ratio",
            degraded["achieved_per_sec"].median / sat,
        )
        .at_least("p99 climb from 0.25x to 4x of saturation", knee, KNEE_BOUND)
        .at_least("goodput below saturation", low_goodput, GOODPUT_BOUND)
        .at_least("p99 climb across the net lane", net_knee, NET_KNEE_BOUND);
    report.finish();
}
