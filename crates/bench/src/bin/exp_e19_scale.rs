//! E19 — the scale harness: open-loop load, the saturation ceiling, and
//! the overload knee.
//!
//! Every service-layer experiment so far was closed-loop: clients wait
//! for each reply, so offered load politely adapts to the service rate
//! and overload is invisible. E19 drives the server **open-loop** — a
//! fixed arrival schedule from [`OpenLoop`], a shared fetch-add cursor
//! so no scheduled arrival is stranded behind a slow worker, and per-op
//! latency measured from each operation's *intended* start (coordinated-
//! omission safe). The experiment demonstrates, and *asserts*:
//!
//! * **The saturation ceiling is measured.** 64 concurrent sessions
//!   flood an 8-permit limit; the achieved rate is the in-process
//!   ceiling every other lane is scaled against. (The big-mutex +
//!   `notify_all` admission this replaced measured 3.4–3.5x lower here;
//!   see EXPERIMENTS.md.)
//! * **The open-loop knee exists.** Sweeping offered rate from 0.25x to
//!   4x of measured saturation, p99 latency climbs a cliff past
//!   saturation (at least [`KNEE_BOUND`]x from the lowest to the highest
//!   rate) while sub-saturation goodput tracks the offered rate.
//! * **Goodput accounting adds up.** `AdmissionStats::total_admitted`
//!   equals the operations driven, so achieved rates come straight from
//!   the server, and the same counter crosses the wire in the `pario-net`
//!   lane's `StatsSummary`.
//!
//! Set `E19_SMOKE=1` for a CI-sized run (same lanes and assertions,
//! fewer operations per lane).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, Bench, Table};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_disk::{DeviceRef, FaultDevice, FaultPlan, MemDisk};
use pario_fs::Volume;
use pario_layout::LayoutSpec;
use pario_net::{NetClient, NetConfig, NetServer};
use pario_server::{LatencyHistogram, Saturation, Server, ServerConfig};
use pario_workloads::{OpenLoop, OpenLoopPlan};

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
/// TCP connections in the net lane.
const NET_CONNS: usize = 8;

fn smoke() -> bool {
    std::env::var("E19_SMOKE").is_ok()
}

/// A server over 4 undelayed in-memory devices (I/O-node fronted) with a
/// `RECORDS`-record GDA file — the per-op work is a block read, cheap
/// enough that the admission/completion path is what's being measured.
fn make_server() -> Server {
    let devices: Vec<DeviceRef> = (0..4)
        .map(|i| Arc::new(MemDisk::named(&format!("mem{i}"), 2048, BS)) as DeviceRef)
        .collect();
    let volume = Volume::new_with_io_nodes(devices).unwrap();
    let pf = ParallelFile::create(&volume, "scale", Organization::GlobalDirect, BS, 1).unwrap();
    let data = vec![7u8; RECORDS as usize * BS];
    pf.raw().write_span(0, &data).unwrap();
    pf.raw().set_len_records(RECORDS).unwrap();
    Server::new(
        volume,
        ServerConfig {
            max_in_flight: LIMIT,
            saturation: Saturation::Block,
        },
    )
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

/// Drive `plan` with `workers` threads pulling operations off a shared
/// fetch-add cursor. Each op waits for its intended start, runs, and
/// records latency **from the intended start** into `hist` — a stalled
/// server cannot hide the queueing delay it causes. `setup` builds each
/// worker's op closure (session, handle, buffer) on its own thread.
/// Returns elapsed seconds for the whole drain.
fn drive<S, F>(plan: &OpenLoopPlan, workers: usize, hist: &LatencyHistogram, setup: S) -> f64
where
    S: Fn(usize) -> F + Sync,
    F: FnMut(u64, bool),
{
    let cursor = AtomicU64::new(0);
    let total = plan.arrivals.len() as u64;
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for w in 0..workers {
            let cursor = &cursor;
            let setup = &setup;
            s.spawn(move |_| {
                let mut op = setup(w);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = plan.arrivals[i as usize];
                    wait_until(t0, due);
                    let (rec, is_write) = plan.ops[i as usize];
                    op(rec, is_write);
                    let done = t0.elapsed().as_nanos() as u64;
                    hist.record(Duration::from_nanos(done.saturating_sub(due).max(1)));
                }
            });
        }
    })
    .unwrap();
    t0.elapsed().as_secs_f64()
}

/// One in-process lane: offer `ops` operations at `rate` against a fresh
/// server; returns (achieved ops/sec, p50, p99, p999).
fn inproc_lane(rate: f64, ops: u64) -> (f64, Option<u64>, Option<u64>, Option<u64>) {
    let server = make_server();
    let wl = OpenLoop {
        rate,
        ops,
        records: RECORDS,
        theta: 0.0,
        write_fraction: 0.0,
        seed: 19,
    };
    let plan = wl.plan();
    let hist = LatencyHistogram::default();
    let secs = drive(&plan, SESSIONS, &hist, |_w| {
        let sess = server.connect();
        let g = sess.open_direct("scale").unwrap();
        let mut buf = vec![0u8; BS];
        move |r: u64, _wr: bool| g.read_record(r, &mut buf).unwrap()
    });
    let snap = hist.snapshot();
    let st = server.stats();
    assert_eq!(
        st.total_admitted, ops,
        "goodput accounting: every driven op admitted exactly once"
    );
    (
        ops as f64 / secs,
        pario_server::quantile_nanos(&snap, 0.5),
        pario_server::quantile_nanos(&snap, 0.99),
        pario_server::quantile_nanos(&snap, 0.999),
    )
}

fn fmt_ns(ns: Option<u64>) -> String {
    match ns {
        Some(ns) if ns >= 1_000_000 => format!("{:.1}ms", ns as f64 / 1e6),
        Some(ns) => format!("{:.0}us", ns as f64 / 1e3),
        None => "-".to_string(),
    }
}

fn main() {
    banner(
        "E19: open-loop scale harness and the admission throughput ceiling",
        "a fixed arrival schedule (coordinated-omission safe) finds the \
         server's saturation point and the latency cliff past it",
    );
    let sat_ops: u64 = if smoke() { 4_000 } else { 16_000 };

    // -- Lane 1: saturation throughput ---------------------------------
    let (fast_sat, _, fast_p99, _) = inproc_lane(FLOOD_RATE, sat_ops);
    println!(
        "\nsaturation at {SESSIONS} sessions over {LIMIT} permits ({sat_ops} ops): \
         {fast_sat:.0} ops/s  p99 {}",
        fmt_ns(fast_p99),
    );

    // -- Lane 2: offered-rate sweep -------------------------------------
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
    let mut sweep = Table::new(&[
        "offered",
        "rate/s",
        "achieved/s",
        "goodput",
        "p50",
        "p99",
        "p999",
    ]);
    let mut bench = Bench::new();
    bench
        .label("experiment", "e19_scale")
        .int("sessions", SESSIONS as u64)
        .int("limit", LIMIT as u64)
        .num("sat_fast_ops_per_sec", fast_sat);
    let mut low_p99 = None;
    let mut high_p99 = None;
    let mut low_goodput = 0.0;
    for &(tag, m) in multiples {
        let rate = fast_sat * m;
        let ops = if smoke() {
            ((rate * 0.3) as u64).clamp(500, 4_000)
        } else {
            ((rate * 0.8) as u64).clamp(2_000, 20_000)
        };
        let (achieved, p50, p99, p999) = inproc_lane(rate, ops);
        let goodput = achieved / rate;
        if tag == "x025" {
            low_p99 = p99;
            low_goodput = goodput;
        }
        if tag == "x400" {
            high_p99 = p99;
        }
        sweep.row(&[
            format!("{m:.2}x sat"),
            format!("{rate:.0}"),
            format!("{achieved:.0}"),
            format!("{:.0}%", goodput * 100.0),
            fmt_ns(p50),
            fmt_ns(p99),
            fmt_ns(p999),
        ]);
        bench
            .num(&format!("sweep_{tag}_offered"), rate)
            .num(&format!("sweep_{tag}_achieved"), achieved)
            .int(&format!("sweep_{tag}_p50_nanos"), p50.unwrap_or(0))
            .int(&format!("sweep_{tag}_p99_nanos"), p99.unwrap_or(0))
            .int(&format!("sweep_{tag}_p999_nanos"), p999.unwrap_or(0));
    }
    println!("\noffered-rate sweep ({SESSIONS} sessions):");
    sweep.print();
    save_json("e19_scale", &sweep);
    let knee = high_p99.unwrap_or(0) as f64 / low_p99.unwrap_or(1).max(1) as f64;
    println!("knee: p99 grows {knee:.1}x from 0.25x to 4x offered (required >= {KNEE_BOUND}x)");

    // -- Lane 3: the same discipline over pario-net ---------------------
    let net_sat_ops: u64 = if smoke() { 1_500 } else { 6_000 };
    let net_lane = |rate: f64, ops: u64| {
        let net = NetServer::bind_tcp("127.0.0.1:0", make_server(), NetConfig::default()).unwrap();
        let addr = net.local_addr().unwrap().to_string();
        let wl = OpenLoop {
            rate,
            ops,
            records: RECORDS,
            theta: 0.0,
            write_fraction: 0.0,
            seed: 91,
        };
        let plan = wl.plan();
        let hist = LatencyHistogram::default();
        let addr_ref = &addr;
        let secs = drive(&plan, NET_CONNS, &hist, |_w| {
            let client = NetClient::connect_tcp(addr_ref).unwrap();
            let g = client.open_direct("scale").unwrap();
            let mut buf = vec![0u8; BS];
            move |r: u64, _wr: bool| {
                g.read_record(r, &mut buf).unwrap();
                // `client` must outlive the handle: dropping it closes
                // the connection under the ops still in flight.
                let _ = &client;
            }
        });
        let snap = hist.snapshot();
        let admitted = NetClient::connect_tcp(&addr).unwrap().stats().unwrap();
        assert_eq!(admitted.total_admitted, ops, "remote goodput accounting");
        (ops as f64 / secs, pario_server::quantile_nanos(&snap, 0.99))
    };
    let (net_sat, _) = net_lane(FLOOD_RATE, net_sat_ops);
    let (net_low_achieved, net_low_p99) =
        net_lane(net_sat * 0.5, ((net_sat * 0.4) as u64).clamp(400, 6_000));
    let (_, net_high_p99) = net_lane(net_sat * 3.0, ((net_sat * 1.2) as u64).clamp(400, 8_000));
    let net_knee = net_high_p99.unwrap_or(0) as f64 / net_low_p99.unwrap_or(1).max(1) as f64;
    let mut net_t = Table::new(&["lane", "offered/s", "achieved/s", "p99"]);
    net_t.row(&[
        "saturation".into(),
        "flood".into(),
        format!("{net_sat:.0}"),
        "-".into(),
    ]);
    net_t.row(&[
        "0.5x sat".into(),
        format!("{:.0}", net_sat * 0.5),
        format!("{net_low_achieved:.0}"),
        fmt_ns(net_low_p99),
    ]);
    net_t.row(&[
        "3x sat".into(),
        format!("{:.0}", net_sat * 3.0),
        "-".into(),
        fmt_ns(net_high_p99),
    ]);
    println!("\nnet lane ({NET_CONNS} TCP connections):");
    net_t.print();
    save_json("e19_net", &net_t);
    println!("net knee: p99 grows {net_knee:.1}x (required >= {NET_KNEE_BOUND}x)");

    // -- Lane 4: fault-armed rung — overload and degraded routing at
    // the same time. One shadow-pair device runs a transient schedule
    // with a mid-flood fail-stop; the open-loop flood keeps arriving
    // while the health board walks the device to Failed and reads
    // reroute to the surviving shadow. The rung measures what the
    // saturation ceiling costs when the array is simultaneously
    // overloaded and degraded.
    let degraded_ops: u64 = if smoke() { 2_000 } else { 8_000 };
    let mut devices: Vec<DeviceRef> = (0..4)
        .map(|i| Arc::new(MemDisk::named(&format!("dmem{i}"), 2048, BS)) as DeviceRef)
        .collect();
    let (fault, wrapped) = FaultDevice::wrap(
        devices[1].clone(),
        FaultPlan {
            seed: 1919,
            transient_rate: 0.05,
            fail_after: Some(degraded_ops / 8),
            ..FaultPlan::default()
        },
    );
    devices[1] = wrapped;
    fault.set_armed(false);
    let volume = Volume::new(devices).unwrap();
    let pf = ParallelFile::create_with_layout(
        &volume,
        "scale",
        Organization::GlobalDirect,
        BS,
        1,
        LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        })),
        None,
    )
    .unwrap();
    pf.raw()
        .write_span(0, &vec![7u8; RECORDS as usize * BS])
        .unwrap();
    pf.raw().set_len_records(RECORDS).unwrap();
    let server = Server::new(
        volume.clone(),
        ServerConfig {
            max_in_flight: LIMIT,
            saturation: Saturation::Block,
        },
    );
    fault.set_armed(true);
    let wl = OpenLoop {
        rate: FLOOD_RATE,
        ops: degraded_ops,
        records: RECORDS,
        theta: 0.0,
        write_fraction: 0.0,
        seed: 119,
    };
    let plan = wl.plan();
    let hist = LatencyHistogram::default();
    let degraded_secs = drive(&plan, SESSIONS, &hist, |_w| {
        let sess = server.connect();
        let g = sess.open_direct("scale").unwrap();
        let mut buf = vec![0u8; BS];
        move |r: u64, _wr: bool| g.read_record(r, &mut buf).unwrap()
    });
    fault.set_armed(false);
    let degraded_sat = degraded_ops as f64 / degraded_secs;
    let degraded_p99 = pario_server::quantile_nanos(&hist.snapshot(), 0.99);
    let counts = fault.counts();
    let degraded_ratio = degraded_sat / fast_sat;
    println!(
        "\nfault-armed rung ({SESSIONS} sessions flooding a shadowed volume):\n\
         \x20 degraded saturation  {degraded_sat:.0} ops/s  p99 {}  \
         ({:.0}% of the healthy ceiling)\n\
         \x20 schedule: {} transients, fail-stop after {} ops \
         ({} refused post-trip), every read completed via rerouting",
        fmt_ns(degraded_p99),
        degraded_ratio * 100.0,
        counts.transients,
        degraded_ops / 8,
        counts.failed_ops,
    );
    assert!(
        counts.transients > 0 && counts.failed_ops > 0,
        "the fault schedule must actually bite mid-flood \
         (transients {}, refused {})",
        counts.transients,
        counts.failed_ops
    );
    assert!(
        volume.is_degraded(),
        "the fail-stop must surface on the health board during overload"
    );

    bench
        .num("knee_p99_ratio", knee)
        .num("sweep_x025_goodput", low_goodput)
        .num("net_sat_ops_per_sec", net_sat)
        .num("net_knee_p99_ratio", net_knee)
        .int("net_low_p99_nanos", net_low_p99.unwrap_or(0))
        .int("net_high_p99_nanos", net_high_p99.unwrap_or(0))
        .num("degraded_sat_ops_per_sec", degraded_sat)
        .num("degraded_vs_healthy_ratio", degraded_ratio)
        .int("degraded_p99_nanos", degraded_p99.unwrap_or(0))
        .int("degraded_transients", counts.transients)
        .int("degraded_refused_ops", counts.failed_ops)
        .save("e19_scale");

    // The headline claims, asserted so CI catches a regression.
    assert!(
        knee >= KNEE_BOUND,
        "open-loop p99 must climb >= {KNEE_BOUND}x past saturation \
         (got {knee:.1}x)"
    );
    assert!(
        low_goodput >= GOODPUT_BOUND,
        "below saturation, achieved rate must track offered \
         (got {:.0}%)",
        low_goodput * 100.0
    );
    assert!(
        net_knee >= NET_KNEE_BOUND,
        "the net lane must show the same overload cliff \
         (got {net_knee:.1}x)"
    );
    println!("\nE19 assertions hold: overload knee, goodput accounting.");
}
