//! E18 — the network service layer against the in-process baseline.
//!
//! The same 8-client self-scheduled drain E14 runs in-process is run
//! again through `pario-net`: eight `connect_tcp` connections to one
//! loopback `NetServer` — which, client and server being on one host,
//! end up on the server's Unix-domain lane — each pipelining claims
//! under its credit window. The experiment
//! demonstrates, and *asserts*:
//!
//! * **Semantics survive the wire** — the remote drain delivers every
//!   record exactly once, none torn, exactly like the in-process suite.
//! * **Pipelining hides the network** — on a volume whose devices model
//!   a 400µs service time, remote aggregate throughput lands within
//!   [`REMOTE_FACTOR_BOUND`]x of in-process sessions: device time, not
//!   round trips, stays the bottleneck.
//! * **Connections scale** — a 1→8 connection sweep shows aggregate
//!   throughput climbing with connection count while the server's
//!   latency histogram (p50/p99/p999, fetched over the wire) stays
//!   bounded.
//! * **Depth matters on fast media** — on an *undelayed* volume, where
//!   the round trip is the dominant cost, raising the pipeline depth
//!   1→32 on a single connection raises throughput; synchronous
//!   request/response is the slow shape, not the network itself. Both
//!   ends of that lane are also held to the committed
//!   `BENCH_e18_net.json` figures (no more than [`COMMITTED_SLACK`]
//!   below them): a depth-1 round trip has no thread hand-off on the
//!   server and, for a blocking call, none on the client, and the ratio
//!   alone would not notice one coming back.

use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, Bench, Table};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::Volume;
use pario_net::{NetClient, NetConfig, NetServer, StatsSummary};
use pario_server::{Server, ServerConfig};

/// Modelled device service time for the "device-bound" lanes (matches
/// E14, so the in-process baseline is directly comparable).
const DELAY: Duration = Duration::from_micros(400);
/// Records in the self-scheduled file for the device-bound lanes.
const RECORDS: u64 = 1200;
/// Records for the undelayed depth-contrast lane (cheap per record, so
/// more of them for a stable measurement).
const FAST_RECORDS: u64 = 4000;
/// The stated bound: pipelined remote throughput must land within this
/// factor of in-process sessions on the device-bound workload.
const REMOTE_FACTOR_BOUND: f64 = 2.0;
/// Pipeline depth the remote drains run at (within the default credit
/// window of 32).
const DEPTH: usize = 8;
/// The depth lane's rates may fall this far below the committed
/// `BENCH_e18_net.json` figures (same machine) before the run fails.
const COMMITTED_SLACK: f64 = 0.10;
/// Runs per depth; the best is reported. A 50 ms closed loop on a
/// shared host is only ever disturbed towards slow.
const DEPTH_RUNS: usize = 3;

/// `key` of the committed `BENCH_e18_net.json`, read before this run
/// overwrites it; `None` off the repo root or on a first run.
fn committed(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_e18_net.json").ok()?;
    serde_json::from_str::<serde_json::Value>(&text)
        .ok()?
        .as_object()?
        .get(key)?
        .as_f64()
}

fn rec_byte(idx: u64) -> u8 {
    (idx % 251) as u8
}

fn make_server(records: u64, delayed: bool) -> Server {
    let devices: Vec<DeviceRef> = (0..4)
        .map(|i| {
            let d = MemDisk::named(&format!("mem{i}"), 2048, BS);
            let d = if delayed { d.with_delay(DELAY) } else { d };
            Arc::new(d) as DeviceRef
        })
        .collect();
    let volume = Volume::new_with_io_nodes(devices).unwrap();
    let pf = ParallelFile::create(&volume, "queue", Organization::SelfScheduledSeq, BS, 1).unwrap();
    let mut data = vec![0u8; records as usize * BS];
    for i in 0..records {
        data[i as usize * BS..(i as usize + 1) * BS].fill(rec_byte(i));
    }
    pf.raw().write_span(0, &data).unwrap();
    pf.raw().set_len_records(records).unwrap();
    Server::new(volume, ServerConfig::default())
}

/// A fresh volume + server behind a TCP listener. Each lane builds its
/// own so the shared SS cursor starts from zero every time.
fn serve(records: u64, delayed: bool) -> (NetServer, String) {
    let net = NetServer::bind_tcp(
        "127.0.0.1:0",
        make_server(records, delayed),
        NetConfig::default(),
    )
    .unwrap();
    let addr = net.local_addr().unwrap().to_string();
    (net, addr)
}

/// Drain in-process with `clients` sessions; elapsed seconds.
fn drain_inproc(server: &Server, clients: usize, records: u64) -> f64 {
    let seen = Mutex::new(HashSet::with_capacity(records as usize));
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for _ in 0..clients {
            let sess = server.connect();
            let seen = &seen;
            s.spawn(move |_| {
                let q = sess.open_self_sched("queue").unwrap();
                let mut buf = vec![0u8; BS];
                let mut local = Vec::new();
                while let Some(idx) = q.read_next(&mut buf).unwrap() {
                    assert!(buf.iter().all(|&b| b == rec_byte(idx)), "torn record {idx}");
                    local.push(idx);
                }
                let mut seen = seen.lock().unwrap();
                for idx in local {
                    assert!(seen.insert(idx), "record {idx} delivered twice");
                }
            });
        }
    })
    .unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(seen.into_inner().unwrap().len(), records as usize);
    secs
}

/// Drain through `connect_tcp` with `clients` connections pipelining `depth` claims;
/// elapsed seconds and a final remote stats snapshot.
fn drain_remote(addr: &str, clients: usize, depth: usize, records: u64) -> (f64, StatsSummary) {
    let seen = Mutex::new(HashSet::with_capacity(records as usize));
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for _ in 0..clients {
            let seen = &seen;
            s.spawn(move |_| {
                let client = NetClient::connect_tcp(addr).unwrap();
                let q = client.open_self_sched("queue").unwrap();
                let mut window = std::collections::VecDeque::with_capacity(depth);
                for _ in 0..depth {
                    window.push_back(q.submit_read_next().unwrap());
                }
                let mut buf = vec![0u8; BS];
                let mut local = Vec::new();
                let mut draining = false;
                while let Some(t) = window.pop_front() {
                    match q.finish_read_next(t, &mut buf).unwrap() {
                        Some(idx) => {
                            assert!(buf.iter().all(|&b| b == rec_byte(idx)), "torn record {idx}");
                            local.push(idx);
                            if !draining {
                                window.push_back(q.submit_read_next().unwrap());
                            }
                        }
                        None => draining = true,
                    }
                }
                let mut seen = seen.lock().unwrap();
                for idx in local {
                    assert!(seen.insert(idx), "record {idx} delivered twice");
                }
            });
        }
    })
    .unwrap();
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(seen.into_inner().unwrap().len(), records as usize);
    let stats = NetClient::connect_tcp(addr).unwrap().stats().unwrap();
    (secs, stats)
}

fn fmt_ns(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.0}us", ns as f64 / 1e3),
        None => "-".to_string(),
    }
}

fn main() {
    banner(
        "E18: network service layer (pario-net) vs in-process sessions",
        "the framed wire protocol carries the full session surface over \
         a socket; pipelined claims under per-connection credits keep the \
         devices, not the round trips, as the bottleneck",
    );

    // -- Lane 1: remote vs in-process, device-bound -------------------
    let inproc_secs = {
        let server = make_server(RECORDS, true);
        drain_inproc(&server, 8, RECORDS)
    };
    let (remote_secs, remote_stats) = {
        let (_net, addr) = serve(RECORDS, true);
        drain_remote(&addr, 8, DEPTH, RECORDS)
    };
    let factor = remote_secs / inproc_secs;
    // Offered equals achieved on a Block-policy drain, and the server's
    // cumulative admission count proves it: admitted ops/s (over the
    // wire from StatsSummary) tracks delivered records/s, with the
    // overshoot being the speculative claims pipelining keeps in flight
    // at end-of-file.
    let admitted_rate = remote_stats.total_admitted as f64 / remote_secs;
    println!(
        "\n8-client SS drain, {RECORDS} records, 400us devices:\n\
         \x20 in-process  {:.1}ms  ({:.0} rec/s)\n\
         \x20 remote      {:.1}ms  ({:.0} rec/s)  depth {DEPTH}\n\
         \x20 remote/in-process factor {factor:.2}x (bound {REMOTE_FACTOR_BOUND}x)\n\
         \x20 offered vs achieved: {admitted_rate:.0} ops/s admitted \
         ({} ops for {RECORDS} records)",
        inproc_secs * 1e3,
        RECORDS as f64 / inproc_secs,
        remote_secs * 1e3,
        RECORDS as f64 / remote_secs,
        remote_stats.total_admitted,
    );

    // -- Lane 2: connection sweep, device-bound -----------------------
    let mut sweep = Table::new(&[
        "connections",
        "elapsed",
        "rec/s",
        "speedup",
        "p50",
        "p99",
        "p999",
    ]);
    let mut base = 0.0f64;
    let mut secs_at = Vec::new();
    for &conns in &[1usize, 2, 4, 8] {
        let (_net, addr) = serve(RECORDS, true);
        let (secs, stats) = drain_remote(&addr, conns, DEPTH, RECORDS);
        if conns == 1 {
            base = secs;
        }
        secs_at.push((conns, secs));
        sweep.row(&[
            conns.to_string(),
            format!("{:.1}ms", secs * 1e3),
            format!("{:.0}", RECORDS as f64 / secs),
            format!("{:.2}x", base / secs),
            fmt_ns(stats.p50_nanos),
            fmt_ns(stats.p99_nanos),
            fmt_ns(stats.p999_nanos),
        ]);
    }
    println!("\nconnection sweep ({RECORDS} records, 400us devices, depth {DEPTH}):");
    sweep.print();
    save_json("e18_net_sweep", &sweep);

    // -- Lane 3: pipeline depth on fast media -------------------------
    let mut depth_t = Table::new(&["depth", "elapsed", "rec/s", "vs depth 1"]);
    let mut depth_base = 0.0f64;
    let mut depth_rates = Vec::new();
    for &depth in &[1usize, 4, 16, 32] {
        let secs = (0..DEPTH_RUNS)
            .map(|_| {
                let (_net, addr) = serve(FAST_RECORDS, false);
                drain_remote(&addr, 1, depth, FAST_RECORDS).0
            })
            .fold(f64::INFINITY, f64::min);
        if depth == 1 {
            depth_base = secs;
        }
        depth_rates.push((depth, FAST_RECORDS as f64 / secs));
        depth_t.row(&[
            depth.to_string(),
            format!("{:.1}ms", secs * 1e3),
            format!("{:.0}", FAST_RECORDS as f64 / secs),
            format!("{:.2}x", depth_base / secs),
        ]);
    }
    println!(
        "\npipeline depth, 1 connection ({FAST_RECORDS} records, undelayed devices, \
         best of {DEPTH_RUNS}):"
    );
    depth_t.print();
    save_json("e18_net_depth", &depth_t);

    let sweep8 = secs_at.last().map(|&(_, s)| s).unwrap_or(remote_secs);
    let depth1 = depth_rates[0].1;
    let depth32 = depth_rates.last().map(|&(_, r)| r).unwrap_or(depth1);
    let floors = [
        ("depth1_rec_per_sec_fast", depth1),
        ("depth32_rec_per_sec_fast", depth32),
    ]
    .map(|(key, now)| (key, now, committed(key)));
    Bench::new()
        .label("experiment", "e18_net")
        .num("inproc_secs_8_clients", inproc_secs)
        .num("remote_secs_8_conns", remote_secs)
        .num("remote_over_inproc_factor", factor)
        .num("remote_factor_bound", REMOTE_FACTOR_BOUND)
        .num("remote_rec_per_sec_8_conns", RECORDS as f64 / remote_secs)
        .num("sweep_rec_per_sec_1_conn", RECORDS as f64 / base)
        .num("sweep_rec_per_sec_8_conns", RECORDS as f64 / sweep8)
        .num("depth1_rec_per_sec_fast", depth1)
        .num("depth32_rec_per_sec_fast", depth32)
        .num("depth_speedup_32_vs_1", depth32 / depth1)
        .int("remote_p99_nanos", remote_stats.p99_nanos.unwrap_or(0))
        .int("remote_p999_nanos", remote_stats.p999_nanos.unwrap_or(0))
        .int("remote_total_admitted", remote_stats.total_admitted)
        .num("remote_admitted_ops_per_sec", admitted_rate)
        .save("e18_net");

    // The headline claims, asserted so CI catches a regression.
    assert!(
        factor <= REMOTE_FACTOR_BOUND,
        "remote drain took {factor:.2}x in-process; the wire must stay \
         within {REMOTE_FACTOR_BOUND}x on a device-bound workload"
    );
    assert!(
        base / sweep8 >= 1.5,
        "8 connections must beat 1 connection by >=1.5x on 4 devices \
         (got {:.2}x)",
        base / sweep8
    );
    assert!(
        depth32 > depth1,
        "pipelining depth 32 must beat synchronous depth 1 on fast media \
         (got {depth32:.0} against {depth1:.0} rec/s)"
    );
    for (key, now, was) in floors {
        if let Some(was) = was {
            assert!(
                now >= was * (1.0 - COMMITTED_SLACK),
                "{key}: {now:.0} rec/s is more than {:.0} % below the committed {was:.0}",
                COMMITTED_SLACK * 100.0
            );
        }
    }
    println!(
        "\nE18 assertions hold: wire factor, connection scaling, pipelining, committed floors."
    );
}
