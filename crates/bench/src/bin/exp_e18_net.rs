//! E18 — the network service layer.
//!
//! The 8-client self-scheduled drain E14 runs in-process is run through
//! `pario-net`: `connect_tcp` connections to one loopback `NetServer` —
//! which, client and server being on one host, end up on the server's
//! Unix-domain lane — each pipelining claims under its credit window.
//! The experiment demonstrates, and *asserts*:
//!
//! * **Semantics survive the wire** — every remote drain delivers every
//!   record exactly once, none torn, exactly like the in-process suite.
//! * **Connections scale** — on a volume whose devices model a 400µs
//!   service time, a 1→8 connection sweep shows aggregate throughput
//!   climbing with connection count while the server's latency
//!   histogram (p50/p99/p999, fetched over the wire) stays bounded:
//!   device time, not round trips, is the bottleneck.
//! * **Depth matters on fast media** — on an *undelayed* volume, where
//!   the round trip is the dominant cost, raising the pipeline depth
//!   1→32 on a single connection raises throughput; synchronous
//!   request/response is the slow shape, not the network itself. Both
//!   ends of that lane are also held to the committed
//!   `BENCH_e18_net.json` medians (the new median no more than
//!   [`COMMITTED_SLACK`] below the committed one): a depth-1 round trip
//!   has no thread hand-off on the server and, for a blocking call, none
//!   on the client, and the ratio alone would not notice one coming back.

use std::collections::VecDeque;
use std::time::Duration;

use pario_bench::measure::{nanos, Report, RUNS};
use pario_bench::rig::{clients, fill, rec_byte, serve, Ledger, Rig};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_net::NetClient;
use pario_server::ServerConfig;

/// Modelled device service time for the device-bound sweep (E14's).
const DELAY: Duration = Duration::from_micros(400);
/// Records in the self-scheduled file of the device-bound sweep.
const RECORDS: u64 = 1200;
/// Records for the undelayed depth lane (cheap per record, so more of
/// them for a stable measurement).
const FAST_RECORDS: u64 = 4000;
/// Pipeline depth of the sweep's drains (within the default credit
/// window of 32).
const DEPTH: usize = 8;
/// How far below the committed `BENCH_e18_net.json` median (same
/// machine) the depth lane's medians may fall before the run fails.
const COMMITTED_SLACK: f64 = 0.10;

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

/// One run: a fresh volume, `records` long, behind a fresh listener (so
/// the shared SS cursor starts from zero), drained by `conns`
/// connections each pipelining `depth` claims.
fn drain_run(
    delay: Duration,
    records: u64,
    conns: usize,
    depth: usize,
) -> Vec<(&'static str, f64)> {
    let server = Rig::new(4).delay(delay).server(ServerConfig::default());
    let org = Organization::SelfScheduledSeq;
    fill(
        &ParallelFile::create(server.volume(), "queue", org, BS, 1).unwrap(),
        records,
    );
    let (_net, addr) = serve(server);
    let addr = addr.as_str();
    let ledger = Ledger::default();
    let secs = clients(conns, |_| {
        let client = NetClient::connect_tcp(addr).unwrap();
        let q = client.open_self_sched("queue").unwrap();
        let mut window = VecDeque::with_capacity(depth);
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
        ledger.deliver(local);
    });
    ledger.complete(records);
    let stats = NetClient::connect_tcp(addr).unwrap().stats().unwrap();
    vec![
        ("rec_per_sec", records as f64 / secs),
        ("p50_nanos", nanos(stats.p50_nanos)),
        ("p99_nanos", nanos(stats.p99_nanos)),
        ("p999_nanos", nanos(stats.p999_nanos)),
        // Block-policy admissions over delivered records: the overshoot
        // is the speculative claims pipelining keeps in flight at
        // end-of-file.
        (
            "admitted_per_record",
            stats.total_admitted as f64 / records as f64,
        ),
    ]
}

fn main() {
    banner(
        "E18: network service layer (pario-net)",
        "the framed wire protocol carries the full session surface over \
         a socket; pipelined claims under per-connection credits keep the \
         devices, not the round trips, as the bottleneck",
    );
    let mut report = Report::new("e18_net");
    let floors = ["depth1_rec_per_sec", "depth32_rec_per_sec"].map(committed);

    // Connection sweep: device-bound, every drain at depth DEPTH.
    let sweep: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&conns| {
            let lane = report.lane(&format!("sweep_{conns}_conns"), RUNS, || {
                drain_run(DELAY, RECORDS, conns, DEPTH)
            });
            lane["rec_per_sec"].median
        })
        .collect();

    // Pipeline depth on fast media: one connection, undelayed devices.
    let depth: Vec<_> = [1usize, 4, 16, 32]
        .iter()
        .map(|&depth| {
            let lane = report.lane(&format!("depth{depth}"), RUNS, || {
                drain_run(Duration::ZERO, FAST_RECORDS, 1, depth)
            });
            lane["rec_per_sec"]
        })
        .collect();
    let (depth1, depth32) = (depth[0], depth[3]);

    println!("\nasserted facts:");
    report
        .fact("sweep_speedup_8_vs_1", sweep[3] / sweep[0])
        .fact("depth_speedup_32_vs_1", depth32.median / depth1.median)
        .at_least(
            "8 connections over 1 on 4 devices",
            sweep[3] / sweep[0],
            1.5,
        )
        .check(
            &format!(
                "depth 32 beats synchronous depth 1 on fast media: {:.0} against {:.0} rec/s",
                depth32.median, depth1.median
            ),
            depth32.median > depth1.median,
        );
    for ((name, now), was) in [("depth 1", depth1), ("depth 32", depth32)]
        .iter()
        .zip(floors)
    {
        if let Some(was) = was {
            report.at_least(
                &format!("{name} rec/s against the committed floor"),
                now.median,
                was * (1.0 - COMMITTED_SLACK),
            );
        }
    }
    report.finish();
}
