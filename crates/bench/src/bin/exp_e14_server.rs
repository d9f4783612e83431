//! E14 — the service layer under multi-client load.
//!
//! A `pario-server` fronts a 4-device striped volume whose devices have
//! a modelled per-request service time.
//! Independent client threads connect sessions and hammer one
//! self-scheduled file; the experiment demonstrates, and *asserts*:
//!
//! * **Exactly-once across sessions** — in every run of every lane the
//!   clients drain the SS file through the server's shared cursor:
//!   every record delivered to exactly one client, none torn, none
//!   skipped.
//! * **Scaling** — 8 clients achieve at least 3x the aggregate
//!   throughput of 1 client (the 4 devices serve claims in parallel;
//!   two-phase reservation keeps the cursor off the critical path).
//! * **Admission control** — under 4x oversubscription (16 clients,
//!   limit 4) the queue-depth high water never exceeds the configured
//!   limit, and the blocked clients observably queue.
//! * **Reject policy** — the same oversubscription with `Saturation::
//!   Reject` surfaces `Busy` to clients, who retry without ever losing
//!   or duplicating a record.
//!
//! Every lane reports latency quantiles from the server histogram and
//! the device-side queue-wait/service split from the volume executor's
//! counters (`ServerStats::executor`).

use std::time::Duration;

use pario_bench::measure::{nanos, Report, RUNS};
use pario_bench::rig::{clients, fill, rec_byte, Ledger, Rig};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_server::{Saturation, Server, ServerConfig, ServerError};

/// Modelled service time per device request: long enough that the
/// device sleeps, so the four I/O-node workers overlap even on a
/// single-core host — the regime the experiment is about, throughput
/// limited by device service time.
const DELAY: Duration = Duration::from_micros(400);
/// Records in the self-scheduled file (one volume block each).
const RECORDS: u64 = 1500;
/// Admission limit of the oversubscribed lanes, and the clients (4x as
/// many) that press on it.
const LIMIT: usize = 4;
const OVERSUB_CLIENTS: usize = 16;

/// Drain the SS file with `sessions` concurrent sessions; elapsed
/// seconds. Panics on any duplicate, torn, or missing record.
fn drain_ss(server: &Server, sessions: usize, retry_busy: bool) -> f64 {
    let ledger = Ledger::default();
    let secs = clients(sessions, |_| {
        let sess = server.connect();
        let q = sess.open_self_sched("queue").unwrap();
        let mut buf = vec![0u8; BS];
        let mut local = Vec::new();
        loop {
            match q.read_next(&mut buf) {
                Ok(Some(idx)) => {
                    assert!(buf.iter().all(|&b| b == rec_byte(idx)), "torn record {idx}");
                    local.push(idx);
                }
                Ok(None) => break,
                Err(ServerError::Busy) if retry_busy => std::thread::yield_now(),
                Err(e) => panic!("read failed: {e}"),
            }
        }
        ledger.deliver(local);
    });
    ledger.complete(RECORDS);
    secs
}

/// One run of one lane: a fresh server admitting `limit` operations,
/// `clients` sessions draining a freshly filled file.
fn ss_run(clients: usize, limit: usize, saturation: Saturation) -> Vec<(&'static str, f64)> {
    let server = Rig::new(4).delay(DELAY).server(ServerConfig {
        max_in_flight: limit,
        saturation,
    });
    let org = Organization::SelfScheduledSeq;
    fill(
        &ParallelFile::create(server.volume(), "queue", org, BS, 1).unwrap(),
        RECORDS,
    );
    let secs = drain_ss(&server, clients, matches!(saturation, Saturation::Reject));
    let st = server.stats();
    assert!(
        st.queue_depth_high_water <= limit,
        "admission must bound in-flight ops at {limit} (got {})",
        st.queue_depth_high_water
    );
    let io = &st.executor;
    vec![
        ("rec_per_sec", RECORDS as f64 / secs),
        ("p50_nanos", nanos(st.p50())),
        ("p99_nanos", nanos(st.p99())),
        ("p999_nanos", nanos(st.p999())),
        ("queue_depth_high_water", st.queue_depth_high_water as f64),
        ("wait_high_water", st.wait_high_water as f64),
        // Every Busy was an offered op the server shed; admitted is
        // what got through (goodput).
        ("busy_rejections", st.rejected as f64),
        ("admitted_ops_per_sec", st.total_admitted as f64 / secs),
        ("dev_queue_wait_secs", io.queue_wait_nanos as f64 / 1e9),
        ("dev_service_secs", io.service_nanos as f64 / 1e9),
        ("fairness", st.fairness().unwrap_or(1.0)),
    ]
}

fn main() {
    banner(
        "E14: multi-client service layer (sessions, sharing, admission)",
        "independent client sessions share one server: SS cursors span \
         sessions exactly-once, throughput scales with devices, and a \
         bounded admission queue enforces the configured in-flight limit",
    );
    let mut report = Report::new("e14_server");
    report.fact("records", RECORDS as f64);

    // Scaling: 1..8 two-phase clients under a limit none of them reach.
    let rates: Vec<f64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&clients| {
            let lane = report.lane(&format!("ss_{clients}_clients"), RUNS, || {
                ss_run(clients, 8, Saturation::Block)
            });
            lane["rec_per_sec"].median
        })
        .collect();
    let speedup = rates[3] / rates[0];

    // 4x oversubscription, blocking; then the same with clients
    // retrying on Busy.
    let over = report.lane("oversub", RUNS, || {
        ss_run(OVERSUB_CLIENTS, LIMIT, Saturation::Block)
    });
    let reject = report.lane("reject", RUNS, || {
        ss_run(OVERSUB_CLIENTS, LIMIT, Saturation::Reject)
    });

    println!("\nasserted facts:");
    report
        .fact("ss_speedup_8_vs_1", speedup)
        .at_least("8 SS clients' throughput over one client's", speedup, 3.0)
        .check(
            "queue-depth high water at 4x oversubscription is the configured limit",
            over["queue_depth_high_water"].median == LIMIT as f64,
        )
        .check(
            "4x oversubscription visibly queues (admission waiters observed)",
            over["wait_high_water"].median > 0.0,
        )
        .check(
            "the Reject policy surfaces Busy under oversubscription",
            reject["busy_rejections"].median > 0.0,
        )
        .check(
            "device queue wait and service time are attributed (executor)",
            over["dev_queue_wait_secs"].median > 0.0 && over["dev_service_secs"].median > 0.0,
        );
    report.finish();
}
