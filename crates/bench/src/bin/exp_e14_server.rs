//! E14 — the service layer under multi-client load.
//!
//! A `pario-server` fronts a 4-device striped volume whose devices run
//! behind I/O-node processors with a modelled per-request service time.
//! Independent client threads connect sessions and hammer one
//! self-scheduled file; the experiment demonstrates, and *asserts*:
//!
//! * **Exactly-once across sessions** — 8 clients drain the SS file
//!   through the server's shared cursor: every record delivered to
//!   exactly one client, none torn, none skipped.
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
//! A second table sweeps client counts and access modes (two-phase SS
//! plus a Zipf-skewed closed-loop GDA update lane) with
//! latency quantiles from the server histogram and the device-side
//! queue-wait/service split from the I/O-node counters.

use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, Bench, Table};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::Volume;
use pario_server::{Saturation, Server, ServerConfig, ServerError, ServerStats};
use pario_workloads::ClosedLoop;

/// Modelled service time per device request. At 400µs the device sleeps
/// (rather than busy-waits), so the four I/O-node workers genuinely
/// overlap even on a single-core host — which is exactly the regime the
/// experiment is about: throughput limited by device service time.
const DELAY: Duration = Duration::from_micros(400);
/// Records in the self-scheduled file (one volume block each).
const RECORDS: u64 = 1500;

fn delayed_server(max_in_flight: usize, saturation: Saturation) -> Server {
    let devices: Vec<DeviceRef> = (0..4)
        .map(|i| {
            Arc::new(MemDisk::named(&format!("mem{i}"), 2048, BS).with_delay(DELAY)) as DeviceRef
        })
        .collect();
    let volume = Volume::new_with_io_nodes(devices).unwrap();
    Server::new(
        volume,
        ServerConfig {
            max_in_flight,
            saturation,
        },
    )
}

fn rec_byte(idx: u64) -> u8 {
    (idx % 251) as u8
}

fn fill_ss(server: &Server, records: u64) {
    let pf = ParallelFile::create(
        server.volume(),
        "queue",
        Organization::SelfScheduledSeq,
        BS,
        1,
    )
    .unwrap();
    // Fill through the vectored span path (a handful of device requests)
    // so the timed lanes start from identical, cheaply produced state.
    let mut data = vec![0u8; records as usize * BS];
    for i in 0..records {
        data[i as usize * BS..(i as usize + 1) * BS].fill(rec_byte(i));
    }
    pf.raw().write_span(0, &data).unwrap();
    pf.raw().set_len_records(records).unwrap();
}

/// Drain the SS file with `clients` concurrent sessions. Returns elapsed
/// seconds and the final server stats; panics on any duplicate, torn, or
/// missing record.
fn drain_ss(server: &Server, clients: usize, retry_busy: bool) -> (f64, ServerStats) {
    let seen = Mutex::new(HashSet::with_capacity(RECORDS as usize));
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for _ in 0..clients {
            let sess = server.connect();
            let seen = &seen;
            s.spawn(move |_| {
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
                let mut seen = seen.lock().unwrap();
                for idx in local {
                    assert!(seen.insert(idx), "record {idx} delivered twice");
                }
            });
        }
    })
    .unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let seen = seen.into_inner().unwrap();
    assert_eq!(
        seen.len(),
        RECORDS as usize,
        "every record delivered exactly once"
    );
    (secs, server.stats())
}

fn fmt_ns(ns: Option<u64>) -> String {
    match ns {
        Some(ns) => format!("{:.0}us", ns as f64 / 1e3),
        None => "-".to_string(),
    }
}

fn sweep_row(t: &mut Table, label: &str, clients: usize, secs: f64, base: f64, st: &ServerStats) {
    let io = st.io.as_ref().expect("devices run behind I/O nodes");
    t.row(&[
        label.to_string(),
        clients.to_string(),
        format!("{:.1}ms", secs * 1e3),
        format!("{:.0}", RECORDS as f64 / secs),
        format!("{:.2}x", base / secs),
        st.queue_depth_high_water.to_string(),
        fmt_ns(st.p50()),
        fmt_ns(st.p99()),
        fmt_ns(st.p999()),
        format!(
            "{:.0}/{:.0}ms",
            io.queue_wait_nanos as f64 / 1e6,
            io.service_nanos as f64 / 1e6
        ),
        st.fairness().map_or("-".into(), |f| format!("{f:.2}")),
    ]);
}

/// Zipf-skewed closed-loop GDA lane: every client runs its deterministic
/// (record, read|update) stream through locked server operations; hot
/// records contend on the byte-range locks.
fn gda_closed_loop(t: &mut Table, clients: u32) {
    let server = delayed_server(8, Saturation::Block);
    let pf =
        ParallelFile::create(server.volume(), "skewed", Organization::GlobalDirect, BS, 1).unwrap();
    let h = pf.direct_handle().unwrap();
    const GDA_RECORDS: u64 = 256;
    for r in 0..GDA_RECORDS {
        h.write_record(r, &[0; BS]).unwrap();
    }
    let wl = ClosedLoop {
        clients,
        records: GDA_RECORDS,
        ops_per_client: 250,
        theta: 0.9,
        write_fraction: 0.3,
        seed: 14,
    };
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for c in 0..clients {
            let sess = server.connect();
            let ops = wl.client_ops(c);
            s.spawn(move |_| {
                let g = sess.open_direct("skewed").unwrap();
                let mut buf = vec![0u8; BS];
                for (r, is_write) in ops {
                    if is_write {
                        // Locked read-modify-write of a per-record counter.
                        g.update(r, |bytes| {
                            let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                            bytes[..8].copy_from_slice(&(v + 1).to_le_bytes());
                        })
                        .unwrap();
                    } else {
                        g.read_record(r, &mut buf).unwrap();
                    }
                }
            });
        }
    })
    .unwrap();
    let secs = t0.elapsed().as_secs_f64();
    let st = server.stats();
    // No increment may be lost to a racing writer: the per-record
    // counters must sum to exactly the number of update operations.
    let sess = server.connect();
    let g = sess.open_direct("skewed").unwrap();
    let mut buf = vec![0u8; BS];
    let mut total = 0u64;
    for r in 0..GDA_RECORDS {
        g.read_record(r, &mut buf).unwrap();
        total += u64::from_le_bytes(buf[..8].try_into().unwrap());
    }
    let expected: u64 = (0..clients)
        .map(|c| wl.client_ops(c).iter().filter(|&&(_, w)| w).count() as u64)
        .sum();
    assert_eq!(total, expected, "lost GDA increments under contention");
    let io = st.io.as_ref().unwrap();
    t.row(&[
        "GDA zipf closed-loop".to_string(),
        clients.to_string(),
        format!("{:.1}ms", secs * 1e3),
        format!("{:.0}", wl.total_ops() as f64 / secs),
        "-".to_string(),
        st.queue_depth_high_water.to_string(),
        fmt_ns(st.p50()),
        fmt_ns(st.p99()),
        fmt_ns(st.p999()),
        format!(
            "{:.0}/{:.0}ms",
            io.queue_wait_nanos as f64 / 1e6,
            io.service_nanos as f64 / 1e6
        ),
        st.fairness().map_or("-".into(), |f| format!("{f:.2}")),
    ]);
}

fn main() {
    banner(
        "E14: multi-client service layer (sessions, sharing, admission)",
        "independent client sessions share one server: SS cursors span \
         sessions exactly-once, throughput scales with devices, and a \
         bounded admission queue enforces the configured in-flight limit",
    );

    let mut sweep = Table::new(&[
        "mode",
        "clients",
        "elapsed",
        "rec/s",
        "speedup",
        "qd high",
        "p50",
        "p99",
        "p999",
        "dev wait/svc",
        "fairness",
    ]);

    // -- Scaling lane: 1..8 two-phase clients, limit 8 ------------------
    let mut base_secs = 0.0;
    let mut secs_at_8 = 0.0;
    for &clients in &[1usize, 2, 4, 8] {
        let server = delayed_server(8, Saturation::Block);
        fill_ss(&server, RECORDS);
        let (secs, st) = drain_ss(&server, clients, false);
        if clients == 1 {
            base_secs = secs;
        }
        if clients == 8 {
            secs_at_8 = secs;
        }
        sweep_row(&mut sweep, "SS two-phase", clients, secs, base_secs, &st);
        assert!(
            st.queue_depth_high_water <= 8,
            "admission bound violated in scaling lane"
        );
    }
    let speedup = base_secs / secs_at_8;

    // -- Oversubscription lane: 16 clients, limit 4, blocking -----------
    let server = delayed_server(4, Saturation::Block);
    fill_ss(&server, RECORDS);
    let (over_secs, over_stats) = drain_ss(&server, 16, false);
    sweep_row(
        &mut sweep,
        "SS 4x oversub",
        16,
        over_secs,
        base_secs,
        &over_stats,
    );

    // -- Reject lane: same oversubscription, clients retry on Busy ------
    let server = delayed_server(4, Saturation::Reject);
    fill_ss(&server, RECORDS);
    let (reject_secs, reject_stats) = drain_ss(&server, 16, true);

    // Offered vs achieved: every Busy was an offered op the server shed;
    // total_admitted is what actually got through (goodput).
    let offered_rate = (reject_stats.total_admitted + reject_stats.rejected) as f64 / reject_secs;
    let achieved_rate = reject_stats.total_admitted as f64 / reject_secs;
    println!(
        "\nReject lane offered vs achieved: {offered_rate:.0} ops/s offered, \
         {achieved_rate:.0} ops/s admitted ({:.0}% goodput)",
        achieved_rate / offered_rate * 100.0
    );

    // -- Closed-loop GDA lanes ------------------------------------------
    gda_closed_loop(&mut sweep, 2);
    gda_closed_loop(&mut sweep, 8);

    sweep.print();
    save_json("e14_server_sweep", &sweep);

    // -- Asserted facts ---------------------------------------------------
    let io = over_stats.io.as_ref().expect("I/O-node stats available");
    println!("\nasserted facts:");
    let mut facts = Table::new(&["fact", "value", "required"]);
    facts.row(&[
        "SS records delivered exactly once (8 clients)".into(),
        RECORDS.to_string(),
        RECORDS.to_string(),
    ]);
    facts.row(&[
        "aggregate speedup, 8 clients vs 1".into(),
        format!("{speedup:.2}x"),
        ">= 3.0x".into(),
    ]);
    facts.row(&[
        "queue-depth high water at 4x oversubscription".into(),
        over_stats.queue_depth_high_water.to_string(),
        "<= 4 (the configured limit)".into(),
    ]);
    facts.row(&[
        "admission waiters observed (blocked clients)".into(),
        over_stats.wait_high_water.to_string(),
        "> 0".into(),
    ]);
    facts.row(&[
        "Busy rejections under Reject policy".into(),
        reject_stats.rejected.to_string(),
        "> 0".into(),
    ]);
    facts.row(&[
        "device queue wait attributed (I/O nodes)".into(),
        format!("{:.1}ms", io.queue_wait_nanos as f64 / 1e6),
        "> 0".into(),
    ]);
    facts.print();
    save_json("e14_server", &facts);

    Bench::new()
        .label("experiment", "e14_server")
        .int("records", RECORDS)
        .num("ss_speedup_8_vs_1", speedup)
        .num("ss_records_per_sec_8_clients", RECORDS as f64 / secs_at_8)
        .int(
            "oversub_queue_depth_high_water",
            over_stats.queue_depth_high_water as u64,
        )
        .int("oversub_wait_high_water", over_stats.wait_high_water as u64)
        .int("busy_rejections", reject_stats.rejected)
        .int("oversub_p50_nanos", over_stats.p50().unwrap_or(0))
        .int("oversub_p99_nanos", over_stats.p99().unwrap_or(0))
        .int("oversub_p999_nanos", over_stats.p999().unwrap_or(0))
        .int("oversub_total_admitted", over_stats.total_admitted)
        .num("reject_offered_ops_per_sec", offered_rate)
        .num("reject_achieved_ops_per_sec", achieved_rate)
        .save("e14_server");

    assert!(
        speedup >= 3.0,
        "8 SS clients must reach >=3x one client's throughput (got {speedup:.2}x)"
    );
    assert!(
        over_stats.queue_depth_high_water <= 4,
        "admission must bound in-flight ops at the limit (got {})",
        over_stats.queue_depth_high_water
    );
    assert!(
        over_stats.wait_high_water > 0,
        "4x oversubscription must visibly queue"
    );
    assert!(
        reject_stats.rejected > 0,
        "Reject policy must surface Busy under oversubscription"
    );
    assert!(io.queue_wait_nanos > 0 && io.service_nanos > 0);
    println!("\nE14 assertions passed.");
}
