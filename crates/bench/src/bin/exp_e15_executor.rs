//! E15 — the volume I/O executor. Two claims:
//!
//! 1. **Persistent workers beat spawn-per-request fan-out.** The paper's
//!    "dedicated I/O processors" (§4) are long-lived: a request is an
//!    enqueue on a live worker, not a thread birth. This experiment pits
//!    the executor's submit/wait path against the pre-executor strategy
//!    (spawn one scoped thread per device run, join them all) on the same
//!    delay-modelled memory devices. The win must show on *small*
//!    multi-device spans — where spawn cost rivals service time and the
//!    old code therefore fell back to serial loops — while staying at
//!    least even on large spans where spawn cost amortises.
//! 2. **Queue-aware dispatch beats FIFO on a seeking disk.** Each worker
//!    dispatches its backlog through a [`SchedPolicy`]; on the modelled
//!    1989 Wren drive, SSTF/SCAN cut seek time against FIFO for the same
//!    scattered request set (virtual time, no wall-clock noise).
//!
//! 3. **A blocking call on an idle node skips the hand-off.** Overlap is
//!    what a dedicated processor buys, and a blocking single-block call
//!    has none to buy: an idle node runs it on the calling thread. The
//!    lane times a 1-block read on an undelayed device three ways — the
//!    raw device, through an idle node, and through the queue — and
//!    reports what each node path adds over the device itself.
//!
//! Lanes are medians over many iterations; results land in
//! `results/e15_executor.json` (part 1),
//! `results/e15_executor_sched.json` (part 2) and
//! `results/e15_executor_handoff.json` (part 3).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, Bench, Table};
use pario_bench::{banner, BS};
use pario_disk::{DeviceRef, DiskGeometry, IoNode, MemDisk, ModeledDisk, SchedPolicy, Ticket};
use pario_sim::{DiskReq, Script, Simulation};

/// Modelled service time per device request (the 1989 request-count
/// regime: fixed per-access cost dominates).
const DELAY: Duration = Duration::from_micros(30);
const DEVICES: usize = 4;

fn device_bank() -> Vec<DeviceRef> {
    (0..DEVICES)
        .map(|i| {
            Arc::new(MemDisk::named(&format!("m{i}"), 4096, BS).with_delay(DELAY)) as DeviceRef
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// One request through the pre-executor strategy: spawn a scoped thread
/// per device run, join them all.
fn spawn_lane(devs: &[DeviceRef], per_dev_blocks: usize, iters: usize) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    let mut bufs: Vec<Vec<u8>> = (0..DEVICES)
        .map(|_| vec![0u8; per_dev_blocks * BS])
        .collect();
    for _ in 0..iters {
        let t0 = Instant::now();
        crossbeam::thread::scope(|s| {
            for (d, buf) in devs.iter().zip(bufs.iter_mut()) {
                s.spawn(move |_| d.read_blocks_at(0, buf).unwrap());
            }
        })
        .unwrap();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(samples)
}

/// The same request through persistent workers: enqueue one submission
/// per device, wait the tickets.
fn executor_lane(handles: &[DeviceRef], per_dev_blocks: usize, iters: usize) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    let mut bufs: Vec<Box<[u8]>> = (0..DEVICES)
        .map(|_| vec![0u8; per_dev_blocks * BS].into_boxed_slice())
        .collect();
    for _ in 0..iters {
        let t0 = Instant::now();
        let tickets: Vec<Ticket<Box<[u8]>>> = handles
            .iter()
            .zip(bufs.drain(..))
            .map(|(h, buf)| h.submit_read_blocks(0, buf))
            .collect();
        bufs = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(samples)
}

/// Returns the executor-vs-spawn speedup at the smallest and largest
/// span sizes for the flat benchmark summary.
fn part1() -> (f64, f64) {
    let devs = device_bank();
    let (_nodes, handles) = IoNode::spawn_bank(devs.clone());
    let mut t = Table::new(&[
        "span",
        "blocks/dev",
        "spawn-per-call",
        "executor",
        "speedup",
    ]);
    let mut small_speedup = 0.0;
    let mut large_speedup = 0.0;
    // (total span blocks, iterations): small spans are where the old
    // code's serial fallback lived; large spans amortise spawn cost.
    for &(total, iters) in &[(4usize, 401usize), (16, 301), (64, 201), (256, 101)] {
        let per_dev = total / DEVICES;
        let spawn = spawn_lane(&devs, per_dev, iters);
        let exec = executor_lane(&handles, per_dev, iters);
        let speedup = spawn / exec;
        t.row(&[
            format!("{total} blk"),
            per_dev.to_string(),
            format!("{:.1}us", spawn * 1e6),
            format!("{:.1}us", exec * 1e6),
            format!("{speedup:.2}x"),
        ]);
        if total == 4 {
            small_speedup = speedup;
            assert!(
                exec < spawn,
                "executor must beat spawn-per-call on small multi-device \
                 spans (exec {exec:.6}s vs spawn {spawn:.6}s)"
            );
        }
        if total == 256 {
            large_speedup = speedup;
        }
        assert!(
            exec <= spawn * 1.10,
            "executor must stay within 10% of spawn-per-call at {total} \
             blocks (exec {exec:.6}s vs spawn {spawn:.6}s)"
        );
    }
    t.print();
    save_json("e15_executor", &t);
    (small_speedup, large_speedup)
}

/// Returns (FIFO, SSTF) makespans in seconds for the summary.
fn part2() -> (f64, f64) {
    let run = |policy: SchedPolicy| {
        let mut sim = Simulation::new();
        let disk = ModeledDisk::new(DiskGeometry::wren_1989(), policy, BS);
        let cap = disk.capacity_blocks();
        let dev = sim.add_device(Box::new(disk));
        // 6 processes each dump 24 scattered reads into the queue at
        // once, so each dispatch decision sees a deep backlog.
        for p in 0..6u64 {
            let reqs: Vec<DiskReq> = (0..24u64)
                .map(|i| DiskReq::read(dev, (p * 7919 + i * 104729) % cap, 1))
                .collect();
            sim.add_proc(Script::new().io_async(reqs).wait_all().build());
        }
        sim.run().makespan
    };
    let fifo = run(SchedPolicy::Fifo);
    let mut sstf_secs = 0.0;
    let mut t = Table::new(&["policy", "makespan", "vs FIFO"]);
    for (name, policy) in [
        ("FIFO", SchedPolicy::Fifo),
        ("SSTF", SchedPolicy::Sstf),
        ("SCAN", SchedPolicy::Scan),
        ("C-SCAN", SchedPolicy::CScan),
    ] {
        let mk = run(policy);
        t.row(&[
            name.to_string(),
            format!("{:.1}ms", mk.as_millis_f64()),
            format!("{:.2}x", fifo.as_secs_f64() / mk.as_secs_f64()),
        ]);
        if matches!(policy, SchedPolicy::Sstf) {
            sstf_secs = mk.as_secs_f64();
        }
        if matches!(policy, SchedPolicy::Sstf | SchedPolicy::Scan) {
            assert!(
                mk < fifo,
                "{name} must beat FIFO on a scattered backlog \
                 ({:.2}ms vs {:.2}ms)",
                mk.as_millis_f64(),
                fifo.as_millis_f64()
            );
        }
    }
    t.print();
    save_json("e15_executor_sched", &t);
    (fifo.as_secs_f64(), sstf_secs)
}

/// Returns what a blocking 1-block read costs over the raw device, in
/// nanoseconds, through an idle node (caller-runs) and through the
/// node's queue (what the same call pays behind a backlog, and what
/// every call paid before caller-runs).
fn part3() -> (f64, f64) {
    const ITERS: usize = 20_001;
    let raw: DeviceRef = Arc::new(MemDisk::named("m", 4096, BS));
    let node = IoNode::spawn(Arc::clone(&raw));
    let handle = node.device();
    let median_ns = |op: &mut dyn FnMut()| {
        let mut samples = Vec::with_capacity(ITERS);
        for _ in 0..ITERS {
            let t0 = Instant::now();
            op();
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        median(samples)
    };
    let mut buf = vec![0u8; BS];
    let device = median_ns(&mut || raw.read_block(7, &mut buf).unwrap());
    let idle = median_ns(&mut || handle.read_block(7, &mut buf).unwrap());
    let mut boxed = vec![0u8; BS].into_boxed_slice();
    let queued = median_ns(&mut || {
        let ticket = handle.submit_read_blocks(7, std::mem::take(&mut boxed));
        boxed = ticket.wait().unwrap();
    });
    let (handoff_idle, handoff_queued) = (idle - device, queued - device);
    let mut t = Table::new(&["path", "1-block read", "over the device"]);
    for (name, ns) in [
        ("raw device", device),
        ("idle node", idle),
        ("queued", queued),
    ] {
        t.row(&[
            name.to_string(),
            format!("{ns:.0}ns"),
            format!("{:.0}ns", ns - device),
        ]);
    }
    t.print();
    save_json("e15_executor_handoff", &t);
    assert!(
        handoff_idle < handoff_queued / 2.0,
        "a blocking call on an idle node must cost under half the queued \
         hand-off (idle {handoff_idle:.0}ns vs queued {handoff_queued:.0}ns)"
    );
    (handoff_idle, handoff_queued)
}

fn main() {
    banner(
        "I/O executor (persistent per-device workers)",
        "dedicated I/O processors: requests are enqueued on long-lived \
         per-device workers instead of spawning a thread per device run, \
         and each worker dispatches its backlog by seek-aware policy",
    );
    let (small_speedup, large_speedup) = part1();
    println!("\nDispatch policy on the modelled 1989 drive (virtual time):");
    let (fifo_secs, sstf_secs) = part2();
    println!("\nBlocking 1-block read on an undelayed device (hand-off cost):");
    let (handoff_idle, handoff_queued) = part3();

    Bench::new()
        .label("experiment", "e15_executor")
        .int("devices", DEVICES as u64)
        .num("small_span_speedup_vs_spawn", small_speedup)
        .num("large_span_speedup_vs_spawn", large_speedup)
        .num("fifo_makespan_secs", fifo_secs)
        .num("sstf_makespan_secs", sstf_secs)
        .num("sstf_speedup_vs_fifo", fifo_secs / sstf_secs)
        .num("handoff_ns_idle", handoff_idle)
        .num("handoff_ns_queued", handoff_queued)
        .save("e15_executor");
}
