//! E15 — the volume I/O executor. Two claims:
//!
//! 1. **Seek-aware dispatch beats FIFO on the modelled drive.** The
//!    modelled 1989 Wren drive ([`ModeledDisk`]) services its backlog
//!    through a [`SchedPolicy`]; SSTF/SCAN cut seek time against FIFO
//!    for the same scattered request set (virtual time: exact, so
//!    recorded as facts rather than run five times). The volume's own
//!    workers serve their queues in arrival order.
//! 2. **A blocking call on an idle node skips the hand-off.** Overlap is
//!    what a dedicated processor buys, and a blocking single-block call
//!    has none to buy: an idle node runs it on the calling thread. The
//!    lane times a 1-block read on an undelayed device three ways — the
//!    raw device, through an idle node, and through the queue — and
//!    reports what each node path adds over the device itself.

use std::sync::Arc;
use std::time::Instant;

use pario_bench::measure::{Report, RUNS};
use pario_bench::rig::Rig;
use pario_bench::{banner, BS};
use pario_disk::{DiskGeometry, IoNode, ModeledDisk, SchedPolicy};
use pario_sim::{DiskReq, Script, Simulation};

/// Makespan in seconds of a scattered backlog under `policy`: 6
/// processes each dump 24 reads into the queue at once, so each
/// dispatch decision sees a deep backlog.
fn makespan_secs(policy: SchedPolicy) -> f64 {
    let mut sim = Simulation::new();
    let disk = ModeledDisk::new(DiskGeometry::wren_1989(), policy, BS);
    let cap = disk.capacity_blocks();
    let dev = sim.add_device(Box::new(disk));
    for p in 0..6u64 {
        let reqs: Vec<DiskReq> = (0..24u64)
            .map(|i| DiskReq::read(dev, (p * 7919 + i * 104729) % cap, 1))
            .collect();
        sim.add_proc(Script::new().io_async(reqs).wait_all().build());
    }
    sim.run().makespan.as_secs_f64()
}

/// One run of the hand-off lane: the mean cost in nanoseconds of a
/// blocking 1-block read on the raw device, through an idle node
/// (caller-runs) and through the node's queue (what the same call pays
/// behind a backlog), and what the two node paths add over the device.
fn handoff_run() -> Vec<(&'static str, f64)> {
    const ITERS: u32 = 20_000;
    let raw = Rig::new(1).blocks(4096).devices().remove(0);
    let node = IoNode::spawn(Arc::clone(&raw));
    let handle = node.device();
    let mean_nanos = |op: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            op();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
    };
    let mut buf = vec![0u8; BS];
    let device = mean_nanos(&mut || raw.read_block(7, &mut buf).unwrap());
    let idle = mean_nanos(&mut || handle.read_block(7, &mut buf).unwrap());
    let mut boxed = vec![0u8; BS].into_boxed_slice();
    let queued = mean_nanos(&mut || {
        let ticket = handle.submit_read_blocks(7, std::mem::take(&mut boxed));
        boxed = ticket.wait().unwrap();
    });
    vec![
        ("device_nanos", device),
        ("idle_node_nanos", idle),
        ("queued_nanos", queued),
        ("idle_over_device_nanos", idle - device),
        ("queued_over_device_nanos", queued - device),
    ]
}

fn main() {
    banner(
        "I/O executor (persistent per-device workers)",
        "dedicated I/O processors: the modelled 1989 drive's seek-aware \
         policy beats FIFO on a scattered backlog, and a blocking call \
         that finds its node idle runs on the calling thread instead of \
         paying the hand-off",
    );
    let mut report = Report::new("e15_executor");

    println!("dispatch policy on the modelled 1989 drive (virtual time):");
    let fifo = makespan_secs(SchedPolicy::Fifo);
    report.fact("fifo_makespan_secs", fifo);
    for (name, policy) in [
        ("sstf", SchedPolicy::Sstf),
        ("scan", SchedPolicy::Scan),
        ("cscan", SchedPolicy::CScan),
    ] {
        let secs = makespan_secs(policy);
        report
            .fact(&format!("{name}_makespan_secs"), secs)
            .fact(&format!("{name}_speedup_vs_fifo"), fifo / secs);
        if !matches!(policy, SchedPolicy::CScan) {
            report.check(
                &format!("{name} beats FIFO on a scattered backlog"),
                secs < fifo,
            );
        }
    }

    println!("blocking 1-block read on an undelayed device (hand-off cost):");
    let handoff = report.lane("handoff", RUNS, handoff_run);
    let (idle, queued) = (
        handoff["idle_over_device_nanos"].median,
        handoff["queued_over_device_nanos"].median,
    );
    report.check(
        &format!(
            "a blocking call on an idle node costs under half the queued \
             hand-off ({idle:.0}ns against {queued:.0}ns over the device)"
        ),
        idle < queued / 2.0,
    );
    report.finish();
}
