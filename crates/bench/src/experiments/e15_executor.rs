//! E15 — the volume I/O executor. Two claims:
//!
//! 1. **Seek-aware dispatch beats FIFO on the modelled drive.** The
//!    modelled 1989 Wren drive ([`pario_sim::disk::ModeledDisk`]) services its backlog
//!    through a [`SchedPolicy`]; SSTF/SCAN cut seek time against FIFO
//!    for the same scattered request set (virtual time: exact, so
//!    recorded as facts rather than run five times). The volume's own
//!    workers serve their queues in arrival order.
//! 2. **A call on an idle node skips the hand-off.** Overlap is what a
//!    dedicated processor buys, and on an undelayed device the hand-off
//!    costs more than the transfer: an idle node runs a blocking call on
//!    the calling thread, and a submission too once the node has
//!    measured its transfers under the hand-off cost. The lane times a
//!    1-block read on an undelayed device four ways — the raw device, a
//!    blocking call and a submission through an idle node, and a
//!    submission that queues behind a busy one — and reports what each
//!    node path adds over the device itself.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use pario_disk::{BlockDevice, DeviceRef, DiskError, IoCounters, IoNode};
use pario_sim::disk::SchedPolicy;
use pario_sim::{DiskReq, Script};

use crate::measure::{Measured, RUNS};
use crate::rig::Rig;
use crate::simx::{bank, wren_capacity_blocks};
use crate::{Report, Size, BS};

/// Makespan in seconds of a scattered backlog under `policy`: 6
/// processes each dump 24 reads into the queue at once, so each
/// dispatch decision sees a deep backlog.
fn makespan_secs(policy: SchedPolicy) -> f64 {
    let mut sim = bank(1, policy);
    let cap = wren_capacity_blocks();
    for p in 0..6u64 {
        let reqs: Vec<DiskReq> = (0..24u64)
            .map(|i| DiskReq::read(0, (p * 7919 + i * 104729) % cap, 1))
            .collect();
        sim.add_proc(Script::new().io_async(reqs).wait_all().build());
    }
    sim.run().makespan.as_secs_f64()
}

/// The raw device, with one block whose reads park the thread serving
/// them until [`Gated::release`]: a worker parked there keeps its node
/// busy, so whatever is submitted behind it queues.
struct Gated {
    inner: DeviceRef,
    /// (gate reads begun, gate reads released)
    gate: Mutex<(u64, u64)>,
    cv: Condvar,
}

impl Gated {
    const GATE: u64 = 0;

    /// Let the oldest parked gate read finish.
    fn release(&self) {
        self.gate.lock().unwrap().1 += 1;
        self.cv.notify_all();
    }
}

impl BlockDevice for Gated {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        if block == Self::GATE {
            let mut g = self.gate.lock().unwrap();
            let turn = g.0;
            g.0 += 1;
            while g.1 <= turn {
                g = self.cv.wait(g).unwrap();
            }
        }
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.inner.write_blocks_at(block, data)
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn fail(&self) {
        self.inner.fail()
    }
    fn heal(&self) {
        self.inner.heal()
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
}

/// One run of the hand-off lane, `iters` reads a path: the mean cost
/// in nanoseconds of a 1-block read on the raw device; through an idle
/// node as a blocking call and as a submission (both caller-runs); and
/// as a submission queued behind a busy node. Then what each node path
/// adds over the device.
fn handoff_run(iters: u32) -> Vec<(&'static str, f64)> {
    let raw = Rig::new(1).blocks(4096).devices().remove(0);
    let node = IoNode::spawn(Arc::clone(&raw));
    let handle = node.device();
    let mean_nanos = |op: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        t0.elapsed().as_nanos() as f64 / f64::from(iters)
    };
    let mut buf = vec![0u8; BS];
    let device = mean_nanos(&mut || raw.read_block(7, &mut buf).unwrap());
    // The blocking calls leave the node measured as fast, so from here
    // a submission to it runs inline and its ticket comes back ready.
    let idle = mean_nanos(&mut || handle.read_block(7, &mut buf).unwrap());
    let mut boxed = vec![0u8; BS].into_boxed_slice();
    let idle_submit = mean_nanos(&mut || {
        let ticket = handle.submit_read_blocks(7, std::mem::take(&mut boxed));
        boxed = ticket.wait().unwrap();
    });

    // The queued lane runs on a node of its own, its worker parked on
    // the gate from the first (unmeasured, so queued) request on. Each
    // round submits the read — it queues — and the next gate read
    // behind it, then releases the parked one: the worker wakes once,
    // serves the read and parks again, and the caller wakes once for
    // the reply — the two wake-ups of any hand-off. The round also
    // carries the gate read's submission and the collection of its
    // predecessor's ticket, a few hundred nanoseconds.
    let gated = Arc::new(Gated {
        inner: Rig::new(1).blocks(4096).devices().remove(0),
        gate: Mutex::new((0, 0)),
        cv: Condvar::new(),
    });
    let busy = IoNode::spawn(Arc::clone(&gated) as DeviceRef);
    let busy_handle = busy.device();
    let submit_gate = |buf: Box<[u8]>| busy_handle.submit_read_blocks(Gated::GATE, buf);
    let mut parked = submit_gate(vec![0u8; BS].into_boxed_slice());
    let mut gate_buf = vec![0u8; BS].into_boxed_slice();
    let queued = mean_nanos(&mut || {
        let ticket = busy_handle.submit_read_blocks(7, std::mem::take(&mut boxed));
        let next = submit_gate(std::mem::take(&mut gate_buf));
        gated.release();
        boxed = ticket.wait().unwrap();
        gate_buf = std::mem::replace(&mut parked, next).wait().unwrap();
    });
    gated.release();
    parked.wait().unwrap();
    vec![
        ("device_nanos", device),
        ("idle_node_nanos", idle),
        ("idle_submit_nanos", idle_submit),
        ("queued_nanos", queued),
        ("idle_over_device_nanos", idle - device),
        ("idle_submit_over_device_nanos", idle_submit - device),
        ("queued_over_device_nanos", queued - device),
    ]
}

/// The dispatch policies in virtual time, then the hand-off lane.
pub fn run(size: Size) -> Report {
    let mut lanes = Measured::new("e15_executor");
    let mut r = Report::default();
    let fifo = makespan_secs(SchedPolicy::Fifo);
    lanes.fact("fifo_makespan_secs", fifo);
    for (name, policy) in [
        ("sstf", SchedPolicy::Sstf),
        ("scan", SchedPolicy::Scan),
        ("cscan", SchedPolicy::CScan),
    ] {
        let secs = makespan_secs(policy);
        lanes
            .fact(&format!("{name}_makespan_secs"), secs)
            .fact(&format!("{name}_speedup_vs_fifo"), fifo / secs);
        if !matches!(policy, SchedPolicy::CScan) {
            r.check(
                format!("{name} beats FIFO on a scattered backlog (modelled drive)"),
                secs < fifo,
            );
        }
    }

    let iters = size.pick(20_000, 2_000);
    let handoff = lanes.lane("handoff", RUNS, || handoff_run(iters));
    let (idle, submit, queued) = (
        handoff["idle_over_device_nanos"].median,
        handoff["idle_submit_over_device_nanos"].median,
        handoff["queued_over_device_nanos"].median,
    );
    r.measured(lanes)
        .check(
            format!(
                "a blocking call on an idle node costs under half the queued \
                 hand-off ({idle:.0}ns against {queued:.0}ns over the device)"
            ),
            idle < queued / 2.0,
        )
        .check(
            format!(
                "a submission to an idle fast node costs about what the \
                 blocking call does, not a hand-off ({submit:.0}ns against \
                 {idle:.0}ns and {queued:.0}ns over the device)"
            ),
            submit < 2.0 * idle.max(100.0) && submit < queued / 2.0,
        );
    r
}
