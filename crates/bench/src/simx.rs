//! Builders connecting layouts and traces to the discrete-event world.
//!
//! The simulator plans with the product's planner,
//! [`pario_layout::plan`] (no holes: the simulated files carry no
//! parity), and adds only what a 1989 controller and a windowed reader
//! bring: each transfer is split at the controller's request cap, and a
//! stream is planned one window of logical blocks at a time.

use pario_layout::{plan, Layout};
use pario_sim::disk::{DiskGeometry, ModeledDisk, SchedPolicy};
use pario_sim::{DiskReq, Op, Simulation};

use crate::BS;

/// A simulation of `n` period-correct Winchester drives, ids `0..n`.
pub fn bank(n: usize, policy: SchedPolicy) -> Simulation {
    let mut sim = Simulation::new();
    for _ in 0..n {
        let drive = ModeledDisk::new(DiskGeometry::wren_1989(), policy, BS);
        sim.add_device(Box::new(drive));
    }
    sim
}

/// One reader streams blocks `[0, blocks)` of a file placed by `layout`
/// over `devices` FIFO drives ([`stream_script`]); returns the seconds
/// it took, the bytes a second it read, and the drives' mean
/// utilization.
pub fn stream(
    layout: &dyn Layout,
    devices: usize,
    blocks: u64,
    window: u64,
    max_run: u64,
) -> (f64, f64, f64) {
    let mut sim = bank(devices, SchedPolicy::Fifo);
    sim.add_proc(stream_script(layout, blocks, window, max_run));
    let r = sim.run();
    let secs = r.makespan.as_secs_f64();
    (
        secs,
        (blocks * BS as u64) as f64 / secs,
        r.mean_utilization(),
    )
}

/// Capacity in `BS` blocks of one modelled drive.
pub fn wren_capacity_blocks() -> u64 {
    ModeledDisk::new(DiskGeometry::wren_1989(), SchedPolicy::Fifo, BS).capacity_blocks()
}

/// The read requests that move the logical `extents` (`(first block,
/// count)` pairs) of a file placed by `layout` (device-local block =
/// physical block; one file per bank): the product's plan, each
/// transfer split at `max_run` blocks — the request size a real
/// controller would cap at.
pub fn plan_reqs(layout: &dyn Layout, extents: &[(u64, u64)], max_run: u64) -> Vec<DiskReq> {
    assert!(max_run >= 1);
    let mut out = Vec::new();
    for m in plan(layout, extents, |_, _| false).into_iter().flatten() {
        let mut start = m.dblock;
        let mut left = m.count;
        while left > 0 {
            let take = left.min(max_run);
            out.push(DiskReq::read(m.device, start, take as u32));
            start += take;
            left -= take;
        }
    }
    out
}

/// The extent list of interleaved process `p` of `procs`: clusters
/// `p, p + procs, ...` of `cluster` blocks, in a file of `blocks`.
pub fn is_clusters(p: u64, procs: u64, cluster: u64, blocks: u64) -> Vec<(u64, u64)> {
    (p..blocks / cluster)
        .step_by(procs as usize)
        .map(|c| (c * cluster, cluster))
        .collect()
}

/// One reader streaming blocks `[0, blocks)` with `window` blocks of
/// read-ahead, as `GlobalReader` does: each window is planned as one
/// span, its requests are issued together, and the next window waits
/// for them all.
pub fn stream_script(layout: &dyn Layout, blocks: u64, window: u64, max_run: u64) -> Vec<Op> {
    (0..blocks)
        .step_by(window as usize)
        .flat_map(|lo| {
            let span = (lo, window.min(blocks - lo));
            [
                Op::IoAsync(plan_reqs(layout, &[span], max_run)),
                Op::WaitAll,
            ]
        })
        .collect()
}

/// Interleave compute between blocking requests (per-request think time).
pub fn compute_io_script(reqs: Vec<DiskReq>, compute: pario_sim::SimTime) -> Vec<Op> {
    let mut ops = Vec::new();
    for r in reqs {
        ops.push(Op::Io(vec![r]));
        if !compute.is_zero() {
            ops.push(Op::Compute(compute));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_layout::Striped;
    use pario_sim::SimTime;

    #[test]
    fn plan_reqs_merge_and_cap() {
        let l = Striped::new(2, 4);
        // Blocks 0..8: unit 0 (4 blocks dev0), unit 1 (4 blocks dev1).
        let reqs = plan_reqs(&l, &[(0, 8)], 64);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].nblocks, 4);
        // Blocks 0..16: each device's two units are one transfer...
        let reqs = plan_reqs(&l, &[(0, 16)], 64);
        assert_eq!(reqs.len(), 2);
        assert!(reqs.iter().all(|r| r.nblocks == 8));
        // ...capped at 2-block requests: four a device.
        let reqs = plan_reqs(&l, &[(0, 16)], 2);
        assert_eq!(reqs.len(), 8);
        assert!(reqs.iter().all(|r| r.nblocks == 2));
    }

    #[test]
    fn streams_plan_one_window_at_a_time() {
        let l = Striped::new(2, 1);
        // 6 blocks in windows of 4: 2 windows of (async + wait), the
        // first one request of 2 blocks a device.
        let s = stream_script(&l, 6, 4, 64);
        assert_eq!(s.len(), 4);
        assert!(matches!(&s[0], Op::IoAsync(r) if r.len() == 2 && r[0].nblocks == 2));
        assert_eq!(is_clusters(1, 3, 2, 14), vec![(2, 2), (8, 2)]);
        let c = compute_io_script(plan_reqs(&l, &[(0, 6)], 1), SimTime::from_us(5));
        assert_eq!(c.len(), 12);
    }

    #[test]
    fn bank_runs_a_script() {
        let mut sim = bank(2, SchedPolicy::Fifo);
        let l = Striped::new(2, 1);
        sim.add_proc(stream_script(&l, 16, 4, 64));
        let r = sim.run();
        assert!(r.makespan > SimTime::ZERO);
        assert_eq!(r.total_blocks(), 16);
        assert_eq!(r.devices.len(), 2);
        assert!(wren_capacity_blocks() > 10_000);
        let (secs, rate, util) = stream(&l, 2, 16, 4, 64);
        assert_eq!(secs, r.makespan.as_secs_f64());
        assert_eq!(rate, (16 * BS) as f64 / secs);
        assert_eq!(util, r.mean_utilization());
    }
}
