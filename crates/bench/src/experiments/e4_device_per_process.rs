//! E4 — §4: "Types PS and IS have obvious implementations if there is
//! one device per process. In the first case, one device is allocated to
//! each block; in the second case, blocks are interleaved across the
//! devices. This differs from normal disk striping, since processes are
//! free to proceed at different rates."
//!
//! P processes each stream their own portion of a file on a P-drive
//! bank, under PS and IS placements, with per-process compute between
//! blocks drawn unevenly so rates genuinely differ. The contrast case is
//! the same workload forced onto a single shared drive.

use pario_layout::{Partitioned, Striped};
use pario_sim::disk::SchedPolicy;
use pario_sim::{DiskReq, SimTime};

use crate::simx::{bank, compute_io_script, is_clusters, plan_reqs};
use crate::table::{rate, secs, Table};
use crate::{Report, Size, BS};

/// Data per process (weak scaling: the file grows with the process
/// count, each process always streams this much from its own drive).
const BYTES_PER_PROC: u64 = 8 * 1024 * 1024;
const CLUSTER: u64 = 16; // IS cluster = 64 KiB

/// One row: the processes' request lists run on `devices` drives.
fn run_case(name: &str, devices: usize, per_proc_reqs: Vec<Vec<DiskReq>>, t: &mut Table) {
    let nprocs = per_proc_reqs.len();
    let mut sim = bank(devices, SchedPolicy::Fifo);
    for (p, reqs) in per_proc_reqs.into_iter().enumerate() {
        // Uneven rates: odd processes think 4 ms per request, even
        // processes 1 ms — private drives let them diverge freely.
        let compute = SimTime::from_ms(1 + 3 * (p as u64 % 2));
        sim.add_proc(compute_io_script(reqs, compute));
    }
    let time = sim.run().makespan.as_secs_f64();
    let bytes = BYTES_PER_PROC * nprocs as u64;
    t.row(&[
        name.to_string(),
        nprocs.to_string(),
        devices.to_string(),
        secs(time),
        rate(bytes as f64 / time),
    ]);
}

/// Each process's partition of a PS file of `blocks`, placed on
/// `devices` drives.
fn ps_reqs(blocks: u64, procs: usize, devices: usize) -> Vec<Vec<DiskReq>> {
    let ps = Partitioned::uniform(blocks, procs, devices);
    (0..procs)
        .map(|i| {
            let (lo, hi) = ps.partition_range(i);
            plan_reqs(&ps, &[(lo, hi - lo)], CLUSTER)
        })
        .collect()
}

/// PS and IS with a drive per process, against four processes on one.
pub fn run(_: Size) -> Report {
    let mut t = Table::new(&["case", "procs", "devices", "makespan", "aggregate"]);
    for &p in &[1usize, 2, 4, 8] {
        let blocks = BYTES_PER_PROC / BS as u64 * p as u64;
        // PS: process i streams its contiguous partition (on device i).
        run_case(
            &format!("PS {p} dev/proc"),
            p,
            ps_reqs(blocks, p, p),
            &mut t,
        );

        // IS: process i streams clusters i, i+p, ... (device i), one
        // extent list.
        let is = Striped::interleaved(p, CLUSTER);
        let per: Vec<Vec<DiskReq>> = (0..p as u64)
            .map(|i| plan_reqs(&is, &is_clusters(i, p as u64, CLUSTER, blocks), CLUSTER))
            .collect();
        run_case(&format!("IS {p} dev/proc"), p, per, &mut t);
    }

    // Contrast: 4 processes sharing ONE device (PS partitions stacked).
    let blocks = BYTES_PER_PROC / BS as u64 * 4;
    run_case("PS 4 procs, 1 shared dev", 1, ps_reqs(blocks, 4, 1), &mut t);

    let mut r = Report::default();
    r.table("e4_device_per_process", t).note(
        "\nShape: with a drive per process the makespan stays flat as \
         processes (and data) scale together — aggregate bandwidth grows \
         linearly; forcing four processes onto one shared drive \
         multiplies the makespan several-fold.",
    );
    r
}
