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

use pario_bench::simx::{compute_io_script, is_clusters, plan_reqs, wren_bank};
use pario_bench::table::{rate, save_json, secs, Table};
use pario_bench::{banner, BS};
use pario_layout::{Partitioned, Striped};
use pario_sim::disk::SchedPolicy;
use pario_sim::{DiskReq, SimTime, Simulation};

/// Data per process (weak scaling: the file grows with the process
/// count, each process always streams this much from its own drive).
const BYTES_PER_PROC: u64 = 8 * 1024 * 1024;
const CLUSTER: u64 = 16; // IS cluster = 64 KiB

fn run_case(
    name: &str,
    devices: usize,
    nprocs: usize,
    per_proc_reqs: Vec<Vec<DiskReq>>,
    compute_scale: bool,
    t: &mut Table,
) {
    let mut sim = Simulation::new();
    wren_bank(&mut sim, devices, SchedPolicy::Fifo);
    for (p, reqs) in per_proc_reqs.into_iter().enumerate() {
        // Uneven rates: odd processes think 4 ms per request, even
        // processes 1 ms — private drives let them diverge freely.
        let compute = if compute_scale {
            SimTime::from_ms(1 + 3 * (p as u64 % 2))
        } else {
            SimTime::ZERO
        };
        sim.add_proc(compute_io_script(reqs, compute));
    }
    let r = sim.run();
    let time = r.makespan.as_secs_f64();
    let bytes = BYTES_PER_PROC * nprocs as u64;
    t.row(&[
        name.to_string(),
        nprocs.to_string(),
        devices.to_string(),
        secs(time),
        rate(bytes as f64 / time),
    ]);
}

fn main() {
    banner(
        "E4 (device per process: PS and IS)",
        "with one device per process, PS and IS give each process a \
         private drive and processes proceed at their own rates",
    );
    let mut t = Table::new(&["case", "procs", "devices", "makespan", "aggregate"]);
    for &p in &[1usize, 2, 4, 8] {
        let blocks = BYTES_PER_PROC / BS as u64 * p as u64;
        // PS: process i streams its contiguous partition (on device i).
        let ps = Partitioned::uniform(blocks, p, p);
        let per: Vec<Vec<DiskReq>> = (0..p)
            .map(|i| {
                let (lo, hi) = ps.partition_range(i);
                plan_reqs(&ps, &[(lo, hi - lo)], CLUSTER)
            })
            .collect();
        run_case(&format!("PS {p} dev/proc"), p, p, per, true, &mut t);

        // IS: process i streams clusters i, i+p, ... (device i), one
        // extent list.
        let is = Striped::interleaved(p, CLUSTER);
        let per: Vec<Vec<DiskReq>> = (0..p as u64)
            .map(|i| plan_reqs(&is, &is_clusters(i, p as u64, CLUSTER, blocks), CLUSTER))
            .collect();
        run_case(&format!("IS {p} dev/proc"), p, p, per, true, &mut t);
    }

    // Contrast: 4 processes sharing ONE device (PS partitions stacked).
    let blocks = BYTES_PER_PROC / BS as u64 * 4;
    let ps1 = Partitioned::uniform(blocks, 4, 1);
    let per: Vec<Vec<DiskReq>> = (0..4)
        .map(|i| {
            let (lo, hi) = ps1.partition_range(i);
            plan_reqs(&ps1, &[(lo, hi - lo)], CLUSTER)
        })
        .collect();
    run_case("PS 4 procs, 1 shared dev", 1, 4, per, true, &mut t);

    t.print();
    save_json("e4_device_per_process", &t);
    println!(
        "\nShape: with a drive per process the makespan stays flat as \
         processes (and data) scale together — aggregate bandwidth grows \
         linearly; forcing four processes onto one shared drive \
         multiplies the makespan several-fold."
    );
}
