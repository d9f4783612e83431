//! E6 — §4: "For systems with many processors, it may not be practical
//! to allocate a separate storage device for each processor. In this
//! case, blocks belonging to several processes would be allocated to each
//! device. Seek times are likely to cause some performance degradation as
//! the drive services requests from different processes. Work is needed
//! here to determine the best ways to allocate space on the disks to
//! minimize this problem."
//!
//! The ablation the paper calls for: P processes stream over D drives
//! with (a) contiguous per-process allocation vs (b) fine-grained
//! interleaved on-disk allocation, under FIFO and SCAN arm scheduling.

use pario_bench::banner;
use pario_bench::simx::{wren_bank, wren_capacity_blocks};
use pario_bench::table::{save_json, secs, Table};
use pario_sim::disk::SchedPolicy;
use pario_sim::{DiskReq, Op, Simulation};

const BLOCKS_PER_PROC: u64 = 1024; // 4 MiB per process
const CHUNK: u64 = 16; // 64 KiB per request

#[derive(Copy, Clone, PartialEq)]
enum Alloc {
    /// Each co-located process's blocks form one contiguous region.
    Contiguous,
    /// Co-located processes' chunks interleave finely on the platter.
    Interleaved,
}

/// Device-local block address of chunk `k` of co-located slot `slot`
/// (of `slots` processes sharing the device). Contiguous regions are
/// spread across the whole platter, as separate partitions of a large
/// file (or separate files) would be.
fn chunk_addr(alloc: Alloc, slot: u64, slots: u64, k: u64) -> u64 {
    match alloc {
        Alloc::Contiguous => slot * (wren_capacity_blocks() / slots) + k * CHUNK,
        Alloc::Interleaved => (k * slots + slot) * CHUNK,
    }
}

fn run(procs: usize, devices: usize, alloc: Alloc, policy: SchedPolicy) -> (f64, f64) {
    let mut sim = Simulation::new();
    wren_bank(&mut sim, devices, policy);
    let slots = (procs / devices).max(1) as u64;
    for p in 0..procs {
        let dev = p % devices;
        let slot = (p / devices) as u64;
        let mut ops = Vec::new();
        for k in 0..BLOCKS_PER_PROC / CHUNK {
            let addr = chunk_addr(alloc, slot, slots, k);
            ops.push(Op::Io(vec![DiskReq::read(dev, addr, CHUNK as u32)]));
        }
        sim.add_proc(ops);
    }
    let r = sim.run();
    let makespan = r.makespan.as_secs_f64();
    let busy: f64 = r.devices.iter().map(|d| d.busy.as_secs_f64()).sum();
    let seek: f64 = r.devices.iter().map(|d| d.seek.as_secs_f64()).sum();
    (makespan, seek / busy)
}

fn main() {
    banner(
        "E6 (seek degradation with shared devices)",
        "sharing a drive among processes costs seeks; on-disk allocation \
         policy and arm scheduling determine how much",
    );
    const D: usize = 4;
    println!(
        "{D} drives, 4 MiB per process, 64 KiB requests; processes \
         blocking-stream their own data\n"
    );
    let mut t = Table::new(&[
        "procs",
        "procs/drive",
        "allocation",
        "policy",
        "makespan",
        "seek share",
        "slowdown",
    ]);
    let (base, _) = run(D, D, Alloc::Contiguous, SchedPolicy::Fifo);
    for &procs in &[4usize, 8, 16, 32] {
        for (alloc, aname) in [
            (Alloc::Contiguous, "contiguous"),
            (Alloc::Interleaved, "interleaved"),
        ] {
            for (policy, pname) in [(SchedPolicy::Fifo, "FIFO"), (SchedPolicy::Scan, "SCAN")] {
                let (m, seek_share) = run(procs, D, alloc, policy);
                // Per-process-work normalised slowdown vs the private
                // 1-proc-per-drive baseline.
                let slowdown = m / (base * (procs / D) as f64);
                t.row(&[
                    procs.to_string(),
                    (procs / D).to_string(),
                    aname.to_string(),
                    pname.to_string(),
                    secs(m),
                    format!("{:.0}%", seek_share * 100.0),
                    format!("{slowdown:.2}x"),
                ]);
            }
        }
    }
    t.print();
    save_json("e6_seek_degradation", &t);
    println!(
        "\nShape: with one process per drive seeks are negligible; once a \
         drive serves several processes, contiguous (far-apart) regions \
         pay a cross-platter seek on nearly every request (~1.3-1.6x \
         slowdown). Interleaving co-located processes' chunks keeps the \
         arm local and eliminates the penalty; SCAN trims the contiguous \
         loss modestly at these shallow queue depths — the allocation \
         policy is the lever, as the paper's 'work is needed here' \
         anticipated."
    );
}
