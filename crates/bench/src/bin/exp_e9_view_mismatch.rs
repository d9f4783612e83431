//! E9 — §5: "a serious mismatch occurs … if a file created with a PS
//! organization needs to be read later with an IS format. One
//! alternative would be … a software interface to present the alternate
//! view when needed, but with degraded performance. A related idea would
//! be to force either the creator or the consumer to use the global view
//! instead … A third possibility is to supply conversion utilities to
//! copy from one format to the other, but this could be expensive for
//! large files. Each of these solutions could be useful, depending on
//! the situation."
//!
//! All three strategies are priced on the simulator for a 64 MiB PS file
//! consumed by 4 IS processes, including the pass-count crossover that
//! decides among them.

use pario_bench::simx::{is_clusters, plan_reqs, stream_script, wren_bank};
use pario_bench::table::{save_json, secs, Table};
use pario_bench::{banner, BS};
use pario_layout::{Partitioned, Striped};
use pario_sim::disk::SchedPolicy;
use pario_sim::{DiskReq, Op, ReqKind, Simulation};

const FILE_BYTES: u64 = 64 * 1024 * 1024;
const PROCS: usize = 4;
const DEVICES: usize = 4;
const FB: u64 = 8; // one 32 KiB file block = 8 volume blocks

fn blocks() -> u64 {
    FILE_BYTES / BS as u64
}

/// (a) Adapter: IS access pattern forced over the PS placement. All four
/// processes sweep the partitions *together*, block by strided block.
fn adapter_pass() -> f64 {
    let ps = Partitioned::uniform(blocks(), PROCS, DEVICES);
    let mut sim = Simulation::new();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    for p in 0..PROCS as u64 {
        let ops = is_clusters(p, PROCS as u64, FB, blocks())
            .into_iter()
            .map(|c| Op::Io(plan_reqs(&ps, &[c], FB)))
            .collect();
        sim.add_proc(ops);
    }
    sim.run().makespan.as_secs_f64()
}

/// (b) Global view: one sequential reader over the PS placement.
fn global_pass() -> f64 {
    let ps = Partitioned::uniform(blocks(), PROCS, DEVICES);
    let mut sim = Simulation::new();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    sim.add_proc(stream_script(&ps, blocks(), 8 * 16, 16));
    sim.run().makespan.as_secs_f64()
}

/// (c1) Conversion: read the PS file globally while writing the IS copy
/// (interleaved placement at a disjoint device region), overlapped.
fn convert_cost() -> f64 {
    let ps = Partitioned::uniform(blocks(), PROCS, DEVICES);
    let is = Striped::interleaved(DEVICES, FB);
    let base = blocks(); // IS copy lives above the PS file on each drive
    let mut sim = Simulation::new();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    let mut ops = Vec::new();
    let window = 16u64;
    let mut l = 0;
    while l < blocks() {
        let hi = (l + window).min(blocks());
        let mut batch = plan_reqs(&ps, &[(l, hi - l)], 16);
        for r in plan_reqs(&is, &[(l, hi - l)], 16) {
            batch.push(DiskReq {
                device: r.device,
                block: r.block + base / DEVICES as u64,
                nblocks: r.nblocks,
                kind: ReqKind::Write,
            });
        }
        ops.push(Op::IoAsync(batch));
        ops.push(Op::WaitAll);
        l = hi;
    }
    sim.add_proc(ops);
    sim.run().makespan.as_secs_f64()
}

/// (c2) A native IS pass after conversion: each process streams its own
/// clusters from its own drive.
fn native_is_pass() -> f64 {
    let is = Striped::interleaved(DEVICES, FB);
    let mut sim = Simulation::new();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    for p in 0..PROCS as u64 {
        // Two clusters of read-ahead along the process's extent list.
        let ops = is_clusters(p, PROCS as u64, FB, blocks())
            .chunks(2)
            .flat_map(|w| [Op::IoAsync(plan_reqs(&is, w, FB)), Op::WaitAll])
            .collect();
        sim.add_proc(ops);
    }
    sim.run().makespan.as_secs_f64()
}

fn main() {
    banner(
        "E9 (internal-view mismatch: PS file read as IS)",
        "adapter view = degraded performance; global view = serial; \
         conversion = expensive once, fast thereafter",
    );
    let adapter = adapter_pass();
    let global = global_pass();
    let convert = convert_cost();
    let native = native_is_pass();

    let mut t = Table::new(&["strategy", "first pass", "each later pass"]);
    t.row(&[
        "(a) adapter IS-over-PS".into(),
        secs(adapter),
        secs(adapter),
    ]);
    t.row(&[
        "(b) global view (1 reader)".into(),
        secs(global),
        secs(global),
    ]);
    t.row(&[
        "(c) convert, then native IS".into(),
        secs(convert + native),
        secs(native),
    ]);
    t.print();
    save_json("e9_view_mismatch", &t);

    println!("\nTotal cost by number of passes over the data:");
    let mut t = Table::new(&["passes", "adapter", "global", "convert+native", "best"]);
    for k in 1..=5u32 {
        let a = adapter * f64::from(k);
        let g = global * f64::from(k);
        let c = convert + native * f64::from(k);
        let best = if a <= g && a <= c {
            "adapter"
        } else if c <= a && c <= g {
            "convert"
        } else {
            "global"
        };
        t.row(&[k.to_string(), secs(a), secs(g), secs(c), best.to_string()]);
    }
    t.print();
    save_json("e9_crossover", &t);
    println!(
        "\nShape: the adapter's strided sweep gangs all processes onto \
         one partition's drive at a time, degrading it toward the serial \
         global view; conversion pays a one-time copy and then runs at \
         device-per-process speed, winning once the data is read more \
         than a couple of times — 'the conversion overhead must be \
         weighed against the performance improvements'."
    );
}
