//! E12 — §4: "IS type files would have a similar problem [to PS's
//! serialized global view] if block sizes approached or exceeded the
//! buffer space available."
//!
//! A sequential reader with a *fixed buffer budget* consumes an IS file
//! through the global view while the IS cluster (file block) size sweeps
//! past the budget. While clusters are small, the read-ahead window
//! spans several devices and overlaps them; once one cluster exceeds the
//! whole budget, the window sits inside a single device at a time and
//! throughput collapses to one drive.

use pario_bench::simx::{stream_script, wren_bank};
use pario_bench::table::{rate, save_json, secs, Table};
use pario_bench::{banner, BS};
use pario_layout::Striped;
use pario_sim::disk::SchedPolicy;
use pario_sim::Simulation;

const FILE_BYTES: u64 = 32 * 1024 * 1024;
const DEVICES: usize = 4;
/// Buffer budget: 32 volume blocks (128 KiB) of read-ahead window.
const BUDGET_BLOCKS: u64 = 32;
const REQ: u64 = 8; // 32 KiB per request

fn run(cluster_blocks: u64) -> (f64, f64, f64) {
    let blocks = FILE_BYTES / BS as u64;
    let layout = Striped::interleaved(DEVICES, cluster_blocks);
    let mut sim = Simulation::new();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    // The read-ahead window is the buffer budget.
    sim.add_proc(stream_script(&layout, blocks, BUDGET_BLOCKS, REQ));
    let r = sim.run();
    let t = r.makespan.as_secs_f64();
    (t, FILE_BYTES as f64 / t, r.mean_utilization())
}

fn main() {
    banner(
        "E12 (IS global view vs buffer space)",
        "the IS global view parallelises while clusters fit the buffer \
         space; clusters at or beyond the buffer budget serialise it",
    );
    println!(
        "4 drives, 32 MiB file, read-ahead budget {} blocks \
         ({} KiB)\n",
        BUDGET_BLOCKS,
        BUDGET_BLOCKS * BS as u64 / 1024
    );
    let mut t = Table::new(&[
        "cluster (blocks)",
        "cluster / budget",
        "read time",
        "throughput",
        "mean util",
    ]);
    for cluster in [4u64, 8, 16, 32, 64, 128] {
        let (time, tput, util) = run(cluster);
        t.row(&[
            cluster.to_string(),
            format!("{:.2}", cluster as f64 / BUDGET_BLOCKS as f64),
            secs(time),
            rate(tput),
            format!("{:.0}%", util * 100.0),
        ]);
    }
    t.print();
    save_json("e12_is_blocksize", &t);
    println!(
        "\nShape: throughput falls as the cluster grows toward the \
         budget and bottoms out at a single drive's rate once one \
         cluster consumes the whole window — the paper's predicted \
         failure mode for large IS blocks."
    );
}
