//! E5 — §4: "Most of the implementation strategies … would also yield
//! performance improvements for sequential programs which access the
//! files using the global view. One exception is the PS organization, in
//! which all of the data would have to be read from the first disk,
//! followed by all of the data from the second disk, etc., with no
//! potential for parallelism."
//!
//! A single sequential reader consumes a 32 MiB file through the global
//! view under three placements on a 4-drive bank: striped (type S
//! default), interleaved (IS clusters), and partitioned (PS).

use pario_bench::simx::{stream_script, wren_bank};
use pario_bench::table::{rate, save_json, secs, Table};
use pario_bench::{banner, BS};
use pario_layout::{Layout, Partitioned, Striped};
use pario_sim::disk::SchedPolicy;
use pario_sim::Simulation;

const FILE_BYTES: u64 = 32 * 1024 * 1024;
const DEVICES: usize = 4;
const REQ: u64 = 16;
/// Read-ahead: 8 requests' worth of blocks.
const WINDOW: u64 = 8 * REQ;

fn global_read(layout: &dyn Layout) -> (f64, f64, f64) {
    let blocks = FILE_BYTES / BS as u64;
    let mut sim = Simulation::new();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    sim.add_proc(stream_script(layout, blocks, WINDOW, REQ));
    let r = sim.run();
    let t = r.makespan.as_secs_f64();
    (t, FILE_BYTES as f64 / t, r.mean_utilization())
}

/// A small traced run (4 MiB, layout rebuilt at that size) rendered as
/// a device Gantt chart.
fn gantt_of(make: impl Fn(u64) -> Box<dyn Layout>) -> String {
    let blocks = 4 * 1024 * 1024 / BS as u64;
    let layout = make(blocks);
    let mut sim = Simulation::new();
    sim.enable_trace();
    wren_bank(&mut sim, DEVICES, SchedPolicy::Fifo);
    sim.add_proc(stream_script(&*layout, blocks, WINDOW, REQ));
    pario_bench::gantt::render(&sim.run(), 64)
}

fn main() {
    banner(
        "E5 (global view of PS vs striped)",
        "the global (sequential) view of a striped file enjoys I/O \
         parallelism; the PS organization's global view visits one disk \
         after another with none",
    );
    let blocks = FILE_BYTES / BS as u64;

    let striped = Striped::new(DEVICES, 16);
    let interleaved = Striped::interleaved(DEVICES, 64);
    let partitioned = Partitioned::uniform(blocks, DEVICES, DEVICES);

    let mut t = Table::new(&["placement", "read time", "throughput", "mean util", "vs PS"]);
    let (ps_t, ps_r, ps_u) = global_read(&partitioned);
    for (name, res) in [
        ("S  (striped, 64 KiB units)", global_read(&striped)),
        ("IS (interleaved clusters)", global_read(&interleaved)),
        ("PS (partitioned)", (ps_t, ps_r, ps_u)),
    ] {
        let (time, tput, util) = res;
        t.row(&[
            name.to_string(),
            secs(time),
            rate(tput),
            format!("{:.0}%", util * 100.0),
            format!("{:.2}x", ps_t / time),
        ]);
    }
    t.print();
    save_json("e5_global_view", &t);
    println!("\nDevice timelines for a 4 MiB read (█ = servicing):");
    println!(
        "striped:\n{}",
        gantt_of(|_| Box::new(Striped::new(DEVICES, 16)))
    );
    println!(
        "partitioned (PS):\n{}",
        gantt_of(|blocks| Box::new(Partitioned::uniform(blocks, DEVICES, DEVICES)))
    );
    println!(
        "\nShape: striped and interleaved placements overlap all four \
         drives under one sequential reader; the PS file is read one \
         partition (one drive) at a time, pinning throughput to a single \
         drive's rate — the paper's stated exception."
    );
}
