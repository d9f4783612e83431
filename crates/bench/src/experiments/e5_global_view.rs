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

use pario_layout::{Layout, Partitioned, Striped};
use pario_sim::disk::SchedPolicy;

use crate::simx::{bank, stream, stream_script};
use crate::table::{rate, secs, Table};
use crate::{Report, Size, BS};

const FILE_BYTES: u64 = 32 * 1024 * 1024;
const BLOCKS: u64 = FILE_BYTES / BS as u64;
const DEVICES: usize = 4;
const REQ: u64 = 16;
/// Read-ahead: 8 requests' worth of blocks.
const WINDOW: u64 = 8 * REQ;

/// A small traced run (4 MiB, layout rebuilt at that size) rendered as
/// a device Gantt chart.
fn gantt_of(make: impl Fn(u64) -> Box<dyn Layout>) -> String {
    let blocks = 4 * 1024 * 1024 / BS as u64;
    let layout = make(blocks);
    let mut sim = bank(DEVICES, SchedPolicy::Fifo);
    sim.enable_trace();
    sim.add_proc(stream_script(&*layout, blocks, WINDOW, REQ));
    crate::gantt::render(&sim.run(), 64)
}

/// One sequential reader over striped, interleaved and PS placements.
pub fn run(_: Size) -> Report {
    let global_read = |layout: &dyn Layout| stream(layout, DEVICES, BLOCKS, WINDOW, REQ);
    let striped = global_read(&Striped::new(DEVICES, 16));
    let ps = global_read(&Partitioned::uniform(BLOCKS, DEVICES, DEVICES));

    let mut t = Table::new(&["placement", "read time", "throughput", "mean util", "vs PS"]);
    for (name, (time, tput, util)) in [
        ("S  (striped, 64 KiB units)", striped),
        (
            "IS (interleaved clusters)",
            global_read(&Striped::interleaved(DEVICES, 64)),
        ),
        ("PS (partitioned)", ps),
    ] {
        t.row(&[
            name.to_string(),
            secs(time),
            rate(tput),
            format!("{:.0}%", util * 100.0),
            format!("{:.2}x", ps.0 / time),
        ]);
    }
    let mut r = Report::default();
    r.table("e5_global_view", t)
        .above(
            "E5 PS global view's read time over striped's",
            ps.0 / striped.0,
            3.0,
        )
        .note("\nDevice timelines for a 4 MiB read (█ = servicing):")
        .note(format!(
            "striped:\n{}",
            gantt_of(|_| Box::new(Striped::new(DEVICES, 16)))
        ))
        .note(format!(
            "partitioned (PS):\n{}",
            gantt_of(|blocks| Box::new(Partitioned::uniform(blocks, DEVICES, DEVICES)))
        ))
        .note(
            "\nShape: striped and interleaved placements overlap all four \
             drives under one sequential reader; the PS file is read one \
             partition (one drive) at a time, pinning throughput to a single \
             drive's rate — the paper's stated exception.",
        );
    r
}
