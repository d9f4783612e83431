//! E2 — §4: "For file types S and SS, disk striping can be used to
//! spread the file across multiple drives, resulting in higher transfer
//! rates."
//!
//! A single process streams a 64 MiB type-S file from banks of 1..=16
//! period-correct drives on the discrete-event simulator, with enough
//! read-ahead to keep every drive busy. A second table ablates the
//! stripe unit at a fixed bank width and a fixed read-ahead window.

use pario_layout::Striped;

use crate::simx::stream;
use crate::table::{rate, secs, Table};
use crate::{Report, Size, BS};

const FILE_BYTES: u64 = 64 * 1024 * 1024;
const BLOCKS: u64 = FILE_BYTES / BS as u64;
const UNIT: u64 = 16; // 64 KiB stripe unit
const REQ: u64 = 16; // the controller's request cap: one 64 KiB unit

/// Stream the file from `devices` drives striped at `unit` blocks, with
/// `window` requests' worth of blocks read ahead.
fn striped(devices: usize, unit: u64, window: u64) -> (f64, f64, f64) {
    let layout = Striped::new(devices, unit);
    stream(&layout, devices, BLOCKS, window * REQ, REQ)
}

/// Throughput against bank width, then against the stripe unit.
pub fn run(_: Size) -> Report {
    let mut r = Report::default();
    let mut t = Table::new(&["devices", "read time", "throughput", "speedup", "mean util"]);
    let base = striped(1, UNIT, 2).0;
    for d in [1usize, 2, 4, 8, 16] {
        let (time, tput, util) = striped(d, UNIT, 2 * d as u64);
        if d == 4 {
            r.within("E2 striping speedup at 4 drives", base / time, 3.5, 4.5);
        }
        t.row(&[
            d.to_string(),
            secs(time),
            rate(tput),
            format!("{:.2}x", base / time),
            format!("{:.0}%", util * 100.0),
        ]);
    }
    r.table("e2_striping_devices", t);

    r.note("\nStripe-unit ablation at 8 devices (read-ahead 16 x 64 KiB):");
    let mut t = Table::new(&["unit (blocks)", "unit bytes", "read time", "throughput"]);
    for unit in [1u64, 4, 16, 64, 256] {
        let (time, tput, _) = striped(8, unit, 16);
        t.row(&[
            unit.to_string(),
            format!("{} KiB", unit * BS as u64 / 1024),
            secs(time),
            rate(tput),
        ]);
    }
    r.table("e2_striping_unit", t).note(
        "\nShape: throughput scales with device count while the single \
         consumer can absorb it. The planner merges a drive's consecutive \
         units in a window into one transfer, so 4-64 KiB units read \
         identically; units past a drive's share of the window starve it.",
    );
    r
}
