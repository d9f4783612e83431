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

use pario_layout::Striped;

use crate::simx::stream;
use crate::table::{rate, secs, Table};
use crate::{Report, Size, BS};

const FILE_BYTES: u64 = 32 * 1024 * 1024;
const DEVICES: usize = 4;
/// Buffer budget: 32 volume blocks (128 KiB) of read-ahead window.
const BUDGET_BLOCKS: u64 = 32;
const REQ: u64 = 8; // 32 KiB per request

/// The stream at one cluster size; the read-ahead window is the budget.
fn clustered(cluster_blocks: u64) -> (f64, f64, f64) {
    let layout = Striped::interleaved(DEVICES, cluster_blocks);
    stream(&layout, DEVICES, FILE_BYTES / BS as u64, BUDGET_BLOCKS, REQ)
}

/// Throughput as the cluster grows past the budget.
pub fn run(_: Size) -> Report {
    let mut r = Report::default();
    r.note(format!(
        "4 drives, 32 MiB file, read-ahead budget {BUDGET_BLOCKS} blocks \
         ({} KiB)\n",
        BUDGET_BLOCKS * BS as u64 / 1024
    ));
    let mut t = Table::new(&[
        "cluster (blocks)",
        "cluster / budget",
        "read time",
        "throughput",
        "mean util",
    ]);
    for cluster in [4u64, 8, 16, 32, 64, 128] {
        let (time, tput, util) = clustered(cluster);
        t.row(&[
            cluster.to_string(),
            format!("{:.2}", cluster as f64 / BUDGET_BLOCKS as f64),
            secs(time),
            rate(tput),
            format!("{:.0}%", util * 100.0),
        ]);
    }
    r.table("e12_is_blocksize", t)
        .above(
            "E12 read time at a 64-block cluster over an 8-block one",
            clustered(64).0 / clustered(8).0,
            2.5,
        )
        .note(
            "\nShape: throughput falls as the cluster grows toward the \
             budget and bottoms out at a single drive's rate once one \
             cluster consumes the whole window — the paper's predicted \
             failure mode for large IS blocks.",
        );
    r
}
