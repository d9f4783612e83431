//! # pario-bench — the experiment harness
//!
//! One binary per experiment in DESIGN.md §5. `exp_e1_figure1` …
//! `exp_e12_is_blocksize` each regenerate a figure or quantitative claim
//! of Crockett (1989) on the simulator; `exp_span_coalesce` (E13) and
//! `exp_e14_server` … `exp_e20_recovery` measure the real I/O stack and
//! the service layers built on it, every one of them on the one [`rig`]
//! builder and through the one [`measure`] reducer. Criterion
//! microbenches cover what neither those lanes nor the gated
//! `benchmark/` workloads time. This library holds the shared pieces:
//! markdown table rendering, result persistence, and builders for
//! simulated device banks and scripted access patterns.

#![warn(missing_docs)]

pub mod gantt;
pub mod measure;
pub mod rig;
pub mod simx;
pub mod table;

/// The volume/device block size used by every experiment (4 KiB — eight
/// 512-byte sectors on the modelled drives).
pub const BS: usize = 4096;

/// Print the standard experiment header.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("Paper claim: {claim}\n");
}

/// The foil of experiment E3 (§4's "unduly serializing access"): read
/// the next unread record of an SS file with `cursor`'s lock held across
/// the whole I/O call, file pointer and transfer alike. `None` at end of
/// file. Built here from public pieces — the library itself ships only
/// the two-phase reservation.
pub fn naive_read_next(
    pf: &pario_core::ParallelFile,
    cursor: &std::sync::Mutex<u64>,
    out: &mut [u8],
) -> Option<u64> {
    let mut next = cursor.lock().expect("a reader panicked");
    let cur = *next;
    if cur >= pf.len_records() {
        return None;
    }
    pf.raw().read_record(cur, out).expect("read");
    *next = cur + 1;
    Some(cur)
}
