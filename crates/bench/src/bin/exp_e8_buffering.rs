//! E8 — §4: "Initial experiments using the S and SS organizations have
//! shown that buffering overheads can be a significant factor in
//! limiting speedups. The sequential organizations can mitigate this
//! effect through the use of multiple buffering and dedicated I/O
//! processors. Since the order of accesses is predictable, reading ahead
//! and deferred writing can be used to overlap I/O operations with
//! computation."
//!
//! Measured on a real type-S file: four devices that sleep out a
//! service time per request, as a thread blocked on a real device would,
//! and a consumer (or producer) that spins out a compute time per
//! window. The synchronous lane is a loop of whole-window `read_span` /
//! `write_span` calls — single buffering; the stream lane is the file's
//! global view, which keeps a second window with a worker thread. Five
//! runs a lane, median between quartiles. The last lane counts instead:
//! device requests per block streamed onto a rotated-parity file in
//! whole-stripe windows (one block a span costs four).

use std::time::{Duration, Instant};

use pario_bench::measure::{Report, RUNS};
use pario_bench::rig::{self, Rig};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_layout::LayoutSpec;

/// Blocks in a window of the global view (`pario_fs::global`).
const WINDOW_BLOCKS: u64 = 32;
const WINDOW: usize = WINDOW_BLOCKS as usize * BS;
const WINDOWS: u64 = 48;
const RECORDS: u64 = WINDOWS * WINDOW_BLOCKS;
/// Device service time per request: a window is one request a device.
const IO: Duration = Duration::from_millis(2);

fn spin(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// A type-S file of one-block records with room for `records`, on four
/// devices that take `delay` a request.
fn s_file(layout: LayoutSpec, delay: Duration, records: u64) -> ParallelFile {
    let volume = Rig::new(4).blocks(1024).delay(delay).volume();
    let org = Organization::Sequential;
    let pf =
        ParallelFile::create_with_layout(&volume, "s", org, BS, 1, layout, None).expect("create");
    pf.raw().ensure_capacity_records(records).expect("allocate");
    pf
}

const STRIPED: LayoutSpec = LayoutSpec::Striped {
    devices: 4,
    unit: 1,
};

/// Seconds to read the file a window at a time, computing after each.
fn read_side(stream: bool, compute: Duration) -> f64 {
    let pf = s_file(STRIPED, IO, RECORDS);
    rig::fill(&pf, RECORDS);
    let mut window = vec![0u8; WINDOW];
    if stream {
        let mut r = pf.global_reader();
        rig::timed(|| {
            while r.read_record(&mut window[..BS]).expect("read") {
                if r.position().is_multiple_of(WINDOW_BLOCKS) {
                    spin(compute);
                }
            }
        })
    } else {
        rig::timed(|| {
            for w in 0..WINDOWS {
                let at = w * WINDOW as u64;
                pf.raw().read_span(at, &mut window).expect("read");
                spin(compute);
            }
        })
    }
}

/// Seconds to write the file a window at a time, computing before each.
fn write_side(stream: bool, compute: Duration) -> f64 {
    let pf = s_file(STRIPED, IO, RECORDS);
    let window = vec![7u8; WINDOW];
    let secs = if stream {
        let mut w = pf.global_writer();
        rig::timed(|| {
            for i in 0..RECORDS {
                if i.is_multiple_of(WINDOW_BLOCKS) {
                    spin(compute);
                }
                w.write_record(&window[..BS]).expect("write");
            }
            w.finish().expect("finish");
        })
    } else {
        rig::timed(|| {
            for w in 0..WINDOWS {
                spin(compute);
                let at = w * WINDOW as u64;
                pf.raw().write_span(at, &window).expect("write");
            }
            pf.raw().set_len_records(RECORDS).expect("publish");
        })
    };
    assert_eq!(pf.len_records(), RECORDS);
    secs
}

/// Device requests per block to stream 384 one-block records onto a
/// preallocated rotated 3+1 parity file.
fn parity_requests_per_block() -> f64 {
    const BLOCKS: u64 = 384;
    let layout = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let pf = s_file(layout, Duration::ZERO, BLOCKS);
    let volume = pf.raw().volume();
    let requests = || -> u64 { (0..4).map(|d| volume.device(d).counters().total()).sum() };
    let before = requests();
    let mut w = pf.global_writer();
    for _ in 0..BLOCKS {
        w.write_record(&[7u8; BS]).expect("write");
    }
    w.finish().expect("finish");
    (requests() - before) as f64 / BLOCKS as f64
}

/// The two lanes of one side at one ratio, and the stream's speedup.
fn pair(
    report: &mut Report,
    suffix: &str,
    compute: Duration,
    side: fn(bool, Duration) -> f64,
) -> f64 {
    let mut median = |lane: &str, stream: bool| {
        let lane = format!("{lane}_{suffix}");
        report.lane(&lane, RUNS, || vec![("wall_secs", side(stream, compute))])["wall_secs"].median
    };
    let speedup = median("sync", false) / median("stream", true);
    report.fact(&format!("speedup_{suffix}"), speedup);
    speedup
}

fn main() {
    banner(
        "E8 (multiple buffering and I/O overlap)",
        "single buffering serialises I/O and computation; a second \
         buffer with a dedicated I/O thread overlaps them, up to 2x at a \
         balanced compute:I/O ratio",
    );
    println!(
        "{WINDOWS} windows of {WINDOW_BLOCKS} x {BS} B on 4 devices, {} ms per device \
         request (slept); compute is spun; {} CPU(s)\n",
        IO.as_millis(),
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    println!("Read-ahead:");
    let mut reads = Report::new("e8_readahead");
    // Compute:I/O ratios, as (lane suffix, numerator, denominator).
    for (suffix, num, den) in [("half", 1, 2), ("one", 1, 1), ("two", 2, 1)] {
        let speedup = pair(&mut reads, suffix, IO * num / den, read_side);
        if suffix == "one" {
            reads.at_least("read-ahead speedup at compute:I/O = 1", speedup, 1.5);
        }
    }
    reads.finish();

    println!("\nWrite-behind (deferred writing), compute:I/O = 1:");
    let mut writes = Report::new("e8_writebehind");
    let speedup = pair(&mut writes, "one", IO, write_side);
    writes.at_least("write-behind speedup at compute:I/O = 1", speedup, 1.5);
    let parity = writes.lane("parity_stream", RUNS, || {
        vec![("requests_per_block", parity_requests_per_block())]
    });
    writes.at_most(
        "parity stream requests per block (one block a span: 4; 96 of 384: 0.25)",
        parity["requests_per_block"].median,
        0.25,
    );
    writes.finish();
    println!(
        "\nShape: at compute:I/O = 1 the second buffer approaches the ideal \
         2x; off balance the bound is (compute+io)/max(compute,io). The \
         caller reads the first two windows itself — the worker starts \
         once one window follows another — so N windows hide N-2 reads."
    );
}
