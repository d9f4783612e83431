//! E13, span coalescing — §4's "transfer as much data as possible in
//! each access" applied to the span I/O path: instead of one device
//! request per volume block, a span is translated into maximal
//! per-device runs (one vectored request each), and independent runs
//! proceed on their devices in parallel.
//!
//! Every lane runs on memory devices with a modelled per-request
//! service time (so request COUNT, not bandwidth, dominates — the 1989
//! regime) and sets the span path against a bench-local per-block
//! reference — `read_lblock` / `write_lblock`, the same reader and
//! writer handed one-block spans, so nothing coalesces:
//!
//! * `read_*`     — a span read per block, coalesced with the device
//!   fan-out disabled, and as shipped (fan-out enabled), over striped,
//!   shadowed and rotated-parity files.
//! * `pwrite_*`   — the write side of the parity rows: one
//!   read-modify-write per block against `write_span`, whose whole
//!   stripes leave as one run per device with no reads.
//! * `degraded_*` — the same rotated 3+1 file with one device down,
//!   scanned per block (every lost block its own recovery) and as one
//!   span (one stripe-lock hold, one run per surviving device).
//! * `global_*`   — the paper's global-view scenario: a 64 MiB
//!   sequential scan through `GlobalReader` against the per-block loop.
//!
//! The request counts are exact and asserted in every run; the times
//! are what they buy.

use std::time::Duration;

use pario_bench::measure::{Report, RUNS};
use pario_bench::rig::{self, Rig};
use pario_bench::{banner, BS};
use pario_fs::{FileSpec, GlobalReader, RawFile, Volume};
use pario_layout::LayoutSpec;

/// Modelled service time per device request.
const DELAY: Duration = Duration::from_micros(30);
const ROTATED_3_PLUS_1: LayoutSpec = LayoutSpec::Parity {
    data_devices: 3,
    rotated: true,
};

/// A `devices`-wide delayed volume holding file "f" laid out as `layout`.
fn delayed_file(devices: usize, device_blocks: u64, layout: LayoutSpec) -> (Volume, RawFile) {
    let v = Rig::new(devices)
        .blocks(device_blocks)
        .delay(DELAY)
        .volume();
    let f = v.create_file(FileSpec::new("f", BS, 1, layout)).unwrap();
    (v, f)
}

fn pattern(blocks: u64) -> Vec<u8> {
    (0..blocks as usize * BS).map(|i| (i % 251) as u8).collect()
}

/// Time `f`; returns (seconds, device read requests, device write
/// requests) it took.
fn timed(v: &Volume, f: impl FnOnce()) -> (f64, f64, f64) {
    let requests = || {
        (0..v.num_devices()).fold((0, 0), |(r, w), d| {
            let c = v.device(d).counters();
            (r + c.reads, w + c.writes)
        })
    };
    let (r0, w0) = requests();
    let secs = rig::timed(f);
    let (r1, w1) = requests();
    (secs, (r1 - r0) as f64, (w1 - w0) as f64)
}

fn read_case(report: &mut Report, lane: &str, devices: usize, layout: LayoutSpec, blocks: u64) {
    let parity = matches!(layout, LayoutSpec::Parity { .. });
    let (v, f) = delayed_file(devices, 8192, layout);
    let data = pattern(blocks);
    f.write_span(0, &data).unwrap();
    let serial = f.clone().with_span_parallel(false);
    let mut out = vec![0u8; data.len()];
    report.lane(lane, RUNS, || {
        let (t_pb, r_pb, _) = timed(&v, || {
            for (l, block) in (0..).zip(out.chunks_mut(BS)) {
                f.read_lblock(l, block).unwrap();
            }
        });
        assert_eq!(out, data);
        let (t_co, r_co, _) = timed(&v, || serial.read_span(0, &mut out).unwrap());
        assert_eq!(out, data);
        let (t_cp, r_cp, _) = timed(&v, || f.read_span(0, &mut out).unwrap());
        assert_eq!(out, data);
        assert_eq!(r_co, r_cp, "fan-out must not change the request count");
        assert!(
            !parity || r_cp <= devices as f64,
            "a parity span read crosses the rotated parity blocks, one \
             request per device: got {r_cp}"
        );
        vec![
            ("per_block_secs", t_pb),
            ("coalesced_secs", t_co),
            ("span_secs", t_cp),
            ("per_block_requests", r_pb),
            ("span_requests", r_cp),
            ("speedup", t_pb / t_cp),
        ]
    });
}

/// `blocks` blocks starting `phase` blocks into a stripe of a rotated
/// 3+1 file, written per block and as one span.
fn parity_write_case(report: &mut Report, blocks: u64, phase: u64) {
    let (v, f) = delayed_file(4, 8192, ROTATED_3_PLUS_1);
    let first = 3 + phase;
    f.write_span(0, &vec![1u8; (first + blocks + 3) as usize * BS])
        .unwrap();
    let data = pattern(blocks);
    let mut out = vec![0u8; data.len()];
    report.lane(&format!("pwrite_b{blocks}_phase{phase}"), RUNS, || {
        let (t_pb, r_pb, w_pb) = timed(&v, || {
            for (l, block) in (first..).zip(data.chunks(BS)) {
                f.write_lblock(l, block).unwrap();
            }
        });
        let (t_sp, r_sp, w_sp) = timed(&v, || f.write_span(first * BS as u64, &data).unwrap());
        f.read_span(first * BS as u64, &mut out).unwrap();
        assert_eq!(out, data);
        let drop = (r_pb + w_pb) / (r_sp + w_sp);
        assert!(
            drop >= 8.0,
            "a parity span write must cut device requests >=8x (got {drop:.1}x)"
        );
        if phase == 0 && blocks.is_multiple_of(3) {
            assert_eq!(
                (r_sp, w_sp),
                (0.0, 4.0),
                "a stripe-aligned span write reads nothing and writes one run per device"
            );
        }
        vec![
            ("per_block_secs", t_pb),
            ("span_secs", t_sp),
            ("per_block_requests", r_pb + w_pb),
            ("span_reads", r_sp),
            ("span_writes", w_sp),
            ("speedup", t_pb / t_sp),
        ]
    });
}

/// A 512-block scan of a rotated 3+1 file whose device 1 is Failed
/// (fail-stopped, the board knows) or Rebuilding (stale media the board
/// routes around), per block and as one span. A recovery holds the
/// stripe lock once: one hold per lost block against one for the span.
fn degraded_read_case(report: &mut Report, rebuilding: bool) {
    const DOWN: usize = 1;
    const BLOCKS: u64 = 512;
    let (v, f) = delayed_file(4, 8192, ROTATED_3_PLUS_1);
    let data = pattern(BLOCKS);
    f.write_span(0, &data).unwrap();
    let dev = f.meta_snapshot().device_map[DOWN];
    v.health().mark_failed(dev);
    if rebuilding {
        v.health().begin_rebuild(dev, || ());
    } else {
        v.device(dev).fail();
    }
    let lost = (0..BLOCKS).filter(|&l| f.layout().map(l).device == DOWN);
    let lost = lost.count() as f64;
    let mut out = vec![0u8; data.len()];
    let lane = if rebuilding { "rebuilding" } else { "failed" };
    report.lane(&format!("degraded_{lane}"), RUNS, || {
        let (t_pb, r_pb, _) = timed(&v, || {
            for (l, block) in (0..).zip(out.chunks_mut(BS)) {
                f.read_lblock(l, block).unwrap();
            }
        });
        assert_eq!(out, data);
        out.fill(0);
        let (t_sp, r_sp, _) = timed(&v, || f.read_span(0, &mut out).unwrap());
        assert_eq!(out, data);
        assert!(
            r_sp <= 4.0 && r_pb / r_sp >= 8.0,
            "a degraded parity span read is one run per surviving device: \
             {r_sp} requests against {r_pb} per block"
        );
        vec![
            ("per_block_secs", t_pb),
            ("span_secs", t_sp),
            ("per_block_requests", r_pb),
            ("per_block_lock_holds", lost),
            ("span_requests", r_sp),
            ("speedup", t_pb / t_sp),
        ]
    });
}

fn global_scan_case(report: &mut Report, devices: usize, unit: u64) {
    const BLOCKS: u64 = 64 * 1024 * 1024 / BS as u64;
    let layout = LayoutSpec::Striped { devices, unit };
    let (v, f) = delayed_file(devices, BLOCKS / devices as u64 + 64, layout);
    // Fill through the coalesced span path in 1 MiB strides.
    let chunk = vec![7u8; 256 * BS];
    for i in 0..BLOCKS / 256 {
        f.write_span(i * 256 * BS as u64, &chunk).unwrap();
    }
    f.set_len_records(BLOCKS).unwrap();
    let mut rec = vec![0u8; BS];
    report.lane(&format!("global_u{unit}"), RUNS, || {
        let (t_pb, r_pb, _) = timed(&v, || {
            for l in 0..BLOCKS {
                f.read_lblock(l, &mut rec).unwrap();
            }
        });
        let (t_gv, r_gv, _) = timed(&v, || {
            let mut r = GlobalReader::new(f.clone());
            let mut n = 0u64;
            while r.read_record(&mut rec).unwrap() {
                n += 1;
            }
            assert_eq!(n, BLOCKS);
        });
        assert!(
            r_pb / r_gv >= 4.0,
            "global-view scan must cut device requests >=4x (got {:.1}x)",
            r_pb / r_gv
        );
        vec![
            ("per_block_secs", t_pb),
            ("global_view_secs", t_gv),
            ("per_block_requests", r_pb),
            ("global_view_requests", r_gv),
            ("speedup", t_pb / t_gv),
        ]
    });
}

fn main() {
    banner(
        "span coalescing (vectored runs + device fan-out)",
        "transferring as much data as possible in each access: spans \
         become one vectored request per device run, and independent \
         runs proceed in parallel across devices",
    );
    let mut report = Report::new("span_coalesce");
    let striped = |devices, unit| LayoutSpec::Striped { devices, unit };
    for devices in [2usize, 4, 8] {
        for blocks in [64u64, 512, 2048] {
            let lane = format!("read_striped_u2_d{devices}_b{blocks}");
            read_case(&mut report, &lane, devices, striped(devices, 2), blocks);
        }
    }
    for blocks in [64u64, 512] {
        let lane = |kind: &str| format!("read_{kind}_b{blocks}");
        read_case(
            &mut report,
            &lane("striped_u8_d4"),
            4,
            striped(4, 8),
            blocks,
        );
        let shadowed = LayoutSpec::Shadowed(Box::new(striped(4, 2)));
        read_case(&mut report, &lane("shadowed_u2_d8"), 8, shadowed, blocks);
        read_case(
            &mut report,
            &lane("parity_rot_d4"),
            4,
            ROTATED_3_PLUS_1,
            blocks,
        );
    }
    for (blocks, phase) in [(63u64, 0u64), (64, 1), (510, 0), (512, 2)] {
        parity_write_case(&mut report, blocks, phase);
    }
    degraded_read_case(&mut report, false);
    degraded_read_case(&mut report, true);
    global_scan_case(&mut report, 4, 2);
    global_scan_case(&mut report, 4, 4);
    report.finish();
}
