//! Span coalescing — §4's "transfer as much data as possible in each
//! access" applied to the span I/O path: instead of one device request
//! per volume block, a span is translated into maximal per-device runs
//! (one vectored request each), and independent runs proceed on their
//! devices in parallel.
//!
//! Three lanes over the same files and spans, on memory devices with a
//! modelled per-request service time (so request COUNT, not bandwidth,
//! dominates — the 1989 regime):
//!
//! * `per-block`   — one `read_lblock` per volume block: the same reader
//!   handed one-block spans, so nothing coalesces (the bench-local
//!   reference),
//! * `coalesced`   — one span, with the device fan-out disabled,
//! * `coal+par`    — one span as shipped (fan-out enabled).
//!
//! A second table is the write side of the parity rows: a per-block
//! `write_lblock` loop (one read-modify-write per block, the bench-local
//! reference) against `write_span`, whose whole stripes leave as one run
//! per device with no reads. A third is the degraded read: the same
//! rotated 3+1 file with one device down, scanned per block (every lost
//! block its own recovery: one stripe-lock hold, a probe and the stripe's
//! survivors) and as one span (one hold, one run per surviving device).
//! A fourth replays the paper's global-view scenario: a 64 MiB
//! sequential scan through `GlobalReader`, reporting device requests per
//! block against the per-block baseline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, Table};
use pario_bench::{banner, BS};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::{FileSpec, GlobalReader, RawFile, Volume};
use pario_layout::LayoutSpec;

/// Modelled service time per device request.
const DELAY: Duration = Duration::from_micros(30);

fn delayed_volume(devices: usize, device_blocks: u64) -> Volume {
    let devs: Vec<DeviceRef> = (0..devices)
        .map(|i| {
            Arc::new(MemDisk::named(&format!("mem{i}"), device_blocks, BS).with_delay(DELAY))
                as DeviceRef
        })
        .collect();
    Volume::new(devs).unwrap()
}

/// Device (read, write) requests issued so far.
fn total_requests(v: &Volume, devices: usize) -> (u64, u64) {
    (0..devices).fold((0, 0), |(r, w), d| {
        let c = v.device(d).counters();
        (r + c.reads, w + c.writes)
    })
}

/// One measured lane: returns (seconds, device read requests, device
/// write requests issued).
fn lane(v: &Volume, devices: usize, f: impl FnOnce()) -> (f64, u64, u64) {
    let (r0, w0) = total_requests(v, devices);
    let t0 = Instant::now();
    f();
    let secs = t0.elapsed().as_secs_f64();
    let (r1, w1) = total_requests(v, devices);
    (secs, r1 - r0, w1 - w0)
}

fn sweep_case(t: &mut Table, name: &str, devices: usize, layout: LayoutSpec, span_blocks: u64) {
    let v = delayed_volume(devices, 8192);
    let parity = matches!(layout, LayoutSpec::Parity { .. });
    let f = v.create_file(FileSpec::new("f", BS, 1, layout)).unwrap();
    let bytes = span_blocks as usize * BS;
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    f.write_span(0, &data).unwrap();

    let mut out = vec![0u8; bytes];
    let (t_pb, r_pb, _) = lane(&v, devices, || {
        for l in 0..span_blocks {
            f.read_lblock(l, &mut out[l as usize * BS..(l as usize + 1) * BS])
                .unwrap();
        }
    });
    assert_eq!(out, data);

    let serial = f.clone().with_span_parallel(false);
    let mut out = vec![0u8; bytes];
    let (t_co, r_co, _) = lane(&v, devices, || serial.read_span(0, &mut out).unwrap());
    assert_eq!(out, data);

    let mut out = vec![0u8; bytes];
    let (t_cp, r_cp, _) = lane(&v, devices, || f.read_span(0, &mut out).unwrap());
    assert_eq!(out, data);
    assert_eq!(r_co, r_cp, "fan-out must not change the request count");
    assert!(
        !parity || r_cp <= devices as u64,
        "a parity span read crosses the rotated parity blocks, one request \
         per device: got {r_cp}"
    );

    t.row(&[
        name.to_string(),
        devices.to_string(),
        span_blocks.to_string(),
        format!("{:.1}ms/{r_pb}", t_pb * 1e3),
        format!("{:.1}ms/{r_co}", t_co * 1e3),
        format!("{:.1}ms/{r_cp}", t_cp * 1e3),
        format!("{:.1}x", r_pb as f64 / r_co as f64),
        format!("{:.1}x", t_pb / t_cp),
    ]);
}

/// Parity write lane: `span_blocks` blocks starting `phase` blocks into
/// a stripe of a rotated 3+1 file, written per block and as one span.
fn parity_write_case(t: &mut Table, span_blocks: u64, phase: u64) {
    const DEVICES: usize = 4;
    let v = delayed_volume(DEVICES, 8192);
    let layout = LayoutSpec::Parity {
        data_devices: DEVICES - 1,
        rotated: true,
    };
    let f = v.create_file(FileSpec::new("f", BS, 1, layout)).unwrap();
    let first = 3 + phase;
    let bytes = span_blocks as usize * BS;
    f.write_span(0, &vec![1u8; (first + span_blocks + 3) as usize * BS])
        .unwrap();
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();

    let (t_pb, r_pb, w_pb) = lane(&v, DEVICES, || {
        for (l, block) in (first..).zip(data.chunks(BS)) {
            f.write_lblock(l, block).unwrap();
        }
    });
    let (t_sp, r_sp, w_sp) = lane(&v, DEVICES, || {
        f.write_span(first * BS as u64, &data).unwrap()
    });
    let mut out = vec![0u8; bytes];
    f.read_span(first * BS as u64, &mut out).unwrap();
    assert_eq!(out, data);

    let drop = (r_pb + w_pb) as f64 / (r_sp + w_sp) as f64;
    assert!(
        drop >= 8.0,
        "a parity span write must cut device requests >=8x (got {drop:.1}x)"
    );
    if phase == 0 && span_blocks.is_multiple_of(3) {
        assert_eq!(
            (r_sp, w_sp),
            (0, DEVICES as u64),
            "a stripe-aligned span write reads nothing and writes one run per device"
        );
    }
    t.row(&[
        span_blocks.to_string(),
        phase.to_string(),
        format!("{:.1}ms/{r_pb}r+{w_pb}w", t_pb * 1e3),
        format!("{:.1}ms/{r_sp}r+{w_sp}w", t_sp * 1e3),
        format!("{drop:.1}x"),
        format!("{:.1}x", t_pb / t_sp),
    ]);
}

/// Degraded parity read lane: a 512-block scan of a rotated 3+1 file
/// whose device `DOWN` is Failed (fail-stopped, the board knows) or
/// Rebuilding (stale media the board routes around), per block and as
/// one span. A recovery holds the stripe lock once, so the lock column
/// is recoveries: one per lost block against one for the span.
fn degraded_read_case(t: &mut Table, rebuilding: bool) {
    const DEVICES: usize = 4;
    const DOWN: usize = 1;
    const BLOCKS: u64 = 512;
    let v = delayed_volume(DEVICES, 8192);
    let layout = LayoutSpec::Parity {
        data_devices: DEVICES - 1,
        rotated: true,
    };
    let f = v.create_file(FileSpec::new("f", BS, 1, layout)).unwrap();
    let bytes = BLOCKS as usize * BS;
    let data: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
    f.write_span(0, &data).unwrap();
    let dev = f.meta_snapshot().device_map[DOWN];
    v.health().mark_failed(dev);
    if rebuilding {
        v.health().begin_rebuild(dev, || ());
    } else {
        v.device(dev).fail();
    }
    let lost = (0..BLOCKS)
        .filter(|&l| f.layout().map(l).device == DOWN)
        .count();

    let mut out = vec![0u8; bytes];
    let (t_pb, r_pb, _) = lane(&v, DEVICES, || {
        for (l, block) in (0..BLOCKS).zip(out.chunks_mut(BS)) {
            f.read_lblock(l, block).unwrap();
        }
    });
    assert_eq!(out, data);
    out.fill(0);
    let (t_sp, r_sp, _) = lane(&v, DEVICES, || f.read_span(0, &mut out).unwrap());
    assert_eq!(out, data);

    let drop = r_pb as f64 / r_sp as f64;
    assert!(
        r_sp <= DEVICES as u64 && drop >= 8.0,
        "a degraded parity span read is one run per surviving device: \
         {r_sp} requests, {drop:.1}x fewer than per block"
    );
    t.row(&[
        if rebuilding { "rebuilding" } else { "failed" }.to_string(),
        BLOCKS.to_string(),
        format!("{:.1}ms/{r_pb} req/{lost} locks", t_pb * 1e3),
        format!("{:.1}ms/{r_sp} req/1 lock", t_sp * 1e3),
        format!("{drop:.1}x"),
        format!("{:.1}x", t_pb / t_sp),
    ]);
}

fn global_scan_case(t: &mut Table, devices: usize, unit: u64) {
    const FILE_BYTES: u64 = 64 * 1024 * 1024;
    let blocks = FILE_BYTES / BS as u64;
    let v = delayed_volume(devices, blocks / devices as u64 + 64);
    let f: RawFile = v
        .create_file(FileSpec::new(
            "scan",
            BS,
            1,
            LayoutSpec::Striped { devices, unit },
        ))
        .unwrap();
    // Fill through the coalesced span path in 1 MiB strides.
    let chunk = vec![7u8; 256 * BS];
    for i in 0..blocks / 256 {
        f.write_span(i * 256 * BS as u64, &chunk).unwrap();
    }
    f.set_len_records(blocks).unwrap();

    let (t_pb, r_pb, _) = lane(&v, devices, || {
        let mut buf = vec![0u8; BS];
        for l in 0..blocks {
            f.read_lblock(l, &mut buf).unwrap();
        }
    });
    let (t_gv, r_gv, _) = lane(&v, devices, || {
        let mut r = GlobalReader::new(f.clone());
        let mut rec = vec![0u8; BS];
        let mut n = 0u64;
        while r.read_record(&mut rec).unwrap() {
            n += 1;
        }
        assert_eq!(n, blocks);
    });
    let drop = r_pb as f64 / r_gv as f64;
    assert!(
        drop >= 4.0,
        "global-view scan must cut device requests >=4x (got {drop:.1}x)"
    );
    t.row(&[
        format!("striped u{unit}"),
        devices.to_string(),
        blocks.to_string(),
        format!("{:.0}ms/{r_pb}", t_pb * 1e3),
        format!("{:.0}ms/{r_gv}", t_gv * 1e3),
        format!("{drop:.1}x"),
        format!("{:.1}x", t_pb / t_gv),
    ]);
}

fn main() {
    banner(
        "span coalescing (vectored runs + device fan-out)",
        "transferring as much data as possible in each access: spans \
         become one vectored request per device run, and independent \
         runs proceed in parallel across devices",
    );

    let mut t = Table::new(&[
        "layout",
        "devs",
        "blocks",
        "per-block t/req",
        "coalesced t/req",
        "coal+par t/req",
        "req drop",
        "speedup",
    ]);
    for &devices in &[2usize, 4, 8] {
        for &span_blocks in &[64u64, 512, 2048] {
            sweep_case(
                &mut t,
                "striped u2",
                devices,
                LayoutSpec::Striped { devices, unit: 2 },
                span_blocks,
            );
        }
    }
    for &span_blocks in &[64u64, 512] {
        sweep_case(
            &mut t,
            "striped u8",
            4,
            LayoutSpec::Striped {
                devices: 4,
                unit: 8,
            },
            span_blocks,
        );
        sweep_case(
            &mut t,
            "shadowed u2",
            8,
            LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                devices: 4,
                unit: 2,
            })),
            span_blocks,
        );
        sweep_case(
            &mut t,
            "parity rot",
            4,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: true,
            },
            span_blocks,
        );
    }
    t.print();
    save_json("span_coalesce", &t);

    println!("\nparity span writes (rotated 3+1), per-block reference vs write_span:");
    let mut w = Table::new(&[
        "blocks",
        "phase",
        "per-block t/req",
        "span t/req",
        "req drop",
        "speedup",
    ]);
    for &(span_blocks, phase) in &[(63u64, 0u64), (64, 1), (510, 0), (512, 2)] {
        parity_write_case(&mut w, span_blocks, phase);
    }
    w.print();
    save_json("span_coalesce_parity_write", &w);

    println!("\nparity read (rotated 3+1), one device down, per-block reference vs read_span:");
    let mut d = Table::new(&[
        "device 1",
        "blocks",
        "per-block t/req/locks",
        "span t/req/locks",
        "req drop",
        "speedup",
    ]);
    degraded_read_case(&mut d, false);
    degraded_read_case(&mut d, true);
    d.print();
    save_json("span_coalesce_degraded", &d);

    println!("\n64 MiB sequential scan through the global view:");
    let mut g = Table::new(&[
        "layout",
        "devs",
        "blocks",
        "per-block t/req",
        "global view t/req",
        "req drop",
        "speedup",
    ]);
    global_scan_case(&mut g, 4, 2);
    global_scan_case(&mut g, 4, 4);
    g.print();
    save_json("span_coalesce_global", &g);
}
