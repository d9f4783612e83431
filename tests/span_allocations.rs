//! What a span costs the allocator. A span that is more than one device
//! transfer moves through staging buffers — a run's rows before they
//! are scattered, a run's bytes gathered before they are written, a
//! parity span's per-device runs — and the volume recycles them
//! (`pario_fs`'s staging list), so a steady stream of spans allocates
//! only its bookkeeping: plans, tickets, reply channels.
//!
//! This file is one test in a binary of its own: the counting allocator
//! sees every thread of the process.

mod counting;

use pario::disk::mem_array;
use pario::fs::{FileSpec, RawFile, Volume};
use pario::layout::LayoutSpec;

const BS: usize = 4096;
/// Blocks a span: 256 KiB, the gated `span-parity` workload's size.
const SPAN: usize = 64;
const OPS: u64 = 100;

/// One op: a 64-block `write_span` and the `read_span` of it, starting
/// a block further into the file each time — so on the 3+1 file every
/// stripe phase comes round, ragged at both ends two times in three.
fn op(f: &RawFile, i: u64, data: &[u8], out: &mut [u8]) {
    let at = (1 + i % 7) * BS as u64;
    f.write_span(at, data).unwrap();
    f.read_span(at, out).unwrap();
    assert!(out == data, "span {i} read back wrong");
}

#[test]
fn a_warm_span_allocates_no_staging() {
    // The benchmark's rig: four memory devices behind `Volume::new`.
    let v = Volume::new(mem_array(4, 256, BS)).unwrap();
    let parity = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let striped = LayoutSpec::Striped {
        devices: 4,
        unit: 1,
    };
    let data: Vec<u8> = (0..SPAN * BS).map(|i| (i / 3) as u8).collect();
    let mut out = vec![0u8; data.len()];
    for (name, layout) in [("parity", parity), ("striped", striped)] {
        let spec = FileSpec::new(name, BS, 1, layout).initial_records(SPAN as u64 + 8);
        let f = v.create_file(spec).unwrap();
        (0..21).for_each(|i| op(&f, i, &data, &mut out));
        let before = counting::requested();
        (0..OPS).for_each(|i| op(&f, i, &data, &mut out));
        let per_op = (counting::requested() - before) / OPS;
        // Staged, a pair moves ~680 KiB (parity) or 512 KiB (striped)
        // through buffers of its own.
        assert!(
            per_op < 64 << 10,
            "{name}: {per_op} bytes allocated per write_span + read_span"
        );
    }
}
