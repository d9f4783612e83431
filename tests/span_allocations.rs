//! What a span costs the allocator. A span that is more than one device
//! transfer moves through staging buffers — a run's rows before they
//! are scattered, a run's bytes gathered before they are written, a
//! parity span's per-device runs — and the volume recycles them
//! (`pario_fs`'s staging list), so a steady stream of spans allocates
//! only its bookkeeping: plans and their row lists. Behind a cache
//! tier the rule is the same: a run reads into a staging buffer, the
//! tier copies its hits there, and the ticket hands the buffer back. A
//! device transfer costs the same whichever way its I/O node routes it:
//! run on the caller it takes nothing, and queued it completes through a
//! slot the node recycles.
//!
//! This file is one test in a binary of its own: the counting allocator
//! sees every thread of the process, libtest's included, so the test
//! lets every other thread fall asleep before it counts.

mod counting;

use std::sync::Arc;
use std::time::Duration;

use pario::disk::{DeviceRef, MemDisk};
use pario::fs::{FileSpec, RawFile, Volume, VolumeCacheConfig};
use pario::layout::LayoutSpec;

const BS: usize = 4096;
/// Blocks a span: 256 KiB, the gated `span-parity` workload's size.
const SPAN: usize = 64;
const OPS: u64 = 100;
/// Cache frames: both files, parity rows included, with room to spare.
const FRAMES: usize = 512;
/// A device transfer this slow never measures under the I/O node's
/// hand-off cost, so its node queues every submission.
const QUEUED_DELAY: Duration = Duration::from_micros(50);

/// One op: a 64-block `write_span` and the `read_span` of it, starting
/// a block further into the file each time — so on the 3+1 file every
/// stripe phase comes round, ragged at both ends two times in three.
fn op(f: &RawFile, i: u64, data: &[u8], out: &mut [u8]) {
    let at = (1 + i % 7) * BS as u64;
    f.write_span(at, data).unwrap();
    f.read_span(at, out).unwrap();
    assert!(out == data, "span {i} read back wrong");
}

/// Warm 64-block write + read pairs on the rotated 3+1 and the 4-wide
/// striped file allocate under 8 KiB each, uncached and behind a
/// write-back tier that holds both files. A plan is its row ranges, so
/// the bookkeeping does not grow with the blocks a span moves: about
/// 4.4 KiB (parity) and 3.8 KiB (striped) a pair. The same spans over
/// devices that take 50 µs a transfer, whose nodes queue every
/// submission, allocate within 256 bytes of that.
#[test]
fn a_warm_span_allocates_no_staging() {
    for cached in [false, true] {
        let inline = warm_spans(cached, Duration::ZERO);
        let queued = warm_spans(cached, QUEUED_DELAY);
        for ((name, inline), (_, queued)) in inline.into_iter().zip(queued) {
            println!("{name}, cached={cached}: {inline} B a pair inline, {queued} B queued");
            for (arm, per_op) in [("inline", inline), ("queued", queued)] {
                // Staged, a pair moves ~680 KiB (parity) or 512 KiB
                // (striped) through buffers of its own.
                assert!(
                    per_op < 8 << 10,
                    "{name}, cached={cached}, {arm}: {per_op} bytes allocated per write_span + read_span"
                );
            }
            assert!(
                inline.abs_diff(queued) <= 256,
                "{name}, cached={cached}: {inline} B a pair inline but {queued} B queued"
            );
        }
    }
}

/// Bytes allocated per warm pair on each file, over four memory devices
/// that take `delay` a transfer behind `Volume::new` (the benchmark's
/// rig, at zero delay).
fn warm_spans(cached: bool, delay: Duration) -> [(&'static str, u64); 2] {
    let devices = (0..4)
        .map(|_| Arc::new(MemDisk::new(256, BS).with_delay(delay)) as DeviceRef)
        .collect();
    let v = Volume::new(devices).unwrap();
    if cached {
        v.enable_cache(VolumeCacheConfig::write_back(FRAMES))
            .unwrap();
    }
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
    [("parity", parity), ("striped", striped)].map(|(name, layout)| {
        let spec = FileSpec::new(name, BS, 1, layout).initial_records(SPAN as u64 + 8);
        let f = v.create_file(spec).unwrap();
        (0..21).for_each(|i| op(&f, i, &data, &mut out));
        counting::settle();
        let before = counting::requested();
        (0..OPS).for_each(|i| op(&f, i, &data, &mut out));
        (name, (counting::requested() - before) / OPS)
    })
}
