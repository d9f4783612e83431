//! What a record op costs the allocator. A one-block record read or
//! write is one device transfer: it is not planned, staged or handed to
//! a worker, but moves in one call between the caller's buffer and the
//! volume's data path — the device's executor handle, or the cache tier
//! where the volume has one. So, warm, it allocates nothing at all,
//! cached or not.
//!
//! This file is one test in a binary of its own: the counting allocator
//! sees every thread of the process.

mod counting;

use pario::core::{Organization, ParallelFile};
use pario::disk::mem_array;
use pario::fs::{RawFile, Volume, VolumeCacheConfig};

/// Record and block size: one record a block, as in the gated GDA rig.
const BS: usize = 4096;
const RECORDS: u64 = 64;
const OPS: u64 = 1_000;

/// One op: record `i`'s write, then its read.
fn op(f: &RawFile, i: u64, data: &mut [u8], out: &mut [u8]) {
    let r = i % RECORDS;
    data[..8].copy_from_slice(&i.to_le_bytes());
    f.write_record(r, data).unwrap();
    f.read_record(r, out).unwrap();
    assert!(out == data, "record {r} read back wrong");
}

#[test]
fn a_warm_record_op_allocates_nothing() {
    // The benchmark's rig: 4-way striped GDA over four memory devices
    // behind `Volume::new`, uncached and with a tier holding every record.
    for cached in [false, true] {
        let v = Volume::new(mem_array(4, 256, BS)).unwrap();
        let org = Organization::GlobalDirect;
        let pf = ParallelFile::create_sized(&v, "g", org, BS, 1, RECORDS).unwrap();
        if cached {
            v.enable_cache(VolumeCacheConfig::write_back(2 * RECORDS as usize))
                .unwrap();
        }
        let (mut data, mut out) = (vec![7u8; BS], vec![0u8; BS]);
        (0..2 * RECORDS).for_each(|i| op(pf.raw(), i, &mut data, &mut out));
        let before = counting::requested();
        (0..OPS).for_each(|i| op(pf.raw(), i, &mut data, &mut out));
        let bytes = counting::requested() - before;
        assert_eq!(
            bytes, 0,
            "cached={cached}: {bytes} bytes allocated by {OPS} record write + read pairs"
        );
    }
}
