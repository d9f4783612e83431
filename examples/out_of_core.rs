//! Out-of-core computation — the paper's motivating workload for the
//! partitioned direct access (PDA) organization: "this organization is
//! useful for programs which can't fit all of their data into memory,
//! and are using files for auxiliary storage. Blocks can be thought of
//! as pages of virtual memory, with the direct access feature allowing
//! multiple passes on the data."
//!
//! Four workers run a multi-pass relaxation over a data set "too large"
//! for memory: each pass sweeps the worker's pages back and forth
//! (as relaxation solvers do), paging records in and out through its
//! partition handle.
//!
//! ```sh
//! cargo run --example out_of_core
//! ```

use pario::core::{Organization, ParallelFile};
use pario::fs::{Volume, VolumeConfig};
use pario::workloads::OutOfCore;

const RECORD: usize = 256;
const RECORDS_PER_PART: u64 = 256;
const PARTS: u32 = 4;
const PASSES: u32 = 3;

fn main() {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: PARTS as usize,
        device_blocks: 2048,
        block_size: 4096,
    })
    .expect("volume");

    let total = RECORDS_PER_PART * u64::from(PARTS);
    let pf = ParallelFile::create_sized(
        &volume,
        "pages",
        Organization::PartitionedDirect { partitions: PARTS },
        RECORD,
        16,
        total,
    )
    .expect("create");

    // Initialise every record with a counter in its first 8 bytes.
    for p in 0..PARTS {
        let h = pf.partition_handle(p).expect("handle");
        let (lo, hi) = h.range();
        for r in lo..hi {
            let mut rec = vec![0u8; RECORD];
            rec[..8].copy_from_slice(&1u64.to_le_bytes());
            h.write_record(r, &rec).expect("init");
        }
    }

    // The access pattern the workload generator prescribes: alternating
    // sweep direction per pass, read-modify-write per page.
    let pattern = OutOfCore {
        pages_per_part: RECORDS_PER_PART,
        processes: PARTS,
        passes: PASSES,
    };

    std::thread::scope(|s| {
        for (p, accesses) in pattern.trace().per_process(PARTS).into_iter().enumerate() {
            let h = pf.partition_handle(p as u32).expect("handle");
            s.spawn(move || {
                // The trace names pages within the partition.
                let lo = h.range().0;
                let mut rec = vec![0u8; RECORD];
                let mut pending: Option<u64> = None;
                for a in accesses {
                    match a.kind {
                        pario::workloads::AccessKind::Read => {
                            h.read_record(lo + a.index, &mut rec).expect("page in");
                            let v = u64::from_le_bytes(rec[..8].try_into().unwrap());
                            pending = Some(v * 2 + 1); // the "relaxation"
                        }
                        pario::workloads::AccessKind::Write => {
                            let v = pending.take().expect("write follows read");
                            rec[..8].copy_from_slice(&v.to_le_bytes());
                            h.write_record(lo + a.index, &rec).expect("page out");
                        }
                    }
                }
            });
        }
    });

    // After k passes of v -> 2v+1 starting from 1: v = 2^(k+1) - 1.
    let expect = (1u64 << (PASSES + 1)) - 1;
    let mut g = pf.global_reader();
    let mut rec = vec![0u8; RECORD];
    let mut n = 0;
    while g.read_record(&mut rec).expect("read") {
        let v = u64::from_le_bytes(rec[..8].try_into().unwrap());
        assert_eq!(v, expect, "record {n}");
        n += 1;
    }
    println!(
        "{PARTS} workers, {PASSES} alternating passes over {n} records \
         ({} KiB per partition, paged through PDA handles)",
        RECORDS_PER_PART as usize * RECORD / 1024
    );
    println!("every record reached the expected value {expect}");

    // Device traffic: each worker paged only its own device.
    for d in 0..PARTS as usize {
        let c = volume.device(d).counters();
        println!("device {d}: {} reads, {} writes", c.reads, c.writes);
    }
    println!("ok");
}
