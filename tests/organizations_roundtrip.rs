//! Integration: every organization's internal view writes concurrently;
//! the global view (and the matching internal view) reads back exactly
//! what was written — the paper's core "standard parallel files" promise
//! that one file serves both worlds.

use pario::core::{Organization, ParallelFile};
use pario::fs::{Volume, VolumeCacheConfig, VolumeConfig};
use pario::workloads::record_payload;

const RECORD: usize = 128;
const RPB: usize = 8;

fn vol() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 2048,
        block_size: 512,
    })
    .unwrap()
}

fn check_global(pf: &ParallelFile, total: u64) {
    let mut r = pf.global_reader();
    let mut buf = vec![0u8; RECORD];
    let mut i = 0u64;
    while r.read_record(&mut buf).unwrap() {
        assert_eq!(buf, record_payload(i, RECORD), "record {i}");
        i += 1;
    }
    assert_eq!(i, total);
}

#[test]
fn sequential_stream_round_trip() {
    let v = vol();
    let pf = ParallelFile::create(&v, "s", Organization::Sequential, RECORD, RPB).unwrap();
    let mut w = pf.global_writer();
    for i in 0..300u64 {
        w.write_record(&record_payload(i, RECORD)).unwrap();
    }
    assert_eq!(w.finish().unwrap(), 300);
    check_global(&pf, 300);
}

#[test]
fn partitioned_concurrent_writers() {
    let v = vol();
    let org = Organization::PartitionedSeq { partitions: 4 };
    let pf = ParallelFile::create_sized(&v, "ps", org, RECORD, RPB, 256).unwrap();
    std::thread::scope(|s| {
        for p in 0..4 {
            let mut h = pf.partition_handle(p).unwrap();
            s.spawn(move || {
                let (lo, hi) = h.range();
                for g in lo..hi {
                    h.write_next(&record_payload(g, RECORD)).unwrap();
                }
            });
        }
    });
    check_global(&pf, 256);
    // Reopen by name: organization and partition map survive.
    let again = ParallelFile::open(&v, "ps").unwrap();
    assert_eq!(again.organization(), org);
    let mut h = again.partition_handle(2).unwrap();
    let (lo, _) = h.range();
    let mut buf = vec![0u8; RECORD];
    assert_eq!(h.read_next(&mut buf).unwrap(), Some(lo));
    assert_eq!(buf, record_payload(lo, RECORD));
}

#[test]
fn interleaved_concurrent_writers() {
    let v = vol();
    let org = Organization::InterleavedSeq { processes: 4 };
    let pf = ParallelFile::create(&v, "is", org, RECORD, 4).unwrap();
    std::thread::scope(|s| {
        for p in 0..4u32 {
            let mut h = pf.interleaved_handle(p).unwrap();
            s.spawn(move || {
                // 8 blocks per process, 4 records per block.
                for k in 0..8u64 {
                    let fb = u64::from(p) + k * 4;
                    for c in 0..4u64 {
                        h.write_next(&record_payload(fb * 4 + c, RECORD)).unwrap();
                    }
                }
            });
        }
    });
    check_global(&pf, 128);
}

#[test]
fn self_scheduled_pipeline() {
    let v = vol();
    let pf = ParallelFile::create(&v, "ss", Organization::SelfScheduledSeq, RECORD, RPB).unwrap();
    // Producers race; consumers then drain exactly once.
    std::thread::scope(|s| {
        for _ in 0..3 {
            let w = pf.self_sched_writer().unwrap();
            s.spawn(move || {
                for _ in 0..40 {
                    let idx = w.write_next(&[0u8; RECORD]).unwrap();
                    // Tag the record with its own slot index so content
                    // is index-derived regardless of which writer won.
                    w.claimed(); // (exercise the accessor)
                    let _ = idx;
                }
            });
        }
    });
    let w = pf.self_sched_writer().unwrap();
    assert_eq!(w.finish().unwrap(), 120);
    // Overwrite each slot with payload(slot) via GDA-style raw access so
    // readers can verify content deterministically.
    for i in 0..120u64 {
        pf.raw()
            .write_record(i, &record_payload(i, RECORD))
            .unwrap();
    }
    let served = std::sync::Mutex::new(std::collections::HashSet::new());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let r = pf.self_sched_reader().unwrap();
            let served = &served;
            s.spawn(move || {
                let mut buf = vec![0u8; RECORD];
                while let Some(i) = r.read_next(&mut buf).unwrap() {
                    assert_eq!(buf, record_payload(i, RECORD));
                    assert!(served.lock().unwrap().insert(i));
                }
            });
        }
    });
    assert_eq!(served.into_inner().unwrap().len(), 120);
}

#[test]
fn global_direct_random_access() {
    let v = vol()
        .enable_cache(VolumeCacheConfig::write_back(32))
        .unwrap();
    let pf = ParallelFile::create(&v, "gda", Organization::GlobalDirect, RECORD, RPB).unwrap();
    let h = pf.direct_handle().unwrap();
    // Writes in a scrambled order.
    let mut order: Vec<u64> = (0..200).collect();
    let mut state = 12345u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    for &i in &order {
        h.write_record(i, &record_payload(i, RECORD)).unwrap();
    }
    v.flush_cache().unwrap();
    check_global(&pf, 200);
}

#[test]
fn partitioned_direct_multiple_passes() {
    let v = vol();
    let org = Organization::PartitionedDirect { partitions: 2 };
    let pf = ParallelFile::create_sized(&v, "pda", org, RECORD, RPB, 128).unwrap();
    std::thread::scope(|s| {
        for p in 0..2 {
            let h = pf.partition_handle(p).unwrap();
            s.spawn(move || {
                let (lo, hi) = h.range();
                // Pass 1: forward writes; pass 2: backward verify+update.
                for r in lo..hi {
                    h.write_record(r, &record_payload(r, RECORD)).unwrap();
                }
                let mut buf = vec![0u8; RECORD];
                for r in (lo..hi).rev() {
                    h.read_record(r, &mut buf).unwrap();
                    assert_eq!(buf, record_payload(r, RECORD));
                }
            });
        }
    });
    check_global(&pf, 128);
}

/// Serial equivalence (scda, PAPERS.md): the global view is a function
/// of the records, not of how the allocation came about. The same
/// records appended one at a time (the allocation doubling ahead of
/// them), appended by two self-scheduled writers, and written into a
/// file sized at creation read back byte-identical, with one length.
#[test]
fn grown_self_scheduled_and_sized_files_have_one_global_view() {
    const TOTAL: u64 = 1000;
    let v = vol();
    let view = |pf: &ParallelFile| {
        let mut bytes = Vec::new();
        let read = pf
            .global_reader()
            .for_each(|_, rec| bytes.extend_from_slice(rec))
            .unwrap();
        (pf.raw().len_records(), read, bytes)
    };

    let grown = ParallelFile::create(&v, "grown", Organization::Sequential, RECORD, RPB).unwrap();
    for i in 0..TOTAL {
        grown
            .raw()
            .write_record(i, &record_payload(i, RECORD))
            .unwrap();
    }

    let ss = ParallelFile::create(&v, "ss", Organization::SelfScheduledSeq, RECORD, RPB).unwrap();
    let writer = ss.self_sched_writer().unwrap();
    // A slot's content must not depend on which writer claimed it: the
    // turn is held across the claim, so record k lands in slot k.
    let turn = std::sync::Mutex::new(0u64);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let mut k = turn.lock().unwrap();
                if *k == TOTAL {
                    return;
                }
                let slot = writer.write_next(&record_payload(*k, RECORD)).unwrap();
                assert_eq!(slot, *k);
                *k += 1;
            });
        }
    });
    assert_eq!(writer.finish().unwrap(), TOTAL);

    let sized =
        ParallelFile::create_sized(&v, "sized", Organization::Sequential, RECORD, RPB, TOTAL)
            .unwrap();
    for i in 0..TOTAL {
        sized
            .raw()
            .write_record(i, &record_payload(i, RECORD))
            .unwrap();
    }

    assert!(
        grown.raw().nblocks() > sized.raw().nblocks(),
        "the grown file's allocation ran ahead; the sized one is exact"
    );
    let reference = view(&sized);
    assert_eq!(reference.0, TOTAL);
    assert!(
        view(&grown) == reference,
        "grown file's global view differs"
    );
    assert!(
        view(&ss) == reference,
        "self-scheduled file's global view differs"
    );
}
