//! Concurrency property test for the self-scheduled (SS) sharing
//! invariant — the paper's §3.1 guarantee, hammered from many threads:
//! "each request accesses a different record and no record gets skipped".
//!
//! Readers mix single-record and block claims on the two-phase cursor
//! (atomic claim, transfer outside any lock); writers fill a fresh file
//! concurrently and the result must be hole-free.

use std::collections::HashSet;
use std::sync::Mutex;

use proptest::prelude::*;

use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};

const REC: usize = 64;

fn vol() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: 256,
    })
    .unwrap()
}

/// Build an SS file of `n` records whose payload encodes the record index.
fn ss_file(v: &Volume, n: u64) -> ParallelFile {
    let pf = ParallelFile::create(v, "ss", Organization::SelfScheduledSeq, REC, 4).unwrap();
    let w = pf.self_sched_writer().unwrap();
    for i in 0..n {
        w.write_next(&[i as u8; REC]).unwrap();
    }
    w.finish().unwrap();
    pf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// N threads racing on one shared cursor deliver every record exactly
    /// once, whether they claim records or blocks.
    #[test]
    fn readers_deliver_exactly_once(
        threads in 2usize..9,
        records in 1u64..400,
        by_block in any::<bool>(),
    ) {
        let v = vol();
        let pf = ss_file(&v, records);
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                let r = pf.self_sched_reader().unwrap();
                let seen = &seen;
                s.spawn(move || {
                    if by_block {
                        let mut block = vec![0u8; REC * 4];
                        while let Some((first, n)) = r.read_next_block(&mut block).unwrap() {
                            for k in 0..n {
                                let idx = first + k as u64;
                                let rec = &block[k * REC..(k + 1) * REC];
                                assert!(rec.iter().all(|&b| b == idx as u8), "torn {idx}");
                                assert!(seen.lock().unwrap().insert(idx), "dup {idx}");
                            }
                        }
                    } else {
                        let mut buf = vec![0u8; REC];
                        while let Some(idx) = r.read_next(&mut buf).unwrap() {
                            assert!(buf.iter().all(|&b| b == idx as u8), "torn {idx}");
                            assert!(seen.lock().unwrap().insert(idx), "dup {idx}");
                        }
                    }
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        prop_assert_eq!(seen.len() as u64, records, "skipped records");
        prop_assert_eq!(pf.self_sched_reader().unwrap().claimed(), records);
    }

    /// N threads racing on the write cursor fill distinct slots: the
    /// finished file has no holes, no torn records, and exactly
    /// `threads * per_thread` records.
    #[test]
    fn writers_fill_distinct_slots(
        threads in 2usize..7,
        per_thread in 1usize..60,
    ) {
        let v = vol();
        let pf = ParallelFile::create(&v, "out", Organization::SelfScheduledSeq, REC, 4).unwrap();
        std::thread::scope(|s| {
            for t in 0..threads {
                let w = pf.self_sched_writer().unwrap();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        w.write_next(&[t as u8 + 1; REC]).unwrap();
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        prop_assert_eq!(pf.self_sched_writer().unwrap().finish().unwrap(), total);
        let mut per_writer = vec![0usize; threads + 1];
        let mut r = pf.global_reader();
        let mut rec = vec![0u8; REC];
        while r.read_record(&mut rec).unwrap() {
            let tag = rec[0] as usize;
            prop_assert!(tag >= 1 && tag <= threads, "hole or torn record");
            prop_assert!(rec.iter().all(|&b| b == tag as u8), "torn record");
            per_writer[tag] += 1;
        }
        prop_assert!(per_writer[1..].iter().all(|&c| c == per_thread));
    }
}
