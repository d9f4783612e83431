//! Property tests for the boundary-data machinery: for arbitrary file
//! sizes, partition counts and halo widths, halo windows cover exactly
//! the right records and the replicated file's de-duplicating global
//! view reproduces the source.

use proptest::prelude::*;

use pario_core::{create_replicated, read_partition_with_halo, Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};

const RECORD: usize = 64;
const RPB: usize = 4;

fn vol() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 4096,
        block_size: RECORD * RPB,
    })
    .unwrap()
}

fn payload(i: u64) -> Vec<u8> {
    (0..RECORD).map(|j| (i as usize * 31 + j) as u8).collect()
}

fn ps_file(v: &Volume, total: u64, parts: u32) -> ParallelFile {
    let org = Organization::PartitionedSeq { partitions: parts };
    let pf = ParallelFile::create_sized(v, "src", org, RECORD, RPB, total).unwrap();
    let mut w = pario_fs::GlobalWriter::truncate(pf.raw().clone()).unwrap();
    for i in 0..total {
        w.write_record(&payload(i)).unwrap();
    }
    w.finish().unwrap();
    pf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Halo windows: clamped at the file edges, sized own + up to 2*halo,
    /// and every held record's content is exact.
    #[test]
    fn halo_windows_are_exact(total in 1u64..200, parts in 1u32..6, halo in 0u64..9) {
        let v = vol();
        let pf = ps_file(&v, total, parts);
        let mut covered = 0u64;
        for p in 0..parts {
            let region = read_partition_with_halo(&pf, p, halo).unwrap();
            let (lo, hi) = region.own_range();
            covered += hi - lo;
            let expect_first = lo.saturating_sub(halo);
            let expect_last = (hi + halo).min(total);
            prop_assert_eq!(region.first_record(), expect_first);
            if hi > lo {
                prop_assert_eq!(
                    region.len_records(),
                    expect_last - expect_first,
                    "partition {} of {}", p, parts
                );
            }
            for idx in expect_first..expect_last {
                let want = payload(idx);
                prop_assert_eq!(region.record(idx), want.as_slice());
            }
        }
        prop_assert_eq!(covered, total);
    }

    /// Replicated-boundary files: every partition's local window holds
    /// the right records, and the de-duplicating global view replays the
    /// source exactly once in order.
    #[test]
    fn replication_round_trips(total in 1u64..160, parts in 1u32..5, halo in 0u64..7) {
        let v = vol();
        let pf = ps_file(&v, total, parts);
        let rep = create_replicated(&v, "rep", &pf, parts, halo).unwrap();
        for p in 0..parts {
            let region = rep.read_partition(p).unwrap();
            let (lo, hi) = region.own_range();
            let first = region.first_record();
            let last = first + region.len_records();
            prop_assert!(first <= lo && hi <= last);
            for idx in first..last {
                let want = payload(idx);
                prop_assert_eq!(region.record(idx), want.as_slice());
            }
        }
        let mut next = 0u64;
        let n = rep
            .for_each_global(|idx, bytes| {
                assert_eq!(idx, next);
                assert_eq!(bytes, payload(idx).as_slice());
                next += 1;
            })
            .unwrap();
        prop_assert_eq!(n, total);
        // Overhead is bounded by replication + block padding.
        let bound = 2 * halo * u64::from(parts) + u64::from(parts) * RPB as u64;
        prop_assert!(rep.overhead_records() <= bound);
        v.remove("rep").unwrap();
        v.remove("src").unwrap();
    }
}

/// A halo window is one contiguous range, so it reaches each device its
/// range touches with at most one read request, however many records it
/// holds.
#[test]
fn a_halo_window_is_one_request_per_device() {
    let v = vol();
    let pf = ps_file(&v, 512, 4);
    let reads = || -> Vec<u64> {
        (0..v.num_devices())
            .map(|d| v.device(d).counters().reads)
            .collect()
    };
    let before = reads();
    let region = read_partition_with_halo(&pf, 1, 3).unwrap();
    assert_eq!(region.len_records(), 128 + 6);
    let per_device: Vec<u64> = reads().iter().zip(&before).map(|(a, b)| a - b).collect();
    // Partition 1 with its halo touches partitions 0, 1 and 2's devices.
    assert_eq!(
        per_device.iter().filter(|&&n| n > 0).count(),
        3,
        "{per_device:?}"
    );
    assert!(per_device.iter().all(|&n| n <= 1), "{per_device:?}");
}
