//! Edge cases across every organization: empty files, single records,
//! partition counts exceeding records, record sizes at block boundaries,
//! and reopened-handle behaviour.

use pario_core::{views, Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};

const BS: usize = 256;

fn vol() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap()
}

#[test]
fn empty_files_read_as_empty_everywhere() {
    let v = vol();
    let orgs = [
        Organization::Sequential,
        Organization::SelfScheduledSeq,
        Organization::GlobalDirect,
        Organization::InterleavedSeq { processes: 2 },
    ];
    for (i, org) in orgs.into_iter().enumerate() {
        let pf = ParallelFile::create(&v, &format!("e{i}"), org, 64, 4).unwrap();
        assert_eq!(pf.len_records(), 0);
        let mut g = pf.global_reader();
        let mut buf = vec![0u8; 64];
        assert!(!g.read_record(&mut buf).unwrap());
    }
    // Empty SS file: readers immediately see exhaustion.
    let pf = ParallelFile::open(&v, "e1").unwrap();
    let r = pf.self_sched_reader().unwrap();
    let mut buf = vec![0u8; 64];
    assert_eq!(r.read_next(&mut buf).unwrap(), None);
    // Empty S file, reopened: still nothing to stream.
    let pf = ParallelFile::open(&v, "e0").unwrap();
    let n = pf.global_reader().for_each(|_, _| panic!("no records"));
    assert_eq!(n.unwrap(), 0);
}

#[test]
fn single_record_file() {
    let v = vol();
    let pf = ParallelFile::create(&v, "one", Organization::GlobalDirect, 64, 4).unwrap();
    let h = pf.direct_handle().unwrap();
    h.write_record(0, &[42u8; 64]).unwrap();
    assert_eq!(pf.len_records(), 1);
    let mut buf = vec![0u8; 64];
    h.read_record(0, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 42));
    assert!(h.read_record(1, &mut buf).is_err());
}

#[test]
fn more_partitions_than_file_blocks() {
    // 8 records of a 4-records-per-block file = 2 file blocks, but 4
    // partitions: the trailing partitions are empty and harmless.
    let v = vol();
    let org = Organization::PartitionedSeq { partitions: 4 };
    let pf = ParallelFile::create_sized(&v, "tiny", org, 64, 4, 8).unwrap();
    let sizes: Vec<u64> = (0..4)
        .map(|p| {
            let (lo, hi) = pf.partition_handle(p).unwrap().range();
            hi - lo
        })
        .collect();
    assert_eq!(sizes.iter().sum::<u64>(), 8);
    assert!(sizes[2] == 0 && sizes[3] == 0);
    let mut h3 = pf.partition_handle(3).unwrap();
    assert_eq!(h3.range(), (8, 8));
    let mut buf = vec![0u8; 64];
    assert_eq!(h3.read_next(&mut buf).unwrap(), None);
    assert!(h3.write_next(&[0u8; 64]).is_err());
    // The non-empty partitions still function.
    let mut h0 = pf.partition_handle(0).unwrap();
    for _ in 0..sizes[0] {
        h0.write_next(&[9u8; 64]).unwrap();
    }
}

#[test]
fn record_size_equal_to_block_size() {
    let v = vol();
    let pf = ParallelFile::create(&v, "rb", Organization::Sequential, BS, 1).unwrap();
    let mut w = pf.global_writer();
    for i in 0..16u64 {
        w.write_record(&vec![i as u8 + 1; BS]).unwrap();
    }
    w.finish().unwrap();
    let n = pf
        .global_reader()
        .for_each(|i, b| assert!(b.iter().all(|&x| x == i as u8 + 1)))
        .unwrap();
    assert_eq!(n, 16);
}

#[test]
fn interleaved_single_process_degenerates_to_sequential() {
    let v = vol();
    let org = Organization::InterleavedSeq { processes: 1 };
    let pf = ParallelFile::create(&v, "is1", org, 64, 4).unwrap();
    let mut h = pf.interleaved_handle(0).unwrap();
    for i in 0..12u64 {
        h.write_next(&[i as u8; 64]).unwrap();
    }
    let mut g = pf.global_reader();
    let mut buf = vec![0u8; 64];
    let mut i = 0u64;
    while g.read_record(&mut buf).unwrap() {
        assert!(buf.iter().all(|&b| b == i as u8));
        i += 1;
    }
    assert_eq!(i, 12);
}

#[test]
fn forced_partition_view_on_short_file() {
    // Fewer records than partitions: forced views must not panic and
    // must still cover everything exactly once.
    let v = vol();
    let pf = ParallelFile::create(&v, "short", Organization::Sequential, 64, 4).unwrap();
    let mut w = pf.global_writer();
    for i in 0..3u64 {
        w.write_record(&[i as u8; 64]).unwrap();
    }
    w.finish().unwrap();
    let mut seen = 0;
    for p in 0..5 {
        let mut h = views::force_partition(&pf, p, 5).unwrap();
        let mut buf = vec![0u8; 64];
        while h.read_next(&mut buf).unwrap().is_some() {
            seen += 1;
        }
    }
    assert_eq!(seen, 3);
}

#[test]
fn self_sched_writer_after_reopen_appends() {
    let v = vol();
    {
        let pf = ParallelFile::create(&v, "log", Organization::SelfScheduledSeq, 64, 4).unwrap();
        let w = pf.self_sched_writer().unwrap();
        for _ in 0..5 {
            w.write_next(&[1u8; 64]).unwrap();
        }
        w.finish().unwrap();
    }
    // A new program run appends after the existing records.
    let pf = ParallelFile::open(&v, "log").unwrap();
    let w = pf.self_sched_writer().unwrap();
    let idx = w.write_next(&[2u8; 64]).unwrap();
    assert_eq!(idx, 5);
    w.finish().unwrap();
    assert_eq!(pf.len_records(), 6);
}

#[test]
fn zero_sized_create_sized_for_partitioned() {
    let v = vol();
    let org = Organization::PartitionedSeq { partitions: 2 };
    let pf = ParallelFile::create_sized(&v, "z", org, 64, 4, 0).unwrap();
    assert_eq!(pf.len_records(), 0);
    for p in 0..2 {
        assert_eq!(pf.partition_handle(p).unwrap().range(), (0, 0));
    }
}
