//! Partition enforcement through the service layer (PS and PDA): an
//! access outside a session's claimed partition fails with the view's
//! typed `CoreError::OutsideView` naming the exact boundaries — never a
//! silent write into a neighbour's blocks.

use pario_core::{CoreError, Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};
use pario_server::{Server, ServerConfig, ServerError, View};

const REC: usize = 64;

fn server_with(org: Organization, total: u64) -> Server {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: 256,
    })
    .unwrap();
    // 64-byte records, 4 per file block: a file block is one volume block.
    ParallelFile::create_sized(&volume, "part", org, REC, 4, total).unwrap();
    Server::new(volume, ServerConfig::default())
}

/// 160 records over 3 partitions (40 file blocks -> 14/13/13) gives the
/// ranges [0,56), [56,108), [108,160).
fn ps_server() -> Server {
    server_with(Organization::PartitionedSeq { partitions: 3 }, 160)
}

#[test]
fn partition_ranges_match_the_uniform_split() {
    let server = ps_server();
    let sess = server.connect();
    let ranges: Vec<(u64, u64)> = (0..3)
        .map(|p| sess.open("part", View::Partition(p)).unwrap().range())
        .collect();
    assert_eq!(ranges, vec![(0, 56), (56, 108), (108, 160)]);
}

#[test]
fn direct_access_rejected_at_exact_partition_boundaries() {
    let server = ps_server();
    let sess = server.connect();
    let client = sess.open("part", View::Partition(1)).unwrap();
    let mut buf = [0u8; REC];

    // One record below the partition: rejected, boundaries spelled out
    // (a partition is one piece of 52 records).
    match client.read_record(55, &mut buf) {
        Err(ServerError::Core(CoreError::OutsideView {
            record,
            start,
            end,
            piece,
            stride,
        })) => {
            assert_eq!((record, start, end, piece, stride), (55, 56, 108, 52, 52));
        }
        other => panic!("expected OutsideView, got {other:?}"),
    }
    // First record past the partition: rejected the same way.
    match client.write_record(108, &[7; REC]) {
        Err(ServerError::Core(CoreError::OutsideView {
            record,
            start,
            end,
            piece,
            stride,
        })) => {
            assert_eq!((record, start, end, piece, stride), (108, 56, 108, 52, 52));
        }
        other => panic!("expected OutsideView, got {other:?}"),
    }
    // Both inclusive edges work.
    client.write_record(56, &[1; REC]).unwrap();
    client.write_record(107, &[2; REC]).unwrap();
    client.read_record(56, &mut buf).unwrap();
    assert_eq!(buf, [1; REC]);
    client.read_record(107, &mut buf).unwrap();
    assert_eq!(buf, [2; REC]);
    // The neighbour owns its boundary record and sees only its own data.
    let probe = sess.open("part", View::Partition(2)).unwrap();
    probe.write_record(108, &[9; REC]).unwrap();
    probe.read_record(108, &mut buf).unwrap();
    assert_eq!(buf, [9; REC]);
    client.read_record(107, &mut buf).unwrap();
    assert_eq!(buf, [2; REC], "neighbour write crossed the boundary");
}

#[test]
fn sequential_writer_cannot_spill_into_neighbour() {
    let server = ps_server();
    let sess = server.connect();
    let mut client = sess.open("part", View::Partition(0)).unwrap();
    for i in 0..56u64 {
        client.write_next(&[i as u8; REC]).unwrap();
    }
    // Partition full: the 57th write is a typed refusal at the boundary.
    match client.write_next(&[99; REC]) {
        Err(ServerError::Core(CoreError::OutsideView {
            record,
            start,
            end,
            piece,
            stride,
        })) => {
            assert_eq!((record, start, end, piece, stride), (56, 0, 56, 56, 56));
        }
        other => panic!("expected OutsideView, got {other:?}"),
    }
    // Reads stop at the boundary rather than erroring.
    client.rewind().unwrap();
    let mut buf = [0u8; REC];
    let mut n = 0u64;
    while client.read_next(&mut buf).unwrap().is_some() {
        assert_eq!(buf, [n as u8; REC]);
        n += 1;
    }
    assert_eq!(n, 56);
}

#[test]
fn pda_direct_access_enforced_too() {
    let server = server_with(Organization::PartitionedDirect { partitions: 4 }, 128);
    let sess = server.connect();
    // 32 file blocks over 4 partitions: each owns 32 records.
    let client = sess.open("part", View::Partition(2)).unwrap();
    assert_eq!(client.range(), (64, 96));
    // Random access within the partition is free.
    for r in [95u64, 64, 80] {
        client.write_record(r, &[r as u8; REC]).unwrap();
    }
    let mut buf = [0u8; REC];
    client.read_record(80, &mut buf).unwrap();
    assert_eq!(buf, [80; REC]);
    // Outside it — either side — is typed.
    assert!(matches!(
        client.read_record(63, &mut buf),
        Err(ServerError::Core(CoreError::OutsideView {
            record: 63,
            start: 64,
            end: 96,
            piece: 32,
            stride: 32,
        }))
    ));
    assert!(matches!(
        client.write_record(96, &[0; REC]),
        Err(ServerError::Core(CoreError::OutsideView {
            record: 96,
            start: 64,
            end: 96,
            piece: 32,
            stride: 32,
        }))
    ));
}

#[test]
fn partition_claims_are_exclusive_until_dropped() {
    let server = ps_server();
    let a = server.connect();
    let b = server.connect();
    let held = a.open("part", View::Partition(1)).unwrap();
    // Another session cannot claim partition 1...
    match b.open("part", View::Partition(1)).err() {
        Some(ServerError::Claimed { name, index, by }) => {
            assert_eq!((name.as_str(), index, by), ("part", 1, a.id()));
        }
        other => panic!("expected Claimed, got {other:?}"),
    }
    // ...but a different partition is free.
    let other = b.open("part", View::Partition(0)).unwrap();
    drop(other);
    // Dropping the holder releases the claim.
    drop(held);
    let reclaimed = b.open("part", View::Partition(1)).unwrap();
    assert_eq!(reclaimed.view(), View::Partition(1));
}

#[test]
fn rejected_accesses_do_not_count_as_operations() {
    let server = ps_server();
    let sess = server.connect();
    let client = sess.open("part", View::Partition(1)).unwrap();
    let mut buf = [0u8; REC];
    let _ = client.read_record(0, &mut buf); // outside: refused pre-admission
    client.write_record(60, &[5; REC]).unwrap();
    client.read_record(60, &mut buf).unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.total_admitted, 2,
        "refused access must not be admitted"
    );
}
