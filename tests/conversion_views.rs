//! Integration: the paper's three answers to internal-view mismatch all
//! preserve content — adapters, global views, and conversion utilities —
//! across every pair of organizations.

use pario::core::{convert, convert_parallel, views, Organization, ParallelFile};
use pario::fs::{Volume, VolumeConfig};
use pario::workloads::record_payload;

const RECORD: usize = 128;
const RPB: usize = 4;
const TOTAL: u64 = 96;

fn vol() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 4096,
        block_size: 512,
    })
    .unwrap()
}

fn make(v: &Volume, name: &str, org: Organization) -> ParallelFile {
    let pf = ParallelFile::create_sized(v, name, org, RECORD, RPB, TOTAL).unwrap();
    let mut w = pario::fs::GlobalWriter::truncate(pf.raw().clone()).unwrap();
    for i in 0..TOTAL {
        w.write_record(&record_payload(i, RECORD)).unwrap();
    }
    w.finish().unwrap();
    pf
}

fn all_orgs() -> Vec<Organization> {
    vec![
        Organization::Sequential,
        Organization::PartitionedSeq { partitions: 3 },
        Organization::InterleavedSeq { processes: 3 },
        Organization::SelfScheduledSeq,
        Organization::GlobalDirect,
        Organization::PartitionedDirect { partitions: 3 },
    ]
}

#[test]
fn convert_every_pair() {
    let v = vol();
    for (i, src_org) in all_orgs().into_iter().enumerate() {
        let src = make(&v, &format!("src{i}"), src_org);
        for (j, dst_org) in all_orgs().into_iter().enumerate() {
            let name = format!("dst{i}-{j}");
            let dst = convert(&v, &src, &name, dst_org).unwrap();
            assert_eq!(dst.organization(), dst_org);
            assert_eq!(dst.len_records(), TOTAL);
            let mut r = dst.global_reader();
            let mut buf = vec![0u8; RECORD];
            let mut k = 0u64;
            while r.read_record(&mut buf).unwrap() {
                assert_eq!(
                    buf,
                    record_payload(k, RECORD),
                    "{src_org}->{dst_org} rec {k}"
                );
                k += 1;
            }
            assert_eq!(k, TOTAL);
            v.remove(&name).unwrap();
        }
        v.remove(&format!("src{i}")).unwrap();
    }
}

#[test]
fn parallel_conversion_equals_sequential() {
    let v = vol();
    let src = make(&v, "src", Organization::PartitionedSeq { partitions: 3 });
    let a = convert(&v, &src, "a", Organization::InterleavedSeq { processes: 4 }).unwrap();
    let b = convert_parallel(
        &v,
        &src,
        "b",
        Organization::InterleavedSeq { processes: 4 },
        4,
    )
    .unwrap();
    let mut ra = a.global_reader();
    let mut rb = b.global_reader();
    let mut ba = vec![0u8; RECORD];
    let mut bb = vec![0u8; RECORD];
    loop {
        let xa = ra.read_record(&mut ba).unwrap();
        let xb = rb.read_record(&mut bb).unwrap();
        assert_eq!(xa, xb);
        if !xa {
            break;
        }
        assert_eq!(ba, bb);
    }
}

#[test]
fn forced_views_cover_everything_once() {
    let v = vol();
    // A PS file consumed through forced IS views and vice versa.
    let ps = make(&v, "ps", Organization::PartitionedSeq { partitions: 3 });
    let mut seen = vec![false; TOTAL as usize];
    for p in 0..4 {
        let mut h = views::force_interleaved(&ps, p, 4).unwrap();
        let mut buf = vec![0u8; RECORD];
        while let Some(idx) = h.read_next(&mut buf).unwrap() {
            assert_eq!(buf, record_payload(idx, RECORD));
            assert!(!std::mem::replace(&mut seen[idx as usize], true));
        }
    }
    assert!(seen.iter().all(|&s| s));

    let is = make(&v, "is", Organization::InterleavedSeq { processes: 4 });
    let mut count = 0u64;
    for p in 0..3 {
        let mut h = views::force_partition(&is, p, 3).unwrap();
        let (lo, _) = h.range();
        let mut buf = vec![0u8; RECORD];
        while let Some(r) = h.read_next(&mut buf).unwrap() {
            assert_eq!(buf, record_payload(r, RECORD));
            assert_eq!(r, lo + h.position() - 1);
            count += 1;
        }
    }
    assert_eq!(count, TOTAL);
}

#[test]
fn conversion_chain_is_lossless() {
    // S -> PS -> IS -> GDA -> SS -> PDA -> S: content unchanged.
    let v = vol();
    let mut cur = make(&v, "chain0", Organization::Sequential);
    let chain = [
        Organization::PartitionedSeq { partitions: 2 },
        Organization::InterleavedSeq { processes: 4 },
        Organization::GlobalDirect,
        Organization::SelfScheduledSeq,
        Organization::PartitionedDirect { partitions: 4 },
        Organization::Sequential,
    ];
    for (i, org) in chain.into_iter().enumerate() {
        cur = convert(&v, &cur, &format!("chain{}", i + 1), org).unwrap();
    }
    let mut r = cur.global_reader();
    let mut buf = vec![0u8; RECORD];
    let mut k = 0u64;
    while r.read_record(&mut buf).unwrap() {
        assert_eq!(buf, record_payload(k, RECORD));
        k += 1;
    }
    assert_eq!(k, TOTAL);
}
