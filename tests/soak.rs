//! Soak: one volume, every organization active at once from concurrent
//! threads — the "mix of sequential and parallel programs" environment
//! the paper's §2 assumes — followed by whole-volume verification and a
//! persistence cycle.

use pario::core::{Organization, ParallelFile};
use pario::disk::{DeviceRef, FileDisk};
use pario::fs::Volume;
use pario::workloads::record_payload;

const RECORD: usize = 128;
const RPB: usize = 4;

fn device_paths() -> Vec<std::path::PathBuf> {
    (0..4)
        .map(|i| {
            let mut p = std::env::temp_dir();
            p.push(format!("pario-soak-{}-{i}.img", std::process::id()));
            p
        })
        .collect()
}

#[test]
fn all_organizations_concurrently_on_one_volume() {
    let paths = device_paths();
    let open = |create: bool| -> Vec<DeviceRef> {
        paths
            .iter()
            .map(|p| {
                let d = if create {
                    FileDisk::create(p, 2048, 512).unwrap()
                } else {
                    FileDisk::open(p, 512).unwrap()
                };
                std::sync::Arc::new(d) as DeviceRef
            })
            .collect()
    };

    {
        let v = Volume::new(open(true)).unwrap();
        let s = ParallelFile::create(&v, "s", Organization::Sequential, RECORD, RPB).unwrap();
        let ps = ParallelFile::create_sized(
            &v,
            "ps",
            Organization::PartitionedSeq { partitions: 4 },
            RECORD,
            RPB,
            64,
        )
        .unwrap();
        let is = ParallelFile::create(
            &v,
            "is",
            Organization::InterleavedSeq { processes: 4 },
            RECORD,
            RPB,
        )
        .unwrap();
        let ss =
            ParallelFile::create(&v, "ss", Organization::SelfScheduledSeq, RECORD, RPB).unwrap();
        let gda = ParallelFile::create(&v, "gda", Organization::GlobalDirect, RECORD, RPB).unwrap();
        let pda = ParallelFile::create_sized(
            &v,
            "pda",
            Organization::PartitionedDirect { partitions: 4 },
            RECORD,
            RPB,
            64,
        )
        .unwrap();

        // Everything at once: 4 PS writers, 4 IS writers, 3 SS producers,
        // 2 GDA writers, 4 PDA writers, and an S streamer — 18 threads on
        // one volume.
        std::thread::scope(|scope| {
            for p in 0..4u32 {
                let mut h = ps.partition_handle(p).unwrap();
                scope.spawn(move || {
                    let (lo, hi) = h.range();
                    for g in lo..hi {
                        h.write_next(&record_payload(g, RECORD)).unwrap();
                    }
                });
                let mut h = is.interleaved_handle(p).unwrap();
                scope.spawn(move || {
                    for k in 0..4u64 {
                        let fb = u64::from(p) + k * 4;
                        for c in 0..RPB as u64 {
                            h.write_next(&record_payload(1000 + fb * RPB as u64 + c, RECORD))
                                .unwrap();
                        }
                    }
                });
                let h = pda.partition_handle(p).unwrap();
                scope.spawn(move || {
                    let (lo, hi) = h.range();
                    for r in (lo..hi).rev() {
                        h.write_record(r, &record_payload(2000 + r, RECORD))
                            .unwrap();
                    }
                });
            }
            for _ in 0..3 {
                let w = ss.self_sched_writer().unwrap();
                scope.spawn(move || {
                    for _ in 0..10 {
                        w.write_next(&[7u8; RECORD]).unwrap();
                    }
                });
            }
            for t in 0..2u64 {
                let h = gda.direct_handle().unwrap();
                scope.spawn(move || {
                    for k in 0..16u64 {
                        let i = t * 16 + k;
                        h.write_record(i, &record_payload(3000 + i, RECORD))
                            .unwrap();
                    }
                });
            }
            let s_raw = s.raw().clone();
            scope.spawn(move || {
                let mut w = pario::fs::GlobalWriter::append(s_raw);
                for i in 0..48u64 {
                    w.write_record(&record_payload(4000 + i, RECORD)).unwrap();
                }
                w.finish().unwrap();
            });
        });
        ss.self_sched_writer().unwrap().finish().unwrap();
        v.sync_meta().unwrap();
    }

    // Remount and verify every file.
    let v = Volume::mount(open(false)).unwrap();
    assert_eq!(v.list().len(), 6);
    let check = |name: &str, base: u64, n: u64| {
        let pf = ParallelFile::open(&v, name).unwrap();
        assert_eq!(pf.len_records(), n, "{name} length");
        let mut r = pf.global_reader();
        let mut buf = vec![0u8; RECORD];
        let mut i = 0u64;
        while r.read_record(&mut buf).unwrap() {
            assert_eq!(buf, record_payload(base + i, RECORD), "{name} record {i}");
            i += 1;
        }
        assert_eq!(i, n);
    };
    check("ps", 0, 64);
    check("is", 1000, 64);
    check("pda", 2000, 64);
    check("gda", 3000, 32);
    check("s", 4000, 48);
    let ss = ParallelFile::open(&v, "ss").unwrap();
    assert_eq!(ss.len_records(), 30);

    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}
