//! Integration: end-to-end failure and recovery across the whole stack —
//! mixed files on one volume, a drive dies, degraded service continues,
//! the replacement is rebuilt, and the unprotected file is the casualty
//! the paper predicts.

use std::sync::Arc;

use pario::core::{Organization, ParallelFile};
use pario::disk::{DeviceRef, MemDisk};
use pario::fs::{FileSpec, GlobalReader, HealthState, Volume, VolumeConfig};
use pario::layout::LayoutSpec;
use pario::reliability::{rebuild_device, scrub, ChecksumDevice, RebuildThrottle};
use pario::workloads::record_payload;

const BS: usize = 512;

#[test]
fn volume_wide_failure_and_rebuild() {
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 6,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap();

    // Three files with different protection levels, all touching device 1.
    let parity = ParallelFile::create_with_layout(
        &v,
        "parity.dat",
        Organization::GlobalDirect,
        BS,
        1,
        LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        },
        None,
    )
    .unwrap();
    let shadowed = ParallelFile::create_with_layout(
        &v,
        "shadowed.dat",
        Organization::Sequential,
        BS,
        1,
        LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
            devices: 3,
            unit: 1,
        })),
        None,
    )
    .unwrap();
    let plain = ParallelFile::create(&v, "plain.dat", Organization::Sequential, BS, 1).unwrap();

    for i in 0..30u64 {
        parity
            .raw()
            .write_record(i, &record_payload(i, BS))
            .unwrap();
        shadowed
            .raw()
            .write_record(i, &record_payload(100 + i, BS))
            .unwrap();
        plain
            .raw()
            .write_record(i, &record_payload(200 + i, BS))
            .unwrap();
    }

    // Device 1 dies. Parity + shadowed files keep serving; plain loses
    // the records striped onto it.
    v.device(1).fail();
    let mut buf = vec![0u8; BS];
    for i in 0..30u64 {
        parity.raw().read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS));
        shadowed.raw().read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(100 + i, BS));
    }
    let lost = (0..30u64)
        .filter(|&i| plain.raw().read_record(i, &mut buf).is_err())
        .count();
    assert!(lost > 0, "the unprotected file must lose records");

    // Replace device 1 with a blank drive and rebuild the volume.
    v.device(1).heal();
    let zero = vec![0u8; BS];
    for b in 0..v.device(1).num_blocks() {
        v.device(1).write_block(b, &zero).unwrap();
    }
    let report = rebuild_device(&v, 1, RebuildThrottle::default()).unwrap();
    assert_eq!(report.parity_rebuilt.len(), 1);
    assert_eq!(report.shadow_resynced.len(), 1);
    assert_eq!(report.unprotected, vec!["plain.dat".to_string()]);

    // Everything protected is exact again, directly (no degraded paths).
    assert_eq!(v.device_health(1), HealthState::Healthy);
    assert!(!v.is_degraded());
    assert!(scrub(parity.raw()).unwrap().is_empty());
    for i in 0..30u64 {
        parity.raw().read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS));
        shadowed.raw().read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(100 + i, BS));
    }
}

/// A rebuild after a failure the volume has detected leaves the device
/// `Healthy` and the volume no longer degraded: reads go straight to the
/// rebuilt device again instead of around it.
#[test]
fn rebuild_after_a_detected_failure_leaves_the_volume_healthy() {
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 256,
        block_size: BS,
    })
    .unwrap();
    let layout = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let f = v.create_file(FileSpec::new("p", BS, 1, layout)).unwrap();
    for i in 0..24u64 {
        f.write_record(i, &record_payload(i, BS)).unwrap();
    }

    v.device(1).fail();
    let mut buf = vec![0u8; BS];
    for i in 0..24u64 {
        f.read_record(i, &mut buf).unwrap();
    }
    assert_eq!(
        v.device_health(1),
        HealthState::Failed,
        "the read detected it"
    );
    assert!(v.is_degraded());

    v.device(1).heal();
    let zero = vec![0u8; BS];
    for b in 0..v.device(1).num_blocks() {
        v.device(1).write_block(b, &zero).unwrap();
    }
    let report = rebuild_device(&v, 1, RebuildThrottle::default()).unwrap();
    assert_eq!(report.parity_rebuilt.len(), 1);
    assert_eq!(v.device_health(1), HealthState::Healthy);
    assert!(!v.is_degraded());
    for i in 0..24u64 {
        f.read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS), "record {i}");
    }
}

#[test]
fn bit_rot_corrected_through_full_stack() {
    // Checksummed devices under a parity file: a flipped bit is detected
    // on read and healed by reconstruction + rewrite.
    let raw: Vec<Arc<MemDisk>> = (0..4)
        .map(|i| Arc::new(MemDisk::named(&format!("m{i}"), 1024, BS)))
        .collect();
    let wrapped: Vec<DeviceRef> = raw
        .iter()
        .map(|m| Arc::new(ChecksumDevice::new(Arc::clone(m) as DeviceRef)) as DeviceRef)
        .collect();
    let v = Volume::new(wrapped).unwrap();
    let f = v
        .create_file(FileSpec::new(
            "d",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: false,
            },
        ))
        .unwrap();
    for i in 0..30u64 {
        f.write_record(i, &record_payload(i, BS)).unwrap();
    }
    // Corrupt several bits on different devices/blocks.
    let meta = f.meta_snapshot();
    for (slot, dblock, bit) in [(0usize, 1u64, 7usize), (1, 4, 1000), (2, 9, 3)] {
        let abs = pario::fs::resolve(&meta.extents[slot], dblock);
        raw[slot].corrupt_bit(abs, bit);
    }
    let mut buf = vec![0u8; BS];
    for i in 0..30u64 {
        f.read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS), "record {i}");
    }
    // Scrub-and-repair heals the corrupt blocks in place.
    let repaired = pario::reliability::repair(&f).unwrap();
    assert_eq!(repaired, 3);
    assert!(scrub(&f).unwrap().is_empty());
    // Direct (non-degraded) reads now succeed everywhere.
    for i in 0..30u64 {
        f.read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS), "repaired record {i}");
    }
}

#[test]
fn concurrent_writers_during_failure() {
    // Writers keep writing while a device is down; after heal+rebuild,
    // all their data is present.
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap();
    let f = Arc::new(
        v.create_file(FileSpec::new(
            "hot",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: true,
            },
        ))
        .unwrap(),
    );
    f.ensure_capacity_records(64).unwrap();
    v.device(2).fail();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let f = Arc::clone(&f);
            s.spawn(move || {
                for k in 0..16u64 {
                    let i = t * 16 + k;
                    f.write_record(i, &record_payload(i, BS)).unwrap();
                }
            });
        }
    });
    // Degraded reads see everything.
    let mut buf = vec![0u8; BS];
    for i in 0..64u64 {
        f.read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS), "degraded record {i}");
    }
    // Heal, blank, rebuild, verify directly.
    v.device(2).heal();
    let zero = vec![0u8; BS];
    for b in 0..v.device(2).num_blocks() {
        v.device(2).write_block(b, &zero).unwrap();
    }
    rebuild_device(&v, 2, RebuildThrottle::UNBOUNDED).unwrap();
    assert_eq!(v.device_health(2), HealthState::Healthy);
    assert!(!v.is_degraded());
    assert!(scrub(&f).unwrap().is_empty());
    for i in 0..64u64 {
        f.read_record(i, &mut buf).unwrap();
        assert_eq!(buf, record_payload(i, BS), "rebuilt record {i}");
    }
}

/// Run-ahead allocation under redundancy. A parity file and a shadowed
/// file appended one block at a time own zero-filled blocks past their
/// last record; all-zero stripes and all-zero pairs satisfy the parity
/// and shadow invariants, so a failure, degraded appends into the tail,
/// `scrub` and a rebuild onto garbage media are correct across
/// it — they walk `nblocks`, not the length. The rebuild runs with a
/// sequential reader parked on each file, its next window read ahead:
/// an idle stream holds nothing `quiesce_io` waits for.
#[test]
fn appended_files_fail_and_rebuild_across_their_unwritten_tails() {
    const WRITTEN: u64 = 300;
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 6,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap();
    let parity_layout = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let shadow_layout = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 3,
        unit: 1,
    }));
    let parity = v
        .create_file(FileSpec::new("parity", BS, 1, parity_layout))
        .unwrap();
    let shadowed = v
        .create_file(FileSpec::new("shadowed", BS, 1, shadow_layout))
        .unwrap();
    let files = [(&parity, 0u64), (&shadowed, 1000)];
    for i in 0..WRITTEN {
        for (f, tag) in files {
            f.write_record(i, &record_payload(tag + i, BS)).unwrap();
        }
    }
    for (f, _) in files {
        assert!(f.nblocks() > WRITTEN + 100, "{}: no tail", f.name());
    }
    assert!(scrub(&parity).unwrap().is_empty());

    // Every record, and every unwritten block as zeros, whichever
    // device the read has to do without.
    let check = |written: u64, ctx: &str| {
        let mut buf = vec![0u8; BS];
        for (f, tag) in files {
            for i in 0..written {
                f.read_record(i, &mut buf).unwrap();
                assert_eq!(buf, record_payload(tag + i, BS), "{ctx}: {} {i}", f.name());
            }
            for l in written..f.nblocks() {
                f.read_span(l * BS as u64, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 0), "{ctx}: {} tail {l}", f.name());
            }
        }
    };

    v.device(1).fail();
    check(WRITTEN, "device 1 down");
    // Appends go on into the tail, degraded.
    for i in WRITTEN..WRITTEN + 20 {
        for (f, tag) in files {
            f.write_record(i, &record_payload(tag + i, BS)).unwrap();
        }
    }
    check(WRITTEN + 20, "device 1 down, appended");

    // The replacement drive arrives full of garbage: the tail's zeros
    // have to be rebuilt like any other block.
    v.device(1).heal();
    let garbage = vec![0xEEu8; BS];
    for b in 0..v.device(1).num_blocks() {
        v.device(1).write_block(b, &garbage).unwrap();
    }
    v.device(1).fail();
    // A window and a record: the second window is the reader's, the
    // third is read ahead, and there the reader stays.
    let parked = files.map(|(f, tag)| {
        let (mut reader, mut buf) = (GlobalReader::new(f.clone()), vec![0u8; BS]);
        for i in 0..33 {
            assert!(reader.read_record(&mut buf).unwrap());
            assert_eq!(buf, record_payload(tag + i, BS));
        }
        (reader, tag)
    });
    let report = rebuild_device(&v, 1, RebuildThrottle::default()).unwrap();
    assert_eq!(report.parity_rebuilt.len(), 1);
    assert_eq!(report.shadow_resynced.len(), 1);
    assert_eq!(v.device_health(1), HealthState::Healthy);
    assert!(!v.is_degraded());
    assert!(scrub(&parity).unwrap().is_empty());
    check(WRITTEN + 20, "rebuilt");
    for (mut reader, tag) in parked {
        let rest = reader
            .for_each(|i, bytes| assert_eq!(bytes, record_payload(tag + i, BS), "record {i}"))
            .unwrap();
        assert_eq!(rest, WRITTEN + 20 - 33);
    }

    // What was rebuilt is now what the survivors lean on: lose a parity
    // peer of device 1, and its mirror partner.
    v.device(2).fail();
    v.device(4).fail();
    check(WRITTEN + 20, "rebuilt device 1 serving degraded reads");
}
