//! E11 — §5 reliability: the MTBF arithmetic, parity survival of a
//! single drive failure, single-bit error correction, parity's
//! inapplicability to independently-updated layouts, shadowing's cost,
//! and the partial-rollback consistency trap.

use std::sync::Arc;

use pario_bench::banner;
use pario_bench::table::{save_json, Table};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::{FileSpec, HealthState, Volume, VolumeConfig};
use pario_layout::LayoutSpec;
use pario_reliability as rel;

const BS: usize = 1024;

fn mtbf_table() {
    println!("(1) System MTBF, 30,000 h per device (paper's §5 numbers):");
    let mut t = Table::new(&[
        "devices",
        "system MTBF (h)",
        "failures/year",
        "days between",
        "Monte-Carlo MTTF (h)",
    ]);
    for row in rel::paper_table(&[1, 10, 100]) {
        let mc = rel::monte_carlo_mttf(rel::PAPER_DEVICE_MTBF_HOURS, row.devices, 3000, 7);
        t.row(&[
            row.devices.to_string(),
            format!("{:.0}", row.system_mtbf_hours),
            format!("{:.2}", row.failures_per_year),
            format!("{:.1}", row.days_between_failures),
            format!("{mc:.0}"),
        ]);
    }
    t.print();
    save_json("e11_mtbf", &t);
    println!(
        "-> 10 devices fail every ~3,000 h (\"about 3 times per year\"); \
         100 devices more than once every two weeks.\n"
    );
}

fn parity_survives_failure() {
    println!("(2) Parity striping survives a complete drive failure:");
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 5,
        device_blocks: 512,
        block_size: BS,
    })
    .unwrap();
    let f = v
        .create_file(FileSpec::new(
            "data",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 4,
                rotated: true,
            },
        ))
        .unwrap();
    for r in 0..64u64 {
        f.write_record(r, &vec![(r + 1) as u8; BS]).unwrap();
    }
    let writes_after_fill: u64 = (0..5).map(|d| v.device(d).counters().writes).sum();
    v.device(2).fail();
    let mut buf = vec![0u8; BS];
    let mut ok = 0;
    for r in 0..64u64 {
        f.read_record(r, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == (r + 1) as u8));
        ok += 1;
    }
    println!("   drive 2 failed: all {ok}/64 records readable (degraded XOR reads)");
    v.device(2).heal();
    let zero = vec![0u8; BS];
    for b in 0..v.device(2).num_blocks() {
        v.device(2).write_block(b, &zero).unwrap();
    }
    let report = rel::rebuild_device(&v, 2, rel::RebuildThrottle::UNBOUNDED).unwrap();
    let rebuilt = report.parity_rebuilt[0].1;
    assert_eq!(v.device_health(2), HealthState::Healthy);
    assert!(!v.is_degraded());
    println!("   replacement drive rebuilt: {rebuilt} blocks reconstructed by XOR, device Healthy");
    for r in 0..64u64 {
        f.read_record(r, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == (r + 1) as u8));
    }
    println!("   post-rebuild verification: exact");
    // RMW write amplification: each logical write = 1 data write + 1
    // parity write (+ 2 reads).
    println!(
        "   parity write cost: {} device writes for 64 logical writes \
         (2x amplification + read-modify-write reads)\n",
        writes_after_fill
    );
}

fn bit_error_corrected() {
    println!("(3) Single-bit error: detected by checksums, corrected by parity:");
    // Keep typed handles to the raw media so a bit can be flipped UNDER
    // the checksum layer (true media corruption).
    let raw: Vec<Arc<MemDisk>> = (0..4)
        .map(|i| Arc::new(MemDisk::named(&format!("m{i}"), 512, BS)))
        .collect();
    let wrapped: Vec<DeviceRef> = raw
        .iter()
        .map(|m| Arc::new(rel::ChecksumDevice::new(Arc::clone(m) as DeviceRef)) as DeviceRef)
        .collect();
    let v = Volume::new(wrapped).unwrap();
    let f = v
        .create_file(FileSpec::new(
            "data",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: false,
            },
        ))
        .unwrap();
    for r in 0..12u64 {
        f.write_record(r, &vec![(r + 10) as u8; BS]).unwrap();
    }
    let meta = f.meta_snapshot();
    let abs = pario_fs::resolve(&meta.extents[1], 2);
    raw[1].corrupt_bit(abs, 4242);
    println!("   flipped bit 4242 of device 1, block {abs}");
    let mut buf = vec![0u8; BS];
    // Record 7 (stripe 2, position 1) lives on that block.
    f.read_record(7, &mut buf).unwrap();
    assert!(buf.iter().all(|&b| b == 17));
    println!(
        "   read of the affected record: checksum flagged corruption, \
         parity reconstruction returned the exact data\n"
    );
}

fn stale_parity_for_independent_updates() {
    println!("(4) Parity is NOT applicable to independently-accessed layouts:");
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: BS,
    })
    .unwrap();
    let f = v
        .create_file(FileSpec::new(
            "ps-style",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: false,
            },
        ))
        .unwrap();
    for r in 0..24u64 {
        f.write_record(r, &vec![1u8; BS]).unwrap();
    }
    // PS/IS-style independent access: processes write "their" device
    // directly, skipping the cross-device parity RMW (which would
    // serialise them — defeating the point of independent access).
    f.write_device_block(0, 3, &vec![9u8; BS]).unwrap();
    f.write_device_block(1, 5, &vec![9u8; BS]).unwrap();
    let bad = rel::scrub(&f).unwrap();
    println!(
        "   two independent per-device updates bypassing parity RMW -> \
         scrub flags stripes {bad:?} as unprotected"
    );
    println!(
        "   (maintaining parity would serialise the independent writers \
         through a stripe lock: the paper's reason it \"does not appear \
         to be applicable\")\n"
    );
}

fn shadow_cost_and_recovery() {
    println!("(5) Shadowing: instant recovery, doubled hardware and writes:");
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: BS,
    })
    .unwrap();
    let f = v
        .create_file(FileSpec::new(
            "sh",
            BS,
            1,
            LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                devices: 2,
                unit: 1,
            })),
        ))
        .unwrap();
    for r in 0..32u64 {
        f.write_record(r, &vec![(r + 1) as u8; BS]).unwrap();
    }
    let writes: u64 = (0..4).map(|d| v.device(d).counters().writes).sum();
    println!("   32 logical writes -> {writes} device writes (2x, every block mirrored)");
    v.device(0).fail();
    let mut buf = vec![0u8; BS];
    for r in 0..32u64 {
        f.read_record(r, &mut buf).unwrap();
    }
    println!("   primary drive failed: all reads served by shadows, zero rebuild needed");
    let report = rel::rebuild_device(&v, 0, rel::RebuildThrottle::UNBOUNDED).unwrap();
    let n = report.shadow_resynced[0].1;
    assert_eq!(v.device_health(0), HealthState::Healthy);
    assert!(!v.is_degraded());
    println!("   replacement re-synced from mirror: {n} blocks copied, device Healthy\n");
}

fn rollback_consistency() {
    println!("(6) Restoring one drive from backup tears consistency:");
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: BS,
    })
    .unwrap();
    let f = v
        .create_file(FileSpec::new(
            "p",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: true,
            },
        ))
        .unwrap();
    for r in 0..24u64 {
        f.write_record(r, &vec![3u8; BS]).unwrap();
    }
    let backups: Vec<Vec<u8>> = (0..4)
        .map(|d| rel::snapshot_device(&v.device(d)).unwrap())
        .collect();
    for r in 0..24u64 {
        f.write_record(r, &vec![4u8; BS]).unwrap();
    }
    rel::restore_device(&v.device(1), &backups[1]).unwrap();
    let torn = rel::scrub(&f).unwrap();
    println!(
        "   device 1 alone restored from backup: {} stripes torn",
        torn.len()
    );
    for d in [0usize, 2, 3] {
        rel::restore_device(&v.device(d), &backups[d]).unwrap();
    }
    let after = rel::scrub(&f).unwrap();
    println!(
        "   all devices rolled back to the same point: {} stripes torn — \
         \"all of the disks will have to be rolled back\"\n",
        after.len()
    );
    assert!(after.is_empty());
}

fn failure_campaign() {
    println!("(7) One simulated year of exponential failures (seeded):");
    let mut t = Table::new(&[
        "devices",
        "failures in 1 yr (seed 1)",
        "(seed 2)",
        "(seed 3)",
    ]);
    for devices in [10usize, 100] {
        let counts: Vec<String> = (1..=3)
            .map(|seed| {
                rel::failure_schedule(devices, rel::PAPER_DEVICE_MTBF_HOURS, 8760.0, seed)
                    .len()
                    .to_string()
            })
            .collect();
        t.row(&[
            devices.to_string(),
            counts[0].clone(),
            counts[1].clone(),
            counts[2].clone(),
        ]);
    }
    t.print();
    save_json("e11_campaign", &t);
}

fn main() {
    banner(
        "E11 (reliability)",
        "MTBF falls linearly with device count; parity rides out one \
         failed drive (striped layouts only); shadowing doubles cost; \
         partial restores tear consistency",
    );
    mtbf_table();
    parity_survives_failure();
    bit_error_corrected();
    stale_parity_for_independent_updates();
    shadow_cost_and_recovery();
    rollback_consistency();
    failure_campaign();
}
