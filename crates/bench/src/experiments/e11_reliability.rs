//! E11 — §5 reliability: the MTBF arithmetic, parity survival of a
//! single drive failure, single-bit error correction, parity's
//! inapplicability to independently-updated layouts, shadowing's cost,
//! and the partial-rollback consistency trap.

use std::sync::Arc;

use pario_disk::{DeviceRef, MemDisk};
use pario_fs::{FileSpec, HealthState, RawFile, Volume};
use pario_layout::LayoutSpec;
use pario_reliability as rel;
use pario_sim::failure;

use crate::rig::{mirrored, Rig};
use crate::table::Table;
use crate::{Report, Size};

const BS: usize = 1024;

/// A fresh volume of `devices` memory devices holding one file, "f",
/// laid out as `layout`.
fn volume_with(devices: usize, layout: LayoutSpec) -> (Volume, RawFile) {
    let v = Rig::new(devices).blocks(512).block_size(BS).volume();
    let f = v.create_file(FileSpec::new("f", BS, 1, layout)).unwrap();
    (v, f)
}

fn parity(data_devices: usize, rotated: bool) -> LayoutSpec {
    LayoutSpec::Parity {
        data_devices,
        rotated,
    }
}

/// Whether records `0..n` read back as `byte(r)` each.
fn reads_back(f: &RawFile, n: u64, byte: impl Fn(u64) -> u8) -> bool {
    let mut buf = vec![0u8; BS];
    (0..n).all(|r| f.read_record(r, &mut buf).is_ok() && buf.iter().all(|&b| b == byte(r)))
}

fn mtbf_table(r: &mut Report) {
    r.note("(1) System MTBF, 30,000 h per device (paper's §5 numbers):");
    let mut t = Table::new(&[
        "devices",
        "system MTBF (h)",
        "failures/year",
        "days between",
        "Monte-Carlo MTTF (h)",
    ]);
    for row in failure::paper_table(&[1, 10, 100]) {
        let mc = failure::monte_carlo_mttf(failure::PAPER_DEVICE_MTBF_HOURS, row.devices, 3000, 7);
        t.row(&[
            row.devices.to_string(),
            format!("{:.0}", row.system_mtbf_hours),
            format!("{:.2}", row.failures_per_year),
            format!("{:.1}", row.days_between_failures),
            format!("{mc:.0}"),
        ]);
    }
    r.table("e11_mtbf", t).note(
        "-> 10 devices fail every ~3,000 h (\"about 3 times per year\"); \
         100 devices more than once every two weeks.\n",
    );
}

fn parity_survives_failure(r: &mut Report) {
    r.note("(2) Parity striping survives a complete drive failure:");
    let (v, f) = volume_with(5, parity(4, true));
    for rec in 0..64u64 {
        f.write_record(rec, &vec![(rec + 1) as u8; BS]).unwrap();
    }
    let writes_after_fill: u64 = (0..5).map(|d| v.device(d).counters().writes).sum();
    v.device(2).fail();
    let byte = |rec: u64| (rec + 1) as u8;
    r.check(
        "E11 drive 2 failed: all 64 records read back (degraded XOR reads)",
        reads_back(&f, 64, byte),
    );
    v.device(2).heal();
    let zero = vec![0u8; BS];
    for b in 0..v.device(2).num_blocks() {
        v.device(2).write_block(b, &zero).unwrap();
    }
    let report = rel::rebuild_device(&v, 2, rel::RebuildThrottle::UNBOUNDED).unwrap();
    let rebuilt = report.parity_rebuilt[0].1;
    r.check(
        format!(
            "E11 replacement drive rebuilt: {rebuilt} blocks reconstructed by XOR, device Healthy"
        ),
        v.device_health(2) == HealthState::Healthy && !v.is_degraded(),
    )
    .check(
        "E11 post-rebuild verification: exact",
        reads_back(&f, 64, byte),
    );
    // RMW write amplification: each logical write = 1 data write + 1
    // parity write (+ 2 reads).
    r.note(format!(
        "   parity write cost: {writes_after_fill} device writes for 64 logical writes \
         (2x amplification + read-modify-write reads)\n"
    ));
}

fn bit_error_corrected(r: &mut Report) {
    r.note("(3) Single-bit error: detected by checksums, corrected by parity:");
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
        .create_file(FileSpec::new("data", BS, 1, parity(3, false)))
        .unwrap();
    for rec in 0..12u64 {
        f.write_record(rec, &vec![(rec + 10) as u8; BS]).unwrap();
    }
    let meta = f.meta_snapshot();
    let abs = pario_fs::resolve(&meta.extents[1], 2);
    raw[1].corrupt_bit(abs, 4242);
    r.note(format!("   flipped bit 4242 of device 1, block {abs}"));
    // Record 7 (stripe 2, position 1) lives on that block.
    let mut buf = vec![0u8; BS];
    f.read_record(7, &mut buf).unwrap();
    r.check(
        "E11 read of the flipped record: checksum flagged corruption, parity \
         reconstruction returned the exact data",
        buf.iter().all(|&b| b == 17),
    )
    .note("");
}

fn stale_parity_for_independent_updates(r: &mut Report) {
    r.note("(4) Parity is NOT applicable to independently-accessed layouts:");
    let (_v, f) = volume_with(4, parity(3, false));
    for rec in 0..24u64 {
        f.write_record(rec, &vec![1u8; BS]).unwrap();
    }
    // PS/IS-style independent access: processes write "their" device
    // directly, skipping the cross-device parity RMW (which would
    // serialise them — defeating the point of independent access).
    f.write_device_rows(0, 3, &[9u8; BS]).unwrap();
    f.write_device_rows(1, 5, &[9u8; BS]).unwrap();
    let bad = rel::scrub(&f).unwrap();
    r.note(format!(
        "   two independent per-device updates bypassing parity RMW -> \
         scrub flags stripes {bad:?} as unprotected"
    ))
    .note(
        "   (maintaining parity would serialise the independent writers \
         through a stripe lock: the paper's reason it \"does not appear \
         to be applicable\")\n",
    );
}

fn shadow_cost_and_recovery(r: &mut Report) {
    r.note("(5) Shadowing: instant recovery, doubled hardware and writes:");
    let (v, f) = volume_with(4, mirrored(2));
    for rec in 0..32u64 {
        f.write_record(rec, &vec![(rec + 1) as u8; BS]).unwrap();
    }
    let writes: u64 = (0..4).map(|d| v.device(d).counters().writes).sum();
    r.note(format!(
        "   32 logical writes -> {writes} device writes (2x, every block mirrored)"
    ));
    v.device(0).fail();
    r.check(
        "E11 primary drive failed: all reads served by shadows, zero rebuild needed",
        reads_back(&f, 32, |rec| (rec + 1) as u8),
    );
    let report = rel::rebuild_device(&v, 0, rel::RebuildThrottle::UNBOUNDED).unwrap();
    let n = report.shadow_resynced[0].1;
    r.check(
        format!("E11 replacement re-synced from mirror: {n} blocks copied, device Healthy"),
        v.device_health(0) == HealthState::Healthy && !v.is_degraded(),
    )
    .note("");
}

fn rollback_consistency(r: &mut Report) {
    r.note("(6) Restoring one drive from backup tears consistency:");
    let (v, f) = volume_with(4, parity(3, true));
    for rec in 0..24u64 {
        f.write_record(rec, &vec![3u8; BS]).unwrap();
    }
    let backups: Vec<Vec<u8>> = (0..4)
        .map(|d| rel::snapshot_device(&v.device(d)).unwrap())
        .collect();
    for rec in 0..24u64 {
        f.write_record(rec, &vec![4u8; BS]).unwrap();
    }
    rel::restore_device(&v.device(1), &backups[1]).unwrap();
    let torn = rel::scrub(&f).unwrap();
    r.note(format!(
        "   device 1 alone restored from backup: {} stripes torn",
        torn.len()
    ));
    for d in [0usize, 2, 3] {
        rel::restore_device(&v.device(d), &backups[d]).unwrap();
    }
    let after = rel::scrub(&f).unwrap();
    r.check(
        format!(
            "E11 all devices rolled back to the same point: {} stripes torn — \
             \"all of the disks will have to be rolled back\"",
            after.len()
        ),
        after.is_empty(),
    )
    .note("");
}

fn failure_campaign(r: &mut Report) {
    r.note("(7) One simulated year of exponential failures (seeded):");
    let mut t = Table::new(&[
        "devices",
        "failures in 1 yr (seed 1)",
        "(seed 2)",
        "(seed 3)",
    ]);
    for devices in [10usize, 100] {
        let counts: Vec<String> = (1..=3)
            .map(|seed| {
                failure::failure_schedule(devices, failure::PAPER_DEVICE_MTBF_HOURS, 8760.0, seed)
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
    r.table("e11_campaign", t);
}

/// The seven reliability demonstrations, in the paper's order.
pub fn run(_: Size) -> Report {
    let mut r = Report::default();
    mtbf_table(&mut r);
    parity_survives_failure(&mut r);
    bit_error_corrected(&mut r);
    stale_parity_for_independent_updates(&mut r);
    shadow_cost_and_recovery(&mut r);
    rollback_consistency(&mut r);
    failure_campaign(&mut r);
    r
}
