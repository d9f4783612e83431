//! Riding out a drive failure — the paper's §5 reliability machinery in
//! one sitting: parity-protected striping keeps a file readable through
//! a fail-stop, a scrub verifies stripe consistency, and a replacement
//! drive is rebuilt by XOR.
//!
//! ```sh
//! cargo run --example failure_recovery
//! ```

use pario::core::{Organization, ParallelFile};
use pario::fs::{HealthState, Volume, VolumeConfig};
use pario::layout::LayoutSpec;
use pario::reliability::{rebuild_device, scrub, RebuildThrottle};

const RECORD: usize = 1024;
const RECORDS: u64 = 64;

fn main() {
    // Four data drives + one drive's worth of rotated parity (RAID-5
    // style) — Kim's scheme, as cited by the paper.
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 5,
        device_blocks: 512,
        block_size: RECORD,
    })
    .expect("volume");
    let pf = ParallelFile::create_with_layout(
        &volume,
        "protected",
        Organization::GlobalDirect,
        RECORD,
        1,
        LayoutSpec::Parity {
            data_devices: 4,
            rotated: true,
        },
        None,
    )
    .expect("create");

    let h = pf.direct_handle().expect("handle");
    for r in 0..RECORDS {
        let mut rec = vec![0u8; RECORD];
        rec[..8].copy_from_slice(&(r * r).to_le_bytes());
        h.write_record(r, &rec).expect("write");
    }
    println!("wrote {RECORDS} records under rotated parity");
    assert!(scrub(pf.raw()).expect("scrub").is_empty());
    println!("scrub: every stripe's parity consistent");

    // Disaster: drive 2 dies mid-flight.
    volume.device(2).fail();
    println!("drive 2 FAILED");

    // Reads keep working — blocks on the dead drive reconstruct by XOR
    // of their stripe peers and parity.
    let mut rec = vec![0u8; RECORD];
    for r in 0..RECORDS {
        h.read_record(r, &mut rec).expect("degraded read");
        let v = u64::from_le_bytes(rec[..8].try_into().unwrap());
        assert_eq!(v, r * r);
    }
    println!("all {RECORDS} records still readable (degraded XOR reads)");

    // Writes keep working too: parity absorbs updates for the dead slot.
    let mut rec = vec![0u8; RECORD];
    rec[..8].copy_from_slice(&4242u64.to_le_bytes());
    h.write_record(9, &rec).expect("degraded write");
    h.read_record(9, &mut rec).expect("read back");
    assert_eq!(u64::from_le_bytes(rec[..8].try_into().unwrap()), 4242);
    println!("update of a record on the dead drive accepted and readable");

    // A replacement arrives blank; rebuild reconstructs its contents.
    volume.device(2).heal();
    let zero = vec![0u8; RECORD];
    for b in 0..volume.device(2).num_blocks() {
        volume.device(2).write_block(b, &zero).expect("blank");
    }
    let report = rebuild_device(&volume, 2, RebuildThrottle::UNBOUNDED).expect("rebuild");
    let rebuilt = report.parity_rebuilt[0].1;
    println!("replacement drive rebuilt: {rebuilt} blocks reconstructed");
    assert_eq!(volume.device_health(2), HealthState::Healthy);
    assert!(!volume.is_degraded());
    println!("drive 2 back to Healthy; the volume is no longer degraded");

    assert!(scrub(pf.raw()).expect("scrub").is_empty());
    for r in 0..RECORDS {
        h.read_record(r, &mut rec).expect("read");
        let v = u64::from_le_bytes(rec[..8].try_into().unwrap());
        let expect = if r == 9 { 4242 } else { r * r };
        assert_eq!(v, expect, "record {r}");
    }
    println!("post-rebuild scrub clean; every record exact");
    println!("ok");
}
