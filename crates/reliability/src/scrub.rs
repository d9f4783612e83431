//! Parity scrubbing and cross-device consistency checking.
//!
//! The paper's §5 warning: "if a single drive in a parallel file system
//! fails, it is not sufficient to restore just that disk from backups.
//! Since each drive contains a slice of every file, all of the disks will
//! have to be rolled back to the same point in time in order to maintain
//! consistency." A parity scrub makes the inconsistency *visible*: a
//! stripe whose parity disagrees with its data blocks has been torn by a
//! partial rollback (or by updates that bypassed parity maintenance, as
//! independently-accessed PS/IS layouts would — the reason the paper says
//! parity "does not appear to be applicable" there).

use pario_disk::{DeviceRef, DiskError};
use pario_fs::{FsError, RawFile, Result};
use pario_layout::LayoutSpec;

use crate::rebuild::{in_bursts, RebuildThrottle};

/// The stripes of a parity file — stripe `s` is row `s` of every slot
/// that holds a block of it — or `BadSpec` for any other layout.
fn stripes(raw: &RawFile) -> Result<u64> {
    if !matches!(raw.meta_snapshot().layout, LayoutSpec::Parity { .. }) {
        return Err(FsError::BadSpec("needs a parity-striped file".into()));
    }
    let slots = 0..raw.layout().devices();
    Ok(slots.map(|s| raw.device_blocks(s)).max().unwrap_or(0))
}

/// Verify every stripe of a parity-protected file; returns the stripe
/// indices whose parity does not match their data. Stripes are checked
/// `WAVE_ROWS` at a time (`RawFile::scrub_rows`): one read per device
/// a wave, under one hold of the stripe lock.
pub fn scrub(raw: &RawFile) -> Result<Vec<u64>> {
    let mut bad = Vec::new();
    in_bursts(raw, stripes(raw)?, RebuildThrottle::UNBOUNDED, |row, n| {
        bad.extend(raw.scrub_rows(row, n)?);
        Ok(())
    })?;
    Ok(bad)
}

/// Scrub-and-repair: find blocks whose reads fail with
/// [`Corruption`](DiskError::Corruption) and recompute each from its
/// stripe peers in place (`RawFile::recover_rows`). A block is read on
/// its own, so a failure names it. Handles any number of corrupt blocks
/// as long as no stripe has more than one. Returns the number of blocks
/// repaired.
pub fn repair(raw: &RawFile) -> Result<u64> {
    let stripes = stripes(raw)?;
    let _quiesce = raw.lock_stripes();
    let mut buf = vec![0u8; raw.block_size()];
    let mut repaired = 0;
    for s in 0..stripes {
        let members = (0..raw.layout().devices()).filter(|&slot| raw.device_blocks(slot) > s);
        let mut bad = None;
        for slot in members {
            match raw.read_device_block(slot, s, &mut buf) {
                Ok(()) => {}
                Err(FsError::Disk(DiskError::Corruption { .. })) => {
                    if bad.replace(slot).is_some() {
                        return Err(FsError::Meta(format!(
                            "stripe {s} has multiple corrupt blocks; \
                             parity cannot repair it"
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if let Some(slot) = bad {
            raw.recover_rows(slot, s, &mut buf)?;
            raw.write_device_rows(&[(slot, s, &buf)])?;
            repaired += 1;
        }
    }
    Ok(repaired)
}

/// Copy every block of a device into memory — a point-in-time "backup".
pub fn snapshot_device(dev: &DeviceRef) -> Result<Vec<u8>> {
    let bs = dev.block_size();
    let mut image = vec![0u8; bs * dev.num_blocks() as usize];
    for b in 0..dev.num_blocks() {
        dev.read_block(b, &mut image[b as usize * bs..(b as usize + 1) * bs])?;
    }
    Ok(image)
}

/// Restore a device from a snapshot taken by [`snapshot_device`] —
/// deliberately *only this device*, to reproduce the paper's partial-
/// rollback inconsistency.
pub fn restore_device(dev: &DeviceRef, image: &[u8]) -> Result<()> {
    let bs = dev.block_size();
    assert_eq!(image.len(), bs * dev.num_blocks() as usize);
    for b in 0..dev.num_blocks() {
        dev.write_block(b, &image[b as usize * bs..(b as usize + 1) * bs])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::{FileSpec, Volume, VolumeConfig};

    const BS: usize = 256;

    /// A rotated 3+1 parity file of 24 one-block records on `v`.
    fn populate(v: &Volume) -> RawFile {
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
            f.write_record(r, &vec![(r + 1) as u8; BS]).unwrap();
        }
        f
    }

    fn setup() -> (Volume, RawFile) {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: BS,
        })
        .unwrap();
        let f = populate(&v);
        (v, f)
    }

    /// [`setup`] over `ChecksumDevice`-wrapped memory disks, whose raw
    /// handles come back for bit-flipping behind the checksums.
    fn checksummed_setup() -> (Vec<std::sync::Arc<pario_disk::MemDisk>>, Volume, RawFile) {
        use crate::checksum::ChecksumDevice;
        use pario_disk::{DeviceRef, MemDisk};
        use std::sync::Arc;
        let raw_devs: Vec<Arc<MemDisk>> = (0..4)
            .map(|i| Arc::new(MemDisk::named(&format!("m{i}"), 256, BS)))
            .collect();
        let wrapped: Vec<DeviceRef> = raw_devs
            .iter()
            .map(|m| Arc::new(ChecksumDevice::new(Arc::clone(m) as DeviceRef)) as DeviceRef)
            .collect();
        let v = Volume::new(wrapped).unwrap();
        let f = populate(&v);
        (raw_devs, v, f)
    }

    #[test]
    fn clean_file_scrubs_clean() {
        let (_v, f) = setup();
        assert!(scrub(&f).unwrap().is_empty());
    }

    /// 60 appended one-block records leave a rotated 3+1 file 64 blocks,
    /// 22 stripes: its scrub is one wave, one read per device (a read per
    /// block was 86).
    #[test]
    fn scrub_is_one_read_per_device_per_wave() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 512,
            block_size: BS,
        })
        .unwrap();
        let layout = LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        };
        let f = v.create_file(FileSpec::new("p", BS, 1, layout)).unwrap();
        for r in 0..60u64 {
            f.write_record(r, &vec![r as u8; BS]).unwrap();
        }
        assert_eq!(f.nblocks(), 64);
        let reads = |d: usize| v.device(d).counters().reads;
        let before: Vec<u64> = (0..4).map(reads).collect();
        assert!(scrub(&f).unwrap().is_empty());
        let scrubbed: Vec<u64> = (0..4).map(|d| reads(d) - before[d]).collect();
        assert_eq!(scrubbed, [1; 4]);
    }

    #[test]
    fn bypassing_parity_maintenance_is_detected() {
        // Simulate the paper's independently-accessed PS/IS case: a
        // process updates "its" device directly without the parity RMW.
        let (_v, f) = setup();
        f.write_device_block(1, 3, &vec![0xEE; BS]).unwrap();
        let bad = scrub(&f).unwrap();
        assert_eq!(bad, vec![3], "the bypassed stripe must be flagged");
    }

    #[test]
    fn partial_rollback_breaks_consistency_and_full_rollback_heals_it() {
        let (v, f) = setup();
        // Point-in-time backup of ALL devices.
        let backups: Vec<Vec<u8>> = (0..4)
            .map(|d| snapshot_device(&v.device(d)).unwrap())
            .collect();
        // More (parity-coherent) updates after the backup.
        for r in 0..24u64 {
            f.write_record(r, &vec![(r + 101) as u8; BS]).unwrap();
        }
        assert!(scrub(&f).unwrap().is_empty());
        // Restore ONLY device 2 from backup — the paper's mistake.
        restore_device(&v.device(2), &backups[2]).unwrap();
        let bad = scrub(&f).unwrap();
        assert!(!bad.is_empty(), "single-device restore must tear stripes");
        // Rolling back the REMAINING devices to the same point restores
        // consistency — "all of the disks will have to be rolled back".
        for d in [0usize, 1, 3] {
            restore_device(&v.device(d), &backups[d]).unwrap();
        }
        assert!(scrub(&f).unwrap().is_empty());
        // And the data is the pre-update data.
        let mut buf = vec![0u8; BS];
        f.read_record(5, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 6));
    }

    #[test]
    fn repair_fixes_corrupt_blocks() {
        let (raw_devs, _v, f) = checksummed_setup();
        // Corrupt three blocks on three devices (distinct stripes).
        let meta = f.meta_snapshot();
        for (slot, dblock, bit) in [(0usize, 1u64, 5usize), (1, 3, 77), (3, 6, 900)] {
            let abs = pario_fs::resolve(&meta.extents[slot], dblock);
            raw_devs[slot].corrupt_bit(abs, bit);
        }
        let repaired = repair(&f).unwrap();
        assert_eq!(repaired, 3);
        // Everything reads directly (no degraded path needed) and a
        // second repair finds nothing.
        let mut buf = vec![0u8; BS];
        for r in 0..24u64 {
            f.read_record(r, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == (r + 1) as u8), "record {r}");
        }
        assert_eq!(repair(&f).unwrap(), 0);
    }

    /// A detected-corrupt *old parity* block must not wedge its stripe:
    /// the write that meets it recomputes the parity from the live peers
    /// (reconstruct-write) and so heals it.
    #[test]
    fn write_over_detected_corrupt_parity_heals_the_stripe() {
        use pario_layout::{ParityPlacement, ParityStriped};
        let (raw_devs, v, f) = checksummed_setup();
        // Stripe 2 holds records 6..9; flip a bit of its parity block.
        let ploc = ParityStriped::new(3, ParityPlacement::Rotated).parity_location(2);
        let abs = pario_fs::resolve(&f.meta_snapshot().extents[ploc.device], ploc.block);
        raw_devs[ploc.device].corrupt_bit(abs, 321);
        assert!(scrub(&f).is_err(), "the corruption is detected");

        f.write_record(7, &vec![0xC3; BS]).unwrap();
        let mut buf = vec![0u8; BS];
        f.read_record(7, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xC3));
        assert!(scrub(&f).unwrap().is_empty(), "parity recomputed and clean");
        // The healed parity really protects the stripe.
        v.device(f.layout().map(7).device).fail();
        f.read_record(7, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xC3));
        f.read_record(6, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    /// Two span writers and two single-record writers own interleaved
    /// 7-block chunks of one 3-wide file, so neighbouring chunks of
    /// different writers share a stripe at every boundary: full-stripe
    /// runs, ragged-end plans and one-block read-modify-writes all meet
    /// under the stripe lock. Afterwards every stripe scrubs clean and
    /// every byte matches the model, with and without a device down.
    #[test]
    fn concurrent_span_and_record_writers_leave_every_stripe_clean() {
        const CHUNK: u64 = 7;
        const CHUNKS: u64 = 16;
        const ROUNDS: u8 = 4;
        let (v, f) = setup();
        f.ensure_capacity_records(CHUNK * CHUNKS).unwrap();
        let byte = |block: u64, round: u8| (block as u8).wrapping_mul(13) ^ round;
        std::thread::scope(|s| {
            for writer in 0..4u64 {
                let f = f.clone();
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        for chunk in (writer..CHUNKS).step_by(4) {
                            let blocks = chunk * CHUNK..(chunk + 1) * CHUNK;
                            if writer < 2 {
                                let data: Vec<u8> = blocks
                                    .clone()
                                    .flat_map(|b| vec![byte(b, round); BS])
                                    .collect();
                                f.write_span(blocks.start * BS as u64, &data).unwrap();
                            } else {
                                for b in blocks {
                                    f.write_record(b, &vec![byte(b, round); BS]).unwrap();
                                }
                            }
                        }
                    }
                });
            }
        });
        assert!(scrub(&f).unwrap().is_empty());
        let model: Vec<u8> = (0..CHUNK * CHUNKS)
            .flat_map(|b| vec![byte(b, ROUNDS - 1); BS])
            .collect();
        let mut got = vec![0u8; model.len()];
        f.read_span(0, &mut got).unwrap();
        assert_eq!(got, model);
        v.device(1).fail();
        got.fill(0);
        f.read_span(0, &mut got).unwrap();
        assert_eq!(got, model, "reconstructed with device 1 down");
    }

    #[test]
    fn scrub_rejects_non_parity_files() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 2,
            device_blocks: 128,
            block_size: BS,
        })
        .unwrap();
        let f = v
            .create_file(FileSpec::new(
                "s",
                BS,
                1,
                LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            ))
            .unwrap();
        assert!(scrub(&f).is_err());
    }
}
