//! Device rebuild: recovering a replaced drive's contents.
//!
//! Parity files rebuild the lost slot by XOR over each stripe ("complete
//! failure of a single drive", §5); shadowed files re-synchronise from
//! the surviving copy. [`rebuild_device`] sweeps a whole volume and
//! reports which files were recoverable — unprotected files are exactly
//! the paper's warning case.

use std::time::Duration;

use pario_fs::{xor_into, FsError, RawFile, Result, Volume};
use pario_layout::{Layout, LayoutSpec, ParityPlacement, ParityStriped};

/// The parity geometry of `raw`, or `BadSpec` for any other layout.
pub(crate) fn parity_model(raw: &RawFile) -> Result<ParityStriped> {
    match raw.meta_snapshot().layout {
        LayoutSpec::Parity {
            data_devices,
            rotated,
        } => Ok(ParityStriped::new(
            data_devices,
            if rotated {
                ParityPlacement::Rotated
            } else {
                ParityPlacement::Dedicated
            },
        )),
        _ => Err(FsError::BadSpec("needs a parity-striped file".into())),
    }
}

/// Pacing for a replay sweep: how much work each stripe-locked burst
/// does, and how long the sweep yields between bursts so foreground
/// traffic keeps flowing.
#[derive(Copy, Clone, Debug)]
pub struct RebuildThrottle {
    /// Blocks replayed per stripe-locked burst: that many consecutive
    /// rows of the replaced slot, moved as one wave — one read per
    /// surviving device, all in flight together, and one write.
    pub burst_blocks: u64,
    /// Sleep between bursts (the foreground window).
    pub pause: Duration,
}

impl Default for RebuildThrottle {
    fn default() -> RebuildThrottle {
        RebuildThrottle {
            burst_blocks: 8,
            pause: Duration::from_micros(200),
        }
    }
}

/// The offline sweep: one burst under one hold of the stripe lock.
const ONE_BURST: RebuildThrottle = RebuildThrottle {
    burst_blocks: u64::MAX,
    pause: Duration::ZERO,
};

/// Most rows one wave moves per device: a longer burst is several waves
/// under its one hold of the lock, so the offline sweep's one burst
/// holds a bounded run per device in memory, not the file.
const WAVE_ROWS: u64 = 128;

/// Replay rows `0..rows` of the replaced slot in stripe-locked bursts:
/// the lock is held while `wave(first, n)` replays up to
/// `throttle.burst_blocks` rows, `[first, first + n)` at a time, then
/// released for `throttle.pause`. Returns the rows replayed.
fn in_bursts(
    raw: &RawFile,
    rows: u64,
    throttle: RebuildThrottle,
    mut wave: impl FnMut(u64, u64) -> Result<()>,
) -> Result<u64> {
    let mut at = 0u64;
    while at < rows {
        let burst_end = rows.min(at.saturating_add(throttle.burst_blocks.max(1)));
        {
            let _quiesce = raw.lock_stripes();
            while at < burst_end {
                let n = (burst_end - at).min(WAVE_ROWS);
                wave(at, n)?;
                at += n;
            }
        }
        if at < rows && !throttle.pause.is_zero() {
            std::thread::sleep(throttle.pause);
        }
    }
    Ok(rows)
}

/// Rebuild layout slot `failed_slot` of a parity-protected file onto its
/// (replaced, healed) device. Returns blocks rebuilt.
///
/// The file's stripe lock is held throughout, quiescing concurrent
/// parity updates.
pub fn rebuild_parity_slot(raw: &RawFile, failed_slot: usize) -> Result<u64> {
    rebuild_parity_slot_in_bursts(raw, failed_slot, ONE_BURST)
}

/// [`rebuild_parity_slot`] with the stripe lock taken per burst rather
/// than for the whole sweep. Stripe `s` is row `s` of every device that
/// holds a block of it, so rows `[s, s + n)` of the surviving devices,
/// XORed by column, are rows `[s, s + n)` of the lost one.
pub(crate) fn rebuild_parity_slot_in_bursts(
    raw: &RawFile,
    failed_slot: usize,
    throttle: RebuildThrottle,
) -> Result<u64> {
    let ps = parity_model(raw)?;
    if failed_slot > ps.stripe_width() {
        return Err(FsError::BadSpec(format!(
            "slot {failed_slot} out of range for {}+1 devices",
            ps.stripe_width()
        )));
    }
    let bs = raw.block_size();
    let peers: Vec<usize> = (0..ps.devices()).filter(|&s| s != failed_slot).collect();
    let mut columns = vec![Vec::new(); peers.len()];
    let mut lost = Vec::new();
    in_bursts(raw, raw.device_blocks(failed_slot), throttle, |row, n| {
        // A partial last stripe leaves some devices a row short: the
        // block such a peer lacks is zeros to the parity.
        let held = |slot| raw.device_blocks(slot).saturating_sub(row).min(n) as usize;
        let mut reads = Vec::with_capacity(peers.len());
        for (&slot, column) in peers.iter().zip(&mut columns) {
            column.resize(held(slot) * bs, 0);
            if !column.is_empty() {
                reads.push((slot, row, &mut column[..]));
            }
        }
        raw.read_device_rows(&mut reads)?;
        lost.clear();
        lost.resize(n as usize * bs, 0);
        for column in &columns {
            xor_into(&mut lost[..column.len()], column);
        }
        raw.write_device_rows(&[(failed_slot, row, &lost)])
    })
}

/// Re-synchronise layout slot `slot` of a shadowed file from its mirror
/// partner. Returns blocks copied.
pub fn resync_shadow(raw: &RawFile, slot: usize) -> Result<u64> {
    resync_shadow_in_bursts(raw, slot, ONE_BURST)
}

/// [`resync_shadow`] in throttled bursts. Each burst holds the stripe
/// lock — shadow writes during a rebuild take the same lock (see
/// `RawFile::enter_shadow_write` in `pario-fs`), so a live write can
/// never interleave with the copy of its own block.
pub(crate) fn resync_shadow_in_bursts(
    raw: &RawFile,
    slot: usize,
    throttle: RebuildThrottle,
) -> Result<u64> {
    let primaries = match raw.meta_snapshot().layout {
        LayoutSpec::Shadowed(inner) => inner.devices_required(),
        _ => {
            return Err(FsError::BadSpec(
                "resync_shadow needs a shadowed file".into(),
            ))
        }
    };
    let peer = if slot < primaries {
        slot + primaries
    } else {
        slot - primaries
    };
    let bs = raw.block_size();
    let mut copy = Vec::new();
    in_bursts(raw, raw.device_blocks(slot), throttle, |row, n| {
        copy.resize(n as usize * bs, 0);
        raw.read_device_rows(&mut [(peer, row, &mut copy[..])])?;
        raw.write_device_rows(&[(slot, row, &copy)])
    })
}

/// Outcome of a volume-wide rebuild after replacing one device.
#[derive(Clone, Debug, Default)]
pub struct RebuildReport {
    /// Files recovered via parity, with blocks rebuilt.
    pub parity_rebuilt: Vec<(String, u64)>,
    /// Files re-synchronised from shadows, with blocks copied.
    pub shadow_resynced: Vec<(String, u64)>,
    /// Files on the device with no redundancy — data lost, exactly the
    /// paper's warning for independently-accessed PS/IS layouts.
    pub unprotected: Vec<String>,
    /// Files not touching the device at all.
    pub unaffected: Vec<String>,
}

/// Rebuild every file on `vol` that stored data on (replaced, healed)
/// device `device_idx`.
pub fn rebuild_device(vol: &Volume, device_idx: usize) -> Result<RebuildReport> {
    let mut report = RebuildReport::default();
    for name in vol.list() {
        let raw = vol.open(&name)?;
        let meta = raw.meta_snapshot();
        let slot = meta.device_map.iter().position(|&d| d == device_idx);
        let Some(slot) = slot else {
            report.unaffected.push(name);
            continue;
        };
        match &meta.layout {
            LayoutSpec::Parity { .. } => {
                let n = rebuild_parity_slot(&raw, slot)?;
                report.parity_rebuilt.push((name, n));
            }
            LayoutSpec::Shadowed(_) => {
                let n = resync_shadow(&raw, slot)?;
                report.shadow_resynced.push((name, n));
            }
            _ => report.unprotected.push(name),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::{FileSpec, VolumeConfig};

    const BS: usize = 256;

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 6,
            device_blocks: 256,
            block_size: BS,
        })
        .unwrap()
    }

    fn rec(tag: u64) -> Vec<u8> {
        (0..BS).map(|i| (tag as usize * 41 + i) as u8).collect()
    }

    fn blank(dev: &pario_disk::DeviceRef) {
        let zero = vec![0u8; BS];
        for b in 0..dev.num_blocks() {
            dev.write_block(b, &zero).unwrap();
        }
    }

    fn parity_file(v: &Volume, name: &str, rotated: bool, n: u64) -> RawFile {
        let f = v
            .create_file(FileSpec::new(
                name,
                BS,
                1,
                pario_layout::LayoutSpec::Parity {
                    data_devices: 3,
                    rotated,
                },
            ))
            .unwrap();
        for r in 0..n {
            f.write_record(r, &rec(r)).unwrap();
        }
        f
    }

    #[test]
    fn parity_rebuild_restores_replaced_device() {
        for rotated in [false, true] {
            for dead_slot in 0..4usize {
                let v = vol();
                let f = parity_file(&v, "p", rotated, 24);
                // Fail, replace with a blank, rebuild.
                let dev = v.device(dead_slot);
                dev.fail();
                // (writes during the outage keep parity coherent)
                f.write_record(2, &rec(99)).unwrap();
                dev.heal();
                blank(&dev); // replacement drive arrives blank
                let rebuilt = rebuild_parity_slot(&f, dead_slot).unwrap();
                assert!(rebuilt > 0, "slot {dead_slot} had blocks to rebuild");
                // All devices healthy: every record readable *directly*.
                let mut buf = vec![0u8; BS];
                for r in 0..24u64 {
                    f.read_record(r, &mut buf).unwrap();
                    let expect = if r == 2 { rec(99) } else { rec(r) };
                    assert_eq!(buf, expect, "rotated={rotated} slot={dead_slot} rec {r}");
                }
            }
        }
    }

    /// Every row of layout slot `slot`, as the media holds it.
    fn rows_of(f: &RawFile, slot: usize) -> Vec<u8> {
        let mut rows = vec![0u8; f.device_blocks(slot) as usize * BS];
        f.read_device_rows(&mut [(slot, 0, &mut rows[..])]).unwrap();
        rows
    }

    fn bursts_of(burst_blocks: u64) -> RebuildThrottle {
        RebuildThrottle {
            burst_blocks,
            pause: Duration::ZERO,
        }
    }

    #[test]
    fn parity_rebuild_in_waves_restores_every_row() {
        // 25 blocks leave a last stripe of one data block and its
        // parity: two devices are a row short. Preallocated, the file
        // ends there; appended to, it carries a zero-filled run-ahead
        // tail past its records.
        for (rotated, appended) in [(false, false), (false, true), (true, false), (true, true)] {
            for dead_slot in 0..4usize {
                for burst in [1, 5, u64::MAX] {
                    let v = vol();
                    let f = if appended {
                        parity_file(&v, "p", rotated, 25)
                    } else {
                        let layout = pario_layout::LayoutSpec::Parity {
                            data_devices: 3,
                            rotated,
                        };
                        let spec = FileSpec::new("p", BS, 1, layout).initial_records(25);
                        let f = v.create_file(spec).unwrap();
                        (0..25).for_each(|r| f.write_record(r, &rec(r)).unwrap());
                        f
                    };
                    let intact = rows_of(&f, dead_slot);
                    assert!(intact.iter().any(|&b| b != 0));
                    blank(&v.device(dead_slot));
                    let rebuilt =
                        rebuild_parity_slot_in_bursts(&f, dead_slot, bursts_of(burst)).unwrap();
                    assert_eq!(rebuilt, f.device_blocks(dead_slot));
                    let ctx = format!("rotated={rotated} appended={appended} slot={dead_slot}");
                    assert!(rows_of(&f, dead_slot) == intact, "{ctx} burst={burst}");
                }
            }
        }
    }

    #[test]
    fn parity_rebuild_wave_is_one_request_per_device_per_burst() {
        let v = vol();
        let f = parity_file(&v, "p", true, 64);
        let rows = f.device_blocks(1);
        let bursts = rows.div_ceil(5);
        assert!(bursts > 2 && !rows.is_multiple_of(5), "{rows} rows");
        let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
        assert_eq!(
            rebuild_parity_slot_in_bursts(&f, 1, bursts_of(5)).unwrap(),
            rows
        );
        for (d, was) in before.iter().enumerate() {
            let now = v.device(d).counters();
            let (reads, writes) = (now.reads - was.reads, now.writes - was.writes);
            if d == 1 {
                assert_eq!((reads, writes), (0, bursts), "the replaced device");
                assert_eq!(now.blocks_written - was.blocks_written, rows);
            } else {
                assert!(reads <= bursts && reads > 0, "device {d}: {reads} reads");
                assert_eq!(writes, 0, "device {d}");
            }
        }
    }

    #[test]
    fn shadow_resync_in_waves_copies_every_row() {
        for burst in [1, 5, u64::MAX] {
            let v = vol();
            let layout =
                pario_layout::LayoutSpec::Shadowed(Box::new(pario_layout::LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                }));
            let f = v.create_file(FileSpec::new("sh", BS, 1, layout)).unwrap();
            (0..37).for_each(|r| f.write_record(r, &rec(r)).unwrap());
            blank(&v.device(3)); // the mirror of primary 1
            let rows = f.device_blocks(3);
            let before = (v.device(1).counters(), v.device(3).counters());
            assert_eq!(
                resync_shadow_in_bursts(&f, 3, bursts_of(burst)).unwrap(),
                rows
            );
            let bursts = rows.div_ceil(burst.min(WAVE_ROWS));
            assert_eq!(v.device(1).counters().reads - before.0.reads, bursts);
            assert_eq!(v.device(3).counters().writes - before.1.writes, bursts);
            assert!(rows_of(&f, 3) == rows_of(&f, 1), "burst={burst}");
        }
    }

    #[test]
    fn shadow_resync_restores_mirror() {
        let v = vol();
        let f = v
            .create_file(FileSpec::new(
                "sh",
                BS,
                1,
                pario_layout::LayoutSpec::Shadowed(Box::new(pario_layout::LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                })),
            ))
            .unwrap();
        for r in 0..16u64 {
            f.write_record(r, &rec(r)).unwrap();
        }
        // Lose shadow device 2 (mirror of primary 0); writes continue.
        v.device(2).fail();
        f.write_record(0, &rec(77)).unwrap();
        v.device(2).heal();
        blank(&v.device(2)); // replacement mirror arrives blank
        let copied = resync_shadow(&f, 2).unwrap();
        assert!(copied >= 8);
        // Now fail the PRIMARY: reads must come from the resynced shadow.
        v.device(0).fail();
        let mut buf = vec![0u8; BS];
        for r in 0..16u64 {
            f.read_record(r, &mut buf).unwrap();
            let expect = if r == 0 { rec(77) } else { rec(r) };
            assert_eq!(buf, expect, "record {r}");
        }
    }

    #[test]
    fn volume_rebuild_classifies_files() {
        let v = vol();
        parity_file(&v, "prot", false, 12);
        let plain = v
            .create_file(FileSpec::new(
                "plain",
                BS,
                1,
                pario_layout::LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            ))
            .unwrap();
        plain.write_record(0, &rec(1)).unwrap();
        let elsewhere = v
            .create_file(
                FileSpec::new(
                    "elsewhere",
                    BS,
                    1,
                    pario_layout::LayoutSpec::Striped {
                        devices: 1,
                        unit: 1,
                    },
                )
                .device_map(vec![5]),
            )
            .unwrap();
        elsewhere.write_record(0, &rec(2)).unwrap();

        // Replace device 1 (blank) and rebuild.
        v.device(1).heal();
        let report = rebuild_device(&v, 1).unwrap();
        assert_eq!(report.parity_rebuilt.len(), 1);
        assert_eq!(report.parity_rebuilt[0].0, "prot");
        assert_eq!(report.unprotected, vec!["plain".to_string()]);
        assert_eq!(report.unaffected, vec!["elsewhere".to_string()]);
    }

    #[test]
    fn rebuild_rejects_wrong_layouts() {
        let v = vol();
        let plain = v
            .create_file(FileSpec::new(
                "x",
                BS,
                1,
                pario_layout::LayoutSpec::Striped {
                    devices: 1,
                    unit: 1,
                },
            ))
            .unwrap();
        assert!(rebuild_parity_slot(&plain, 0).is_err());
        assert!(resync_shadow(&plain, 0).is_err());
    }
}
