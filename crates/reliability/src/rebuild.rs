//! Device rebuild: recovering a replaced drive's contents.
//!
//! Parity files rebuild the lost slot by XOR over each stripe ("complete
//! failure of a single drive", §5); shadowed files re-synchronise from
//! the surviving copy. Both are one rule, `RawFile::recover_rows` in
//! `pario-fs`; [`rebuild_device`] replays it over every file on the
//! replaced device, through the volume's health state machine, while the
//! volume keeps serving, and reports which files were recoverable —
//! unprotected files are exactly the paper's warning case.

use std::time::Duration;

use pario_disk::DiskError;
use pario_fs::{FsError, RawFile, Result, Volume};
use pario_layout::LayoutSpec;

/// Pacing for a replay sweep: how many rows each burst locks and
/// replays, and how long the sweep sleeps between bursts. Foreground
/// writes to other rows flow during a burst; the pause paces the
/// sweep's share of device bandwidth, and lets writes to the rows just
/// swept in.
#[derive(Copy, Clone, Debug)]
pub struct RebuildThrottle {
    /// Blocks replayed per burst: that many consecutive rows of the
    /// replaced slot, locked and moved as one wave — one read per
    /// surviving device, all in flight together, and one write.
    pub burst_blocks: u64,
    /// Sleep between bursts.
    pub pause: Duration,
}

impl RebuildThrottle {
    /// No pacing: each file's slot goes in one burst, under one hold of
    /// all its rows — for a volume nothing else is using.
    pub const UNBOUNDED: RebuildThrottle = RebuildThrottle {
        burst_blocks: u64::MAX,
        pause: Duration::ZERO,
    };
}

impl Default for RebuildThrottle {
    fn default() -> RebuildThrottle {
        RebuildThrottle {
            burst_blocks: 8,
            pause: Duration::from_micros(200),
        }
    }
}

/// Most rows one wave moves per device: a longer burst is several waves
/// under its one hold of its rows, so an unbounded burst holds a
/// bounded run per device in memory, not the file.
const WAVE_ROWS: u64 = 128;

/// Sweep rows `0..rows` in bursts: each holds the rows it sweeps, up to
/// `throttle.burst_blocks` of them (`RawFile::lock_rows`), while
/// `wave(first, n)` replays (or checks) them, `[first, first + n)` at a
/// time, then releases them for `throttle.pause`. Returns the rows
/// swept.
pub(crate) fn in_bursts(
    raw: &RawFile,
    rows: u64,
    throttle: RebuildThrottle,
    mut wave: impl FnMut(u64, u64) -> Result<()>,
) -> Result<u64> {
    let mut at = 0u64;
    while at < rows {
        let burst_end = rows.min(at.saturating_add(throttle.burst_blocks.max(1)));
        {
            let _rows = raw.lock_rows(at..burst_end);
            while at < burst_end {
                let n = (burst_end - at).min(WAVE_ROWS);
                wave(at, n)?;
                at += n;
            }
        }
        #[cfg(test)]
        if at < rows {
            tests::between_bursts();
        }
        if at < rows && !throttle.pause.is_zero() {
            std::thread::sleep(throttle.pause);
        }
    }
    Ok(rows)
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

/// Rebuild every file that stored data on device `device_idx`, whose
/// drive was replaced, while the volume keeps serving degraded I/O:
///
/// 1. `begin_rebuild` flips the device to `Rebuilding` — foreground
///    reads route around its stale media — and, under the same board
///    mutex, heals the media. A fail-stop report raised against the
///    dead media is judged before the flip or after the heal, never
///    between, so it cannot abort the rebuild it preceded.
/// 2. Per file, `quiesce_io()` waits out any read still routing by the
///    old health state, and has any read parked since read again.
/// 3. The slot is replayed in bursts: each holds up to
///    [`RebuildThrottle::burst_blocks`] rows (`RawFile::lock_rows`),
///    recomputes them from the file's redundancy
///    (`RawFile::recover_rows`), writes them
///    (`RawFile::write_device_rows`), releases them and sleeps
///    [`RebuildThrottle::pause`]. Every parity or shadowed write holds
///    the rows it writes too, so a live write never interleaves with the
///    copy of its own rows, and writes to other rows flow during a
///    burst.
/// 4. `complete_rebuild` returns the device to `Healthy`.
///
/// A device index past the volume is `BadSpec`, before the board is
/// touched. On a replay error the device is marked Failed again and the
/// error surfaces. If the device fails again *during* the rebuild, the
/// racing failure report wins: `complete_rebuild` refuses, and this
/// returns the fail-stop error instead of reporting success.
pub fn rebuild_device(
    vol: &Volume,
    device_idx: usize,
    throttle: RebuildThrottle,
) -> Result<RebuildReport> {
    let devices = vol.num_devices();
    if device_idx >= devices {
        let msg = format!("no device {device_idx} on a volume of {devices}");
        return Err(FsError::BadSpec(msg));
    }
    let media = vol.device(device_idx);
    vol.health().begin_rebuild(device_idx, || media.heal());
    let sweep = || -> Result<RebuildReport> {
        let mut report = RebuildReport::default();
        for raw in vol.open_all()? {
            let name = raw.name().to_string();
            let meta = raw.meta_snapshot();
            let slot = meta.device_map.iter().position(|&d| d == device_idx);
            let Some(slot) = slot else {
                report.unaffected.push(name);
                continue;
            };
            let replayed = match &meta.layout {
                LayoutSpec::Parity { .. } => &mut report.parity_rebuilt,
                LayoutSpec::Shadowed(_) => &mut report.shadow_resynced,
                _ => {
                    report.unprotected.push(name);
                    continue;
                }
            };
            raw.quiesce_io();
            let mut rows = Vec::new();
            let n = in_bursts(&raw, raw.device_blocks(slot), throttle, |row, n| {
                rows.resize(n as usize * raw.block_size(), 0);
                raw.recover_rows(slot, row, &mut rows)?;
                raw.write_device_rows(slot, row, &rows)
            })?;
            replayed.push((name, n));
        }
        Ok(report)
    };
    match sweep() {
        Ok(report) if vol.health().complete_rebuild(device_idx) => Ok(report),
        Ok(_) => Err(FsError::Disk(DiskError::DeviceFailed {
            device: format!("device {device_idx} (failed during rebuild)"),
        })),
        Err(e) => {
            vol.health().mark_failed(device_idx);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::{FileSpec, HealthState, VolumeConfig};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    thread_local! {
        /// Run by a sweep on this thread between two of its bursts, with
        /// its rows released.
        static BETWEEN_BURSTS: RefCell<Option<Box<dyn FnMut()>>> = RefCell::new(None);
    }

    /// The sweep's test hook: see [`BETWEEN_BURSTS`].
    pub(super) fn between_bursts() {
        BETWEEN_BURSTS.with(|hook| {
            if let Some(hook) = hook.borrow_mut().as_mut() {
                hook();
            }
        });
    }

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
                LayoutSpec::Parity {
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

    /// [`rebuild_device`], which must leave `device` Healthy and the
    /// volume no longer degraded.
    fn rebuild_healthy(v: &Volume, device: usize, throttle: RebuildThrottle) -> RebuildReport {
        let report = rebuild_device(v, device, throttle).unwrap();
        assert_eq!(v.device_health(device), HealthState::Healthy);
        assert!(!v.is_degraded(), "device {device} rebuilt");
        report
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
                let report = rebuild_healthy(&v, dead_slot, RebuildThrottle::UNBOUNDED);
                let rebuilt = report.parity_rebuilt[0].1;
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
        f.read_device_rows(slot, 0, &mut rows).unwrap();
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
                        let layout = LayoutSpec::Parity {
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
                    let report = rebuild_healthy(&v, dead_slot, bursts_of(burst));
                    let rebuilt = vec![("p".to_string(), f.device_blocks(dead_slot))];
                    assert_eq!(report.parity_rebuilt, rebuilt);
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
        let report = rebuild_healthy(&v, 1, bursts_of(5));
        assert_eq!(report.parity_rebuilt, vec![("p".to_string(), rows)]);
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

    /// A mirror slot and a primary slot alike come back from their
    /// partner as they were before the drive was blanked.
    #[test]
    fn shadow_resync_in_waves_copies_every_row() {
        for (slot, partner) in [(3, 1), (1, 3)] {
            for burst in [1, 5, u64::MAX] {
                let v = vol();
                let f = shadowed_file(&v);
                (0..37).for_each(|r| f.write_record(r, &rec(r)).unwrap());
                let intact = rows_of(&f, slot);
                blank(&v.device(slot));
                let rows = f.device_blocks(slot);
                let before = (v.device(partner).counters(), v.device(slot).counters());
                let report = rebuild_healthy(&v, slot, bursts_of(burst));
                assert_eq!(report.shadow_resynced, vec![("sh".to_string(), rows)]);
                let bursts = rows.div_ceil(burst.min(WAVE_ROWS));
                assert_eq!(v.device(partner).counters().reads - before.0.reads, bursts);
                assert_eq!(v.device(slot).counters().writes - before.1.writes, bursts);
                assert!(rows_of(&f, slot) == intact, "slot={slot} burst={burst}");
            }
        }
    }

    #[test]
    fn shadow_resync_restores_mirror() {
        let v = vol();
        let f = shadowed_file(&v);
        for r in 0..16u64 {
            f.write_record(r, &rec(r)).unwrap();
        }
        // Lose shadow device 2 (mirror of primary 0); writes continue.
        v.device(2).fail();
        f.write_record(0, &rec(77)).unwrap();
        v.device(2).heal();
        blank(&v.device(2)); // replacement mirror arrives blank
        let report = rebuild_healthy(&v, 2, RebuildThrottle::UNBOUNDED);
        assert!(report.shadow_resynced[0].1 >= 8);
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
                LayoutSpec::Striped {
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
                    LayoutSpec::Striped {
                        devices: 1,
                        unit: 1,
                    },
                )
                .device_map(vec![5]),
            )
            .unwrap();
        elsewhere.write_record(0, &rec(2)).unwrap();

        // Replace device 1 (blank) and rebuild.
        let report = rebuild_device(&v, 1, RebuildThrottle::default()).unwrap();
        assert_eq!(report.parity_rebuilt.len(), 1);
        assert_eq!(report.parity_rebuilt[0].0, "prot");
        assert_eq!(report.unprotected, vec!["plain".to_string()]);
        assert_eq!(report.unaffected, vec!["elsewhere".to_string()]);
    }

    #[test]
    fn parity_rebuild_round_trips_health() {
        let v = vol();
        let f = parity_file(&v, "p", true, 24);
        v.device(1).fail();
        // First touch detects the fail-stop and transitions Failed.
        let mut buf = vec![0u8; BS];
        for r in 0..24u64 {
            f.read_record(r, &mut buf).unwrap();
        }
        assert_eq!(v.device_health(1), HealthState::Failed);
        // Writes during the outage keep parity coherent.
        f.write_record(2, &rec(99)).unwrap();

        let report = rebuild_device(&v, 1, RebuildThrottle::default()).unwrap();
        assert_eq!(report.parity_rebuilt.len(), 1);
        assert!(report.parity_rebuilt[0].1 > 0);
        assert_eq!(v.device_health(1), HealthState::Healthy);
        let states = &v.health_snapshot()[1].transitions;
        assert_eq!(
            states,
            &vec![
                HealthState::Healthy,
                HealthState::Failed,
                HealthState::Rebuilding,
                HealthState::Healthy
            ]
        );
        for r in 0..24u64 {
            f.read_record(r, &mut buf).unwrap();
            let expect = if r == 2 { rec(99) } else { rec(r) };
            assert_eq!(buf, expect, "record {r}");
        }
    }

    fn shadowed_file(v: &Volume) -> RawFile {
        let inner = LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        };
        let spec = FileSpec::new("sh", BS, 1, LayoutSpec::Shadowed(Box::new(inner)));
        v.create_file(spec).unwrap()
    }

    #[test]
    fn shadow_rebuild_restores_a_failed_primary() {
        let v = vol();
        let f = shadowed_file(&v);
        for r in 0..16u64 {
            f.write_record(r, &rec(r)).unwrap();
        }
        v.device(0).fail();
        let mut buf = vec![0u8; BS];
        f.read_record(0, &mut buf).unwrap(); // detect
        assert_eq!(v.device_health(0), HealthState::Failed);
        f.write_record(0, &rec(77)).unwrap(); // survives on the mirror

        let report = rebuild_device(&v, 0, RebuildThrottle::default()).unwrap();
        assert_eq!(report.shadow_resynced.len(), 1);
        assert_eq!(v.device_health(0), HealthState::Healthy);
        // Kill the MIRROR: reads must come from the rebuilt primary.
        v.device(2).fail();
        for r in 0..16u64 {
            f.read_record(r, &mut buf).unwrap();
            let expect = if r == 0 { rec(77) } else { rec(r) };
            assert_eq!(buf, expect, "record {r}");
        }
    }

    #[test]
    fn failure_during_rebuild_wins() {
        let v = vol();
        let f = shadowed_file(&v);
        f.write_record(0, &rec(0)).unwrap();
        v.health().mark_failed(0);
        v.health().begin_rebuild(0, || ());
        // The device dies again before the sweep finishes.
        v.health().note_error(
            0,
            &DiskError::DeviceFailed {
                device: "mem0".into(),
            },
            || true,
        );
        assert!(!v.health().complete_rebuild(0));
        assert_eq!(v.device_health(0), HealthState::Failed);
    }

    /// How long a parked sweep waits for a foreground write before it
    /// gives up, which fails the test: the wait can never pass it.
    const HANG: Duration = Duration::from_secs(30);

    #[test]
    fn foreground_writes_flow_during_a_rebuild() {
        let v = vol();
        let f = shadowed_file(&v);
        let n = 128u64;
        for r in 0..n {
            f.write_record(r, &rec(r)).unwrap();
        }
        v.device(1).fail();
        let mut buf = vec![0u8; BS];
        f.read_record(1, &mut buf).unwrap(); // detect -> Failed
        assert_eq!(v.device_health(1), HealthState::Failed);

        // Concurrent foreground writers churn the file while the
        // rebuild sweeps it; every write must land on both copies.
        // After its first burst the sweep parks until a write that began
        // while it was parked has landed: a sweep that kept foreground
        // writes out until it completed would park for ever.
        let done = AtomicBool::new(false);
        let parked = Arc::new(AtomicBool::new(false));
        let between = Arc::new(AtomicU64::new(0));
        let (p, b) = (Arc::clone(&parked), Arc::clone(&between));
        let mut first = true;
        BETWEEN_BURSTS.set(Some(Box::new(move || {
            if !std::mem::take(&mut first) {
                return;
            }
            p.store(true, Ordering::SeqCst);
            let give_up = Instant::now() + HANG;
            while b.load(Ordering::SeqCst) == 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_micros(100));
            }
            p.store(false, Ordering::SeqCst);
        })));
        std::thread::scope(|s| {
            let fg = s.spawn(|| {
                let mut k = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let r = k % n;
                    let began_parked = parked.load(Ordering::SeqCst);
                    f.write_record(r, &rec(1000 + r)).unwrap();
                    if began_parked && parked.load(Ordering::SeqCst) {
                        between.fetch_add(1, Ordering::SeqCst);
                    }
                    k += 1;
                }
            });
            let throttle = RebuildThrottle {
                burst_blocks: 4,
                pause: Duration::from_micros(100),
            };
            rebuild_device(&v, 1, throttle).unwrap();
            done.store(true, Ordering::SeqCst);
            fg.join().unwrap();
        });
        BETWEEN_BURSTS.set(None);
        assert_eq!(v.device_health(1), HealthState::Healthy);
        assert!(
            between.load(Ordering::SeqCst) >= 1,
            "no foreground write landed while the sweep was parked between bursts"
        );
        // Every record consistent on BOTH copies: fail the mirror side
        // and read the rebuilt primaries, then vice versa.
        let readback = |dead: usize| {
            v.device(dead).fail();
            let mut buf = vec![0u8; BS];
            for r in 0..n {
                f.read_record(r, &mut buf).unwrap();
                assert!(
                    buf == rec(r) || buf == rec(1000 + r),
                    "record {r} torn with device {dead} dead"
                );
            }
            v.device(dead).heal();
        };
        readback(2);
        readback(0);
    }

    /// A sweep parked inside its first burst, holding rows `[0, 8)` of a
    /// parity file: a write to stripe 12 lands while it is parked, and a
    /// write to stripe 3 lands only once the burst has released its rows.
    #[test]
    fn foreground_writes_flow_during_a_burst() {
        let v = vol();
        let f = parity_file(&v, "p", true, 48);
        let (far_landed, near_began, near_landed) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        let parked = AtomicBool::new(false);
        let (mut far_while_parked, mut near_while_parked) = (false, true);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !parked.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                near_began.store(true, Ordering::SeqCst);
                f.write_record(3 * 3, &rec(1003)).unwrap();
                near_landed.store(true, Ordering::SeqCst);
            });
            s.spawn(|| {
                while !near_began.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                f.write_record(12 * 3, &rec(1012)).unwrap();
                far_landed.store(true, Ordering::SeqCst);
            });
            let swept = in_bursts(&f, 16, bursts_of(8), |row, n| {
                if row == 0 {
                    assert_eq!(n, 8, "the first burst holds rows [0, 8)");
                    parked.store(true, Ordering::SeqCst);
                    let give_up = Instant::now() + HANG;
                    while !far_landed.load(Ordering::SeqCst) && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    far_while_parked = far_landed.load(Ordering::SeqCst);
                    near_while_parked = near_landed.load(Ordering::SeqCst);
                }
                Ok(())
            });
            assert_eq!(swept.unwrap(), 16);
        });
        assert!(
            far_while_parked,
            "a write to stripe 12 waited for rows [0, 8)"
        );
        assert!(
            !near_while_parked,
            "a write to stripe 3 landed inside the burst"
        );
        assert!(near_landed.load(Ordering::SeqCst));
        let mut buf = vec![0u8; BS];
        f.read_record(9, &mut buf).unwrap();
        assert_eq!(buf, rec(1003));
        assert!(crate::scrub::scrub(&f).unwrap().is_empty());
    }

    #[test]
    fn rebuild_refuses_a_device_past_the_volume() {
        let v = vol();
        let err = rebuild_device(&v, 6, RebuildThrottle::UNBOUNDED).unwrap_err();
        assert!(matches!(err, FsError::BadSpec(_)), "{err:?}");
        assert!(!v.is_degraded());
    }
}
