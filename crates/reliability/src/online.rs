//! Online rebuild: recovering a replaced drive *while the volume keeps
//! serving*.
//!
//! The offline path ([`crate::rebuild_device`]) holds each file's stripe
//! lock for the whole sweep — correct, but foreground traffic stalls for
//! the duration. The online path here drives the same per-stripe /
//! per-block replay through the volume's health state machine instead:
//!
//! 1. `begin_rebuild(device, heal)` — the device flips to `Rebuilding`;
//!    foreground reads route around it (its media is stale) and shadow
//!    writes switch to the stripe-locked regime.
//! 2. Under the same board mutex, `heal()` the device so its media
//!    accepts I/O again: a fail-stop report raised against the dead
//!    media is judged either before the flip or after the heal, never
//!    between, so it cannot abort the rebuild it preceded.
//! 3. Per file, `quiesce_io()` — wait out any I/O that sampled the old
//!    health state (Dekker-style counter handshake).
//! 4. Replay redundancy in **bursts**: each burst takes the stripe lock,
//!    copies up to [`RebuildThrottle::burst_blocks`] blocks, releases the
//!    lock and sleeps [`RebuildThrottle::pause`] — so foreground writers
//!    interleave with the sweep and throughput never drops to zero.
//! 5. `complete_rebuild(device)` — back to `Healthy`, unless the device
//!    failed again mid-rebuild (the racing failure report wins).

use pario_disk::DiskError;
use pario_fs::{FsError, Result, Volume};
use pario_layout::LayoutSpec;

use crate::rebuild::{
    rebuild_parity_slot_in_bursts, resync_shadow_in_bursts, RebuildReport, RebuildThrottle,
};

/// Rebuild every file that stored data on device `device_idx`, online:
/// the volume keeps serving degraded I/O throughout, and foreground
/// writes interleave with the throttled replay bursts.
///
/// Drives the full health cycle `begin_rebuild` (flip + heal) → per-file
/// quiesce + replay → `complete_rebuild`. On a replay error the device
/// is marked Failed again and the error surfaces; likewise if the
/// device fails *during* the rebuild, `complete_rebuild` refuses and
/// this returns the fail-stop error instead of silently reporting
/// success.
pub fn rebuild_device_online(
    vol: &Volume,
    device_idx: usize,
    throttle: RebuildThrottle,
) -> Result<RebuildReport> {
    // Flip, then heal, as one step of the board: once media accepts I/O
    // again every reader already routes around it and shadow writers
    // are stripe-locked, and no fail-stop report raised against the
    // dead media is judged in between (it would abort this rebuild).
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
            // Drain I/O that sampled health before the flip.
            raw.quiesce_io();
            match &meta.layout {
                LayoutSpec::Parity { .. } => {
                    let n = rebuild_parity_slot_in_bursts(&raw, slot, throttle)?;
                    report.parity_rebuilt.push((name, n));
                }
                LayoutSpec::Shadowed(_) => {
                    let n = resync_shadow_in_bursts(&raw, slot, throttle)?;
                    report.shadow_resynced.push((name, n));
                }
                _ => report.unprotected.push(name),
            }
        }
        Ok(report)
    };
    match sweep() {
        Ok(report) => {
            if vol.health().complete_rebuild(device_idx) {
                Ok(report)
            } else {
                // The device failed again mid-rebuild; the racing
                // failure report wins and the rebuild did not complete.
                Err(FsError::Disk(DiskError::DeviceFailed {
                    device: format!("device {device_idx} (failed during rebuild)"),
                }))
            }
        }
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
    use std::time::Duration;

    const BS: usize = 256;

    fn vol(devices: usize) -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices,
            device_blocks: 256,
            block_size: BS,
        })
        .unwrap()
    }

    fn rec(tag: u64) -> Vec<u8> {
        (0..BS).map(|i| (tag as usize * 41 + i) as u8).collect()
    }

    #[test]
    fn online_parity_rebuild_round_trips_health() {
        let v = vol(4);
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
            f.write_record(r, &rec(r)).unwrap();
        }
        v.device(1).fail();
        // First touch detects the fail-stop and transitions Failed.
        let mut buf = vec![0u8; BS];
        for r in 0..24u64 {
            f.read_record(r, &mut buf).unwrap();
        }
        assert_eq!(v.device_health(1), HealthState::Failed);
        // Writes during the outage keep parity coherent.
        f.write_record(2, &rec(99)).unwrap();

        let report = rebuild_device_online(&v, 1, RebuildThrottle::default()).unwrap();
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

    #[test]
    fn online_shadow_resync_restores_mirror() {
        let v = vol(4);
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
        for r in 0..16u64 {
            f.write_record(r, &rec(r)).unwrap();
        }
        v.device(0).fail();
        let mut buf = vec![0u8; BS];
        f.read_record(0, &mut buf).unwrap(); // detect
        assert_eq!(v.device_health(0), HealthState::Failed);
        f.write_record(0, &rec(77)).unwrap(); // survives on the mirror

        let report = rebuild_device_online(&v, 0, RebuildThrottle::default()).unwrap();
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
        let v = vol(4);
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

    #[test]
    fn foreground_writes_flow_during_online_rebuild() {
        let v = vol(4);
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
        let done = std::sync::atomic::AtomicBool::new(false);
        let wrote = std::sync::atomic::AtomicU64::new(0);
        crossbeam::thread::scope(|s| {
            let fg = s.spawn(|_| {
                let mut k = 0u64;
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    let r = k % n;
                    f.write_record(r, &rec(1000 + r)).unwrap();
                    wrote.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    k += 1;
                }
            });
            let throttle = RebuildThrottle {
                burst_blocks: 4,
                pause: Duration::from_micros(100),
            };
            rebuild_device_online(&v, 1, throttle).unwrap();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            fg.join().unwrap();
        })
        .unwrap();
        assert_eq!(v.device_health(1), HealthState::Healthy);
        assert!(
            wrote.load(std::sync::atomic::Ordering::SeqCst) > 0,
            "foreground made progress during the rebuild"
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
}
