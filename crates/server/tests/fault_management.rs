//! The ISSUE acceptance scenario, end to end: a 4-device shadowed
//! volume under an injected fail-stop + transient schedule serves a
//! concurrent 8-client read/write workload with zero data errors while
//! the faulted device walks Healthy → Failed → Rebuilding → Healthy
//! through an *online* rebuild — foreground traffic never stops.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pario_core::{Organization, ParallelFile};
use pario_disk::{mem_array, FaultDevice, FaultPlan};
use pario_fs::{HealthState, Volume};
use pario_layout::LayoutSpec;
use pario_reliability::{rebuild_device, RebuildThrottle};
use pario_server::{Server, ServerConfig, ServerError};

const REC: usize = 256;
const RECORDS: u64 = 128;
const CLIENTS: u64 = 8;
const PER_CLIENT: u64 = RECORDS / CLIENTS;
const FAULT_DEV: usize = 1;

fn pat(r: u64, tag: u8) -> Vec<u8> {
    (0..REC).map(|i| tag ^ (r as u8) ^ (i as u8)).collect()
}

/// Every read must return *some complete write* of that record — a mix
/// of two writes (torn) or stale garbage is a data error.
fn assert_whole(r: u64, buf: &[u8]) {
    let tag = buf[0] ^ (r as u8);
    assert_eq!(
        buf,
        &pat(r, tag)[..],
        "record {r} is torn / corrupt (inferred tag {tag})"
    );
}

#[test]
fn eight_clients_survive_fail_stop_and_online_rebuild() {
    let mut devices = mem_array(4, 1024, REC);
    let (fault, wrapped) = FaultDevice::wrap(
        devices[FAULT_DEV].clone(),
        FaultPlan {
            seed: 0xfau64 * 17,
            transient_rate: 0.02,
            fail_after: Some(300),
            ..FaultPlan::default()
        },
    );
    devices[FAULT_DEV] = wrapped;
    fault.set_armed(false);

    let volume = Volume::new(devices).unwrap();
    // Shadowed over primaries {0, 1} with mirrors {2, 3}: the faulted
    // device holds one copy of every other record.
    let pf = ParallelFile::create_with_layout(
        &volume,
        "data",
        Organization::GlobalDirect,
        REC,
        1,
        LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        })),
        None,
    )
    .unwrap();
    let h = pf.direct_handle().unwrap();
    for r in 0..RECORDS {
        h.write_record(r, &pat(r, 0)).unwrap();
    }
    drop(h);
    drop(pf);

    let server = Server::new(volume, ServerConfig::default());
    fault.set_armed(true);

    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let mut orchestration: Option<String> = None;
    std::thread::scope(|s| {
        // Eight clients, each owning a disjoint record range (one
        // writer per record, so every read-back has a known writer).
        for c in 0..CLIENTS {
            let sess = server.connect();
            let (stop, ops) = (&stop, &ops);
            s.spawn(move || {
                let d = sess.open_direct("data").unwrap();
                let base = c * PER_CLIENT;
                let mut buf = vec![0u8; REC];
                let mut k = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let r = base + k % PER_CLIENT;
                    let tag = (k % 200) as u8 + 1;
                    d.write_record(r, &pat(r, tag)).unwrap();
                    let r2 = base + (k * 7 + 3) % PER_CLIENT;
                    d.read_record(r2, &mut buf).unwrap();
                    assert_whole(r2, &buf);
                    ops.fetch_add(2, Ordering::Relaxed);
                    k += 1;
                }
            });
        }

        // Orchestrate in a closure so ANY failure still releases the
        // clients — otherwise the scope would join forever.
        let run = || -> Result<(), String> {
            let vol = server.volume();
            // The schedule fail-stops the device mid-workload; the
            // health board learns from the executor's error feedback.
            let t0 = Instant::now();
            while vol.device_health(FAULT_DEV) != HealthState::Failed {
                if t0.elapsed() > Duration::from_secs(30) {
                    return Err(format!(
                        "fail-stop never reached the health board; health {:?}, faults {:?}",
                        vol.health_snapshot(),
                        fault.counts()
                    ));
                }
                std::thread::yield_now();
            }
            // The health board names the device a failed op's typed
            // `Degraded` advisory blames, and no other device is down.
            let blamed = vol.health().first_degraded();
            let degraded: Vec<_> = vol
                .health_snapshot()
                .iter()
                .enumerate()
                .filter(|(_, h)| h.state != HealthState::Healthy)
                .map(|(d, h)| (d, h.state))
                .collect();
            let want = (FAULT_DEV, HealthState::Failed);
            if blamed != Some(want) || degraded != [want] {
                return Err(format!(
                    "expected {want:?} alone degraded, got {blamed:?} of {degraded:?}"
                ));
            }

            // Online rebuild while the clients keep hammering the file.
            let before = ops.load(Ordering::SeqCst);
            let report = rebuild_device(
                vol,
                FAULT_DEV,
                RebuildThrottle {
                    burst_blocks: 4,
                    pause: Duration::from_micros(100),
                },
            )
            .map_err(|e| format!("online rebuild failed: {e}"))?;
            if report.shadow_resynced.len() != 1 {
                return Err(format!("unexpected rebuild report {report:?}"));
            }
            let health = vol.device_health(FAULT_DEV);
            if health != HealthState::Healthy {
                return Err(format!(
                    "device {FAULT_DEV} is {health:?} after its rebuild"
                ));
            }
            if ops.load(Ordering::SeqCst) <= before {
                return Err("foreground traffic stalled during the online rebuild".into());
            }
            Ok(())
        };
        let r = run();
        stop.store(true, Ordering::SeqCst);
        orchestration = r.err();
    });
    if let Some(e) = orchestration {
        panic!("{e}");
    }

    // The full cycle is on the record: Healthy → Failed → Rebuilding →
    // Healthy, with at most a Suspect hop from the transient schedule.
    let snap = server.volume().health_snapshot();
    assert_eq!(snap.len(), 4);
    let cycle = [
        HealthState::Healthy,
        HealthState::Failed,
        HealthState::Rebuilding,
        HealthState::Healthy,
    ];
    let mut want = cycle.iter();
    let mut next = want.next();
    for &st in &snap[FAULT_DEV].transitions {
        if Some(&st) == next {
            next = want.next();
        }
    }
    assert!(
        next.is_none(),
        "health history {:?} does not contain the cycle {cycle:?}",
        snap[FAULT_DEV].transitions
    );
    assert!(snap.iter().all(|h| h.state == HealthState::Healthy));
    assert!(server.volume().health().first_degraded().is_none());

    // Zero data errors: every record reads back as one complete write,
    // with the rebuilt device serving (its mirror killed) and vice versa.
    let sess = server.connect();
    let d = sess.open_direct("data").unwrap();
    let mut buf = vec![0u8; REC];
    for dead in [FAULT_DEV + 2, FAULT_DEV] {
        server.volume().device(dead).fail();
        for r in 0..RECORDS {
            d.read_record(r, &mut buf).unwrap();
            assert_whole(r, &buf);
        }
        server.volume().device(dead).heal();
    }
    assert!(server.volume().executor_stats().serviced > 0);
    assert!(fault.counts().failed_ops > 0, "the fail-stop never fired");
}

/// A data op that fails on a device the health board has marked down
/// returns the typed advisory naming that device, not an opaque disk
/// error; the ops on the other devices still succeed.
#[test]
fn a_failed_op_names_the_degraded_device() {
    let volume = Volume::new(mem_array(4, 64, REC)).unwrap();
    let pf = ParallelFile::create(&volume, "plain", Organization::GlobalDirect, REC, 1).unwrap();
    let h = pf.direct_handle().unwrap();
    for r in 0..4 {
        h.write_record(r, &pat(r, 0)).unwrap();
    }
    let server = Server::new(volume, ServerConfig::default());
    let d = server.connect().open_direct("plain").unwrap();
    server.volume().device(FAULT_DEV).fail();
    let mut buf = vec![0u8; REC];
    let errors: Vec<_> = (0..4)
        .filter_map(|r| d.read_record(r, &mut buf).err())
        .collect();
    assert_eq!(
        errors,
        vec![ServerError::Degraded {
            device: FAULT_DEV,
            state: HealthState::Failed
        }]
    );
}
