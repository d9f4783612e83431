//! Property test: the degraded-read fallback chain is correct under
//! injected faults. One device of a redundant layout runs an arbitrary
//! seeded fault schedule — transient errors, latency spikes, an optional
//! mid-workload fail-stop — and every span read must still return the
//! exact preloaded bytes, through executor retries, hedged reads, mirror
//! reroutes, and parity reconstruction.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use pario_disk::{mem_array, BlockDevice, DeviceRef, FaultDevice, FaultPlan, IoCounters};
use pario_fs::{FileSpec, HealthState, Volume, VolumeConfig};
use pario_layout::LayoutSpec;

const BS: usize = 256;
const CAP_BYTES: u64 = 32 * BS as u64;

fn layout_strategy() -> impl Strategy<Value = LayoutSpec> {
    prop_oneof![
        (2usize..=3, any::<bool>()).prop_map(|(data_devices, rotated)| LayoutSpec::Parity {
            data_devices,
            rotated
        }),
        (1usize..=2, 1u64..=3).prop_map(|(devices, unit)| LayoutSpec::Shadowed(Box::new(
            LayoutSpec::Striped { devices, unit }
        ))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn span_reads_survive_any_single_device_schedule(
        spec in layout_strategy(),
        seed in any::<u64>(),
        transient_rate in 0.0f64..0.5,
        spike_rate in 0.0f64..0.1,
        fail_after in (any::<bool>(), 0u64..40).prop_map(|(some, k)| some.then_some(k)),
        target_pick in 0usize..64,
        writes in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1200, any::<u8>()), 1..6),
        reads in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1200), 2..8),
        block_reads in proptest::collection::vec((0u64..32, 1u64..=3), 2..8),
    ) {
        // Wrap one layout slot's device in the fault schedule; the
        // default device map is the identity, so slot == device index.
        let target = target_pick % spec.devices_required();
        let mut devices = mem_array(6, 512, BS);
        let (fault, wrapped) = FaultDevice::wrap(devices[target].clone(), FaultPlan {
            seed,
            transient_rate,
            spike_rate,
            spike: Duration::from_micros(10),
            // Reads are never torn, but leave the knob live anyway.
            torn_write_rate: 0.2,
            fail_after,
            crash_after_writes: None,
            crash_torn: false,
        });
        devices[target] = wrapped;
        // Preload fault-free: the schedule applies to the read workload.
        fault.set_armed(false);
        let v = Volume::new(devices).unwrap();
        let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
        let serial = f.clone().with_span_parallel(false);

        let mut model: Vec<u8> = Vec::new();
        for &(off, len, tag) in &writes {
            let len = len.min((CAP_BYTES - off) as usize);
            let data: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
            f.write_span(off, &data).unwrap();
            let end = off as usize + len;
            if end > model.len() {
                model.resize(end, 0);
            }
            model[off as usize..end].copy_from_slice(&data);
        }

        fault.set_armed(true);
        for &(off, len) in &reads {
            let off = (off as usize).min(model.len().saturating_sub(1));
            let len = len.min(model.len() - off);
            let mut a = vec![0u8; len];
            f.read_span(off as u64, &mut a).unwrap();
            prop_assert_eq!(
                &a[..],
                &model[off..off + len],
                "parallel read at {}+{} (fault device {}, health {})",
                off, len, target, v.device_health(target)
            );
            let mut b = vec![0u8; len];
            serial.read_span(off as u64, &mut b).unwrap();
            prop_assert_eq!(
                &b[..],
                &model[off..off + len],
                "serial read at {}+{} (fault device {}, health {})",
                off, len, target, v.device_health(target)
            );
        }

        // 1-block and single-run arms: whole-block spans small enough to
        // plan to one device transfer, which a Healthy slot serves on
        // the direct path. An injected fault there must fall back to the
        // same degraded read the routed path gives.
        let allocated = model.len().div_ceil(BS);
        model.resize(allocated * BS, 0);
        for &(first, n) in &block_reads {
            let first = (first as usize).min(allocated - 1);
            let n = (n as usize).min(allocated - first);
            let (at, len) = (first * BS, n * BS);
            for g in [&f, &serial] {
                let mut a = vec![0u8; len];
                g.read_span(at as u64, &mut a).unwrap();
                prop_assert_eq!(
                    &a[..],
                    &model[at..at + len],
                    "block read at {}+{} (fault device {}, health {})",
                    first, n, target, v.device_health(target)
                );
            }
        }

        // The health board only ever walks legal edges, and a tripped
        // fail-stop is reflected as Failed once the workload touched it.
        let snap = v.health_snapshot();
        for h in &snap {
            for w in h.transitions.windows(2) {
                prop_assert!(
                    pario_fs::legal_transition(w[0], w[1]),
                    "illegal health transition {} -> {}", w[0], w[1]
                );
            }
        }
        if fault.counts().failed_ops > 0 {
            prop_assert_eq!(snap[target].state, HealthState::Failed);
        }
    }
}

/// The direct path meets a fail-stop the board has not heard of yet: the
/// error is reported (the slot turns Failed) and the read recovers
/// through the same degraded path as ever — the mirror for a shadowed
/// file, reconstruction for a parity one.
#[test]
fn recoverable_error_on_the_direct_path_falls_back_to_the_degraded_read() {
    for spec in [
        LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
            devices: 2,
            unit: 2,
        })),
        LayoutSpec::Parity {
            data_devices: 2,
            rotated: true,
        },
    ] {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 6,
            device_blocks: 512,
            block_size: BS,
        })
        .unwrap();
        let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
        let data: Vec<u8> = (0..8 * BS).map(|i| (i / 3) as u8).collect();
        f.write_span(0, &data).unwrap();
        // Fail the device under logical block 1 behind the board's back.
        let slot = f.layout().map(1).device;
        let dev = f.meta_snapshot().device_map[slot];
        v.device(dev).fail();
        assert_eq!(v.device_health(dev), HealthState::Healthy);
        let before = v.io_device(dev).ionode_stats().unwrap().serviced;
        let mut got = vec![0u8; BS];
        f.read_span(BS as u64, &mut got).unwrap();
        assert_eq!(got, data[BS..2 * BS]);
        assert_eq!(v.device_health(dev), HealthState::Failed);
        // The failed device saw the direct attempt (and, on the parity
        // file, the per-block probe of the recovery path) and no more.
        let probes = v.io_device(dev).ionode_stats().unwrap().serviced - before;
        assert!((1..=2).contains(&probes), "{probes} requests");
        // Now that the board knows, the slot is routed around entirely.
        let before = v.io_device(dev).ionode_stats().unwrap().serviced;
        f.read_span(BS as u64, &mut got).unwrap();
        assert_eq!(got, data[BS..2 * BS]);
        let after = v.io_device(dev).ionode_stats().unwrap().serviced;
        assert!(after - before <= 1, "{} requests", after - before);
    }
}

/// One failed read is one strike: a transient that outlives the
/// executor's retries on the direct path goes to the mirror without the
/// primary being asked (and the board told) a second time.
#[test]
fn recoverable_error_on_the_direct_path_counts_once_on_the_health_board() {
    let spec = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 2,
    }));
    let primary = spec.build().map(1).device;
    let mut devices = mem_array(4, 512, BS);
    let (fault, wrapped) = FaultDevice::wrap(
        devices[primary].clone(),
        FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::default()
        },
    );
    devices[primary] = wrapped;
    fault.set_armed(false);
    let v = Volume::new(devices).unwrap();
    let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
    let data: Vec<u8> = (0..8 * BS).map(|i| (i / 5) as u8).collect();
    f.write_span(0, &data).unwrap();
    fault.set_armed(true);
    let before = v.io_device(primary).ionode_stats().unwrap().serviced;
    let mut got = vec![0u8; BS];
    f.read_span(BS as u64, &mut got).unwrap();
    assert_eq!(got, data[BS..2 * BS]);
    let h = &v.health_snapshot()[primary];
    assert_eq!((h.state, h.transient_errors), (HealthState::Healthy, 1));
    let asked = v.io_device(primary).ionode_stats().unwrap().serviced - before;
    assert_eq!(asked, 1, "the primary was asked once");
}

/// Every I/O completion feeds the board, the hedged read's included: a
/// Suspect primary whose copy wins the race collects the consecutive OKs
/// that walk it back to Healthy, instead of staying Suspect (and every
/// sub-block read staying doubled) for as long as nothing but hedged
/// reads touch it. Counted in events: the mirror's reads park at a gate,
/// so the primary wins every race, and exactly `recover_after` hedged
/// reads walk it back.
#[test]
fn hedged_sub_block_reads_walk_a_suspect_primary_back_to_healthy() {
    let spec = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 2,
    }));
    let primary = spec.build().map(0).device;
    let mirror = primary + 2;
    let mut devices = mem_array(4, 512, BS);
    let gate = Gate::wrap(devices[mirror].clone());
    devices[mirror] = gate.clone();
    let (fault, wrapped) = FaultDevice::wrap(
        devices[primary].clone(),
        FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::default()
        },
    );
    devices[primary] = wrapped;
    fault.set_armed(false);
    let v = Volume::new(devices).unwrap();
    let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
    let rec = [0xA5u8; 64];
    f.write_record(0, &rec).unwrap();
    // Strike the primary out: each read is one transient on the board.
    fault.set_armed(true);
    let mut got = [0u8; 64];
    for _ in 0..8 {
        f.read_record(0, &mut got).unwrap();
        assert_eq!(got, rec);
    }
    assert_eq!(v.device_health(primary), HealthState::Suspect);
    // The spike is over; only sub-block (hence hedged) reads follow, and
    // the mirror's copies wait at the gate.
    fault.set_armed(false);
    gate.close();
    let recover_after = v.health().policy().recover_after;
    for k in 1..=recover_after {
        f.read_record(0, &mut got).unwrap();
        assert_eq!(got, rec);
        let want = if k < recover_after {
            HealthState::Suspect
        } else {
            HealthState::Healthy
        };
        assert_eq!(v.device_health(primary), want, "after {k} hedged reads");
    }
    assert!(!gate.seen().1, "a read waited out the mirror's gate");
    gate.open();
}

/// Ragged parity span writes with one device down, in each way a device
/// can be down: failed behind the board's back (the plan's own reads and
/// writes discover it), marked Failed, and Rebuilding (healed media the
/// board still routes reads around, so every read-back reconstructs that
/// device's blocks from the stripe the write just left). With a second
/// device dead the write reports the fail-stop instead.
#[test]
fn ragged_parity_span_writes_survive_one_device_down_in_every_state() {
    for (data_devices, rotated) in [(2usize, true), (3, true), (3, false), (4, true)] {
        let spec = LayoutSpec::Parity {
            data_devices,
            rotated,
        };
        for down in 0..spec.devices_required() {
            let v = Volume::create_in_memory(VolumeConfig {
                devices: 6,
                device_blocks: 512,
                block_size: BS,
            })
            .unwrap();
            let f = v
                .create_file(FileSpec::new("f", 64, 4, spec.clone()))
                .unwrap();
            let mut model: Vec<u8> = (0..CAP_BYTES as usize).map(|i| (i / 5) as u8).collect();
            f.write_span(0, &model).unwrap();
            let dev = f.meta_snapshot().device_map[down];
            let mut got = vec![0u8; model.len()];
            let mut write_ragged = |first: usize, blocks: usize, tag: u8, what: &str| {
                let (at, len) = (first * BS, blocks * BS);
                let data: Vec<u8> = (0..len).map(|i| tag.wrapping_add((i / 3) as u8)).collect();
                let ctx = format!("w={data_devices} rotated={rotated} slot {down} {what}");
                f.write_span(at as u64, &data)
                    .unwrap_or_else(|e| panic!("{ctx}: write failed: {e}"));
                model[at..at + len].copy_from_slice(&data);
                got.fill(0);
                f.read_span(0, &mut got).unwrap();
                assert_eq!(got, model, "{ctx}: read-back");
            };

            v.device(dev).fail();
            assert_eq!(v.device_health(dev), HealthState::Healthy);
            write_ragged(
                1,
                4 * data_devices + 1,
                0x11,
                "failed behind the board's back",
            );
            write_ragged(data_devices - 1, 2, 0x22, "failed, one partial stripe pair");

            v.health().mark_failed(dev);
            write_ragged(data_devices + 1, 3 * data_devices, 0x33, "marked Failed");
            write_ragged(2, 1, 0x44, "marked Failed, one block");

            v.device(dev).heal();
            v.health().begin_rebuild(dev, || ());
            assert_eq!(v.device_health(dev), HealthState::Rebuilding);
            write_ragged(2, 5 * data_devices - 1, 0x55, "Rebuilding");
            write_ragged(data_devices + 1, 1, 0x66, "Rebuilding, one block");

            // A second dead device is past what one parity block absorbs.
            v.device(dev).fail();
            let other = f.meta_snapshot().device_map[(down + 1) % spec.devices_required()];
            v.device(other).fail();
            let data = vec![0x77u8; (3 * data_devices + 1) * BS];
            match f.write_span(BS as u64, &data) {
                Err(pario_fs::FsError::Disk(pario_disk::DiskError::DeviceFailed { .. })) => {}
                other => panic!("two devices down: expected fail-stop, got {other:?}"),
            }
        }
    }
}

/// A device whose reads, while its gate is closed, park until it opens:
/// a read still parked is one nobody has waited out. A guard timeout
/// lets parked reads through rather than hang the test, and is marked,
/// which fails it.
struct Gate {
    inner: DeviceRef,
    /// (closed, reads parked now, the guard opened it)
    state: Mutex<(bool, u64, bool)>,
    cv: Condvar,
}

impl Gate {
    const GUARD: Duration = Duration::from_secs(30);

    fn wrap(inner: DeviceRef) -> Arc<Gate> {
        let state = Mutex::new((false, 0, false));
        Arc::new(Gate {
            inner,
            state,
            cv: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().unwrap().0 = true;
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = false;
        self.cv.notify_all();
    }

    /// (reads parked now, the guard opened the gate)
    fn seen(&self) -> (u64, bool) {
        let g = self.state.lock().unwrap();
        (g.1, g.2)
    }

    /// Wait until a read is parked (or the guard has opened the gate).
    fn wait_parked(&self) {
        let g = self.state.lock().unwrap();
        let none_yet = |g: &mut (bool, u64, bool)| g.1 == 0 && !g.2;
        drop(
            self.cv
                .wait_timeout_while(g, Self::GUARD, none_yet)
                .unwrap(),
        );
    }
}

impl BlockDevice for Gate {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        let mut g = self.state.lock().unwrap();
        if g.0 {
            g.1 += 1;
            self.cv.notify_all();
            let closed = |g: &mut (bool, u64, bool)| g.0;
            let (mut after, waited) = self.cv.wait_timeout_while(g, Self::GUARD, closed).unwrap();
            if waited.timed_out() {
                *after = (false, after.1, true);
                self.cv.notify_all();
            }
            after.1 -= 1;
        }
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        self.inner.write_blocks_at(block, data)
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn fail(&self) {
        self.inner.fail()
    }
    fn heal(&self) {
        self.inner.heal()
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
}

/// A Suspect primary is hedged whatever the read's size — a sub-block
/// record, one whole block, a span of several runs: both copies are
/// submitted and the first success wins. A primary stuck in a latency
/// spike therefore costs the mirror's latency, not its own, and the
/// mirror transfer is the answer rather than extra load. Counted in
/// events, not time: the primary's reads park at a gate until every
/// read has returned, so a read that waited out the primary could not
/// have returned at all.
#[test]
fn suspect_span_reads_race_the_mirror_instead_of_waiting_out_the_primary() {
    const SPIKE: Duration = Duration::from_millis(20);
    let spec = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 2,
    }));
    let primary = spec.build().map(0).device;
    let mirror = primary + 2;
    let mut devices = mem_array(4, 512, BS);
    let (fault, wrapped) = FaultDevice::wrap(
        devices[primary].clone(),
        FaultPlan {
            spike_rate: 1.0,
            spike: SPIKE,
            ..FaultPlan::default()
        },
    );
    let gate = Gate::wrap(wrapped);
    devices[primary] = gate.clone();
    fault.set_armed(false);
    let v = Volume::new(devices).unwrap();
    let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
    let data: Vec<u8> = (0..8 * BS).map(|i| (i / 7) as u8).collect();
    f.write_span(0, &data).unwrap();
    let glitch = pario_disk::DiskError::Transient { device: "d".into() };
    for _ in 0..v.health().policy().suspect_after {
        v.health().note_error(primary, &glitch, || true);
    }
    assert_eq!(v.device_health(primary), HealthState::Suspect);
    fault.set_armed(true);
    gate.close();

    let serviced = |d: usize| v.io_device(d).ionode_stats().unwrap().serviced;
    let (p0, m0) = (serviced(primary), serviced(mirror));
    // Bytes 0..64 (sub-block), block 0, blocks 0..2 (one run on the
    // primary), blocks 0..6 (the primary's two runs and its peer's one).
    let spans = [(0, 64), (0, BS), (0, 2 * BS), (0, 6 * BS)];
    for (at, len) in spans {
        let mut got = vec![0u8; len];
        f.read_span(at as u64, &mut got).unwrap();
        assert_eq!(got, data[at..at + len], "read at {at}+{len}");
        assert!(
            !gate.seen().1 && serviced(primary) == p0,
            "read at {at}+{len} returned once the primary was let through: it waited it out"
        );
    }
    // Both copies were asked, every time: the mirror answered, while the
    // primary's first read sat parked with the rest queued behind it.
    assert_eq!(serviced(mirror) - m0, spans.len() as u64);
    gate.wait_parked();
    assert_eq!(gate.seen(), (1, false), "the primary was not asked");
    assert_eq!(serviced(primary), p0);
    // Released, the primary works its spikes off behind the reads.
    gate.open();
    let deadline = std::time::Instant::now() + Gate::GUARD;
    while serviced(primary) - p0 < spans.len() as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "the primary's reads never completed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fault.counts().spikes, spans.len() as u64);
}
