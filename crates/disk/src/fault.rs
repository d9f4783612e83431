//! Deterministic fault injection for online fault-management tests.
//!
//! The paper's §5 observes that aggregate MTBF falls linearly with
//! device count — a parallel file system therefore has to treat device
//! faults as routine events on the live request path, not as an offline
//! experiment condition. [`FaultDevice`] wraps any [`BlockDevice`] and
//! injects the four fault classes that matter to the layers above, per a
//! seeded, fully deterministic schedule:
//!
//! * **transient errors** ([`DiskError::Transient`]) — the operation
//!   fails without touching the media; a retry is expected to succeed.
//!   Exercises the executor's retry/backoff loop and the volume's
//!   Suspect health transitions.
//! * **latency spikes** — the operation succeeds but takes an extra
//!   configured delay. Exercises queueing and hedged reads.
//! * **torn writes** — a multi-block write lands only a prefix and then
//!   reports [`DiskError::Transient`]. Exercises redundancy repair: the
//!   retried or reconstructed write must make the span whole again.
//! * **fail-stop** — after a scheduled number of operations the device
//!   fails hard ([`DiskError::DeviceFailed`]) until [`heal`]ed.
//!   Exercises degraded routing and online rebuild.
//!
//! Determinism matters more than realism here: every decision is a pure
//! function of `(seed, operation index)` via a splitmix64 mix, so a
//! failing schedule replays exactly from the seed, regardless of thread
//! timing. (This also keeps the crate free of a runtime `rand`
//! dependency.)
//!
//! [`heal`]: BlockDevice::heal

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use pario_check::{AtomicBool, AtomicU64};

use crate::device::{BlockDevice, DeviceRef, IoCounters};
use crate::error::{DiskError, Result};

/// A seeded fault schedule for one [`FaultDevice`].
///
/// Rates are per-operation probabilities in `[0, 1]`; each operation on
/// the device consumes one schedule slot whose outcomes are derived
/// deterministically from `seed` and the operation index.
#[derive(Copy, Clone, Debug)]
pub struct FaultPlan {
    /// Seed for the deterministic per-operation draws.
    pub seed: u64,
    /// Probability an operation fails with [`DiskError::Transient`].
    pub transient_rate: f64,
    /// Probability an operation is delayed by [`FaultPlan::spike`].
    pub spike_rate: f64,
    /// Extra service delay applied to latency-spiked operations.
    pub spike: Duration,
    /// Probability a multi-block write is torn: a prefix of the blocks
    /// lands, then the write reports [`DiskError::Transient`].
    pub torn_write_rate: f64,
    /// Fail-stop after this many armed operations (the schedule's hard
    /// failure). Trips once; [`BlockDevice::heal`] clears it.
    pub fail_after: Option<u64>,
    /// Deterministic crash point: fail-stop at the Nth armed *write*
    /// boundary (0-based, so `Some(0)` kills the very first write).
    /// Unlike [`FaultPlan::fail_after`], only writes advance the count
    /// — reads model a host that keeps running until the moment power
    /// is lost — and the boundary clock may be shared across devices
    /// ([`FaultDevice::wrap_with_clock`]) so a multi-device volume has
    /// one global write ordering to sweep. Trips once per schedule;
    /// [`BlockDevice::heal`] models restarting on the surviving media.
    pub crash_after_writes: Option<u64>,
    /// Tear the write at the crash point: the first half of a
    /// multi-block write lands before the fail-stop (a single-block
    /// write is atomic and lands nothing). Models losing power mid
    /// transfer instead of exactly between transfers.
    pub crash_torn: bool,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0x5eed_0ffa_u64,
            transient_rate: 0.0,
            spike_rate: 0.0,
            spike: Duration::ZERO,
            torn_write_rate: 0.0,
            fail_after: None,
            crash_after_writes: None,
            crash_torn: false,
        }
    }
}

/// Cumulative injection counters for one [`FaultDevice`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Operations that consumed a schedule slot (armed operations).
    pub ops: u64,
    /// Transient errors injected.
    pub transients: u64,
    /// Latency spikes injected.
    pub spikes: u64,
    /// Torn (prefix-only) writes injected.
    pub torn_writes: u64,
    /// Operations refused because the fail-stop had tripped.
    pub failed_ops: u64,
    /// Armed write boundaries this device has observed on its crash
    /// clock (shared across devices when wrapped with one).
    pub write_boundaries: u64,
}

/// A [`BlockDevice`] wrapper that injects faults per a [`FaultPlan`].
///
/// Thread-safe and deterministic: concurrent callers are assigned
/// schedule slots by an atomic operation counter, and each slot's
/// outcome depends only on `(seed, slot)`. Injection can be toggled with
/// [`FaultDevice::set_armed`] so tests can pre-load data fault-free.
pub struct FaultDevice {
    inner: DeviceRef,
    plan: FaultPlan,
    armed: AtomicBool,
    /// Fail-stop state: `tripped` is the live failure, `consumed` keeps
    /// the schedule from re-tripping after a heal (the replacement
    /// device is a fresh one).
    tripped: AtomicBool,
    consumed: AtomicBool,
    /// One-shot latch for the crash schedule: once the crash point has
    /// fired, a healed (restarted) device does not re-crash.
    crash_consumed: AtomicBool,
    /// Write-boundary clock for [`FaultPlan::crash_after_writes`].
    /// Shared across a device array via
    /// [`FaultDevice::wrap_with_clock`] so the crash point indexes one
    /// volume-wide write ordering.
    wclock: Arc<AtomicU64>,
    op: AtomicU64,
    transients: AtomicU64,
    spikes: AtomicU64,
    torn_writes: AtomicU64,
    failed_ops: AtomicU64,
}

/// What the schedule says about one operation.
struct Outcome {
    transient: bool,
    spike: bool,
    torn: bool,
}

impl FaultDevice {
    /// Wrap `inner` with the fault schedule `plan`, armed immediately.
    pub fn new(inner: DeviceRef, plan: FaultPlan) -> FaultDevice {
        FaultDevice::with_clock(inner, plan, Arc::new(AtomicU64::new(0)))
    }

    /// [`FaultDevice::new`] with a caller-provided write-boundary clock,
    /// so several devices share one global write ordering and
    /// [`FaultPlan::crash_after_writes`] means "the Nth write anywhere
    /// in the array" — the shape a crash/remount sweep needs.
    pub fn with_clock(inner: DeviceRef, plan: FaultPlan, wclock: Arc<AtomicU64>) -> FaultDevice {
        FaultDevice {
            inner,
            plan,
            armed: AtomicBool::new(true),
            tripped: AtomicBool::new(false),
            consumed: AtomicBool::new(false),
            crash_consumed: AtomicBool::new(false),
            wclock,
            op: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            failed_ops: AtomicU64::new(0),
        }
    }

    /// Wrap and return as a shared [`DeviceRef`] plus the typed handle
    /// (for arming and counter access) — the common test arrangement.
    pub fn wrap(inner: DeviceRef, plan: FaultPlan) -> (Arc<FaultDevice>, DeviceRef) {
        let dev = Arc::new(FaultDevice::new(inner, plan));
        (Arc::clone(&dev), dev as DeviceRef)
    }

    /// A fresh write-boundary clock for [`FaultDevice::wrap_with_clock`],
    /// starting at boundary zero. Kept behind a constructor so callers
    /// never name the atomic type (which differs under the checked
    /// concurrency build).
    pub fn write_clock() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    /// [`FaultDevice::wrap`] with a shared write-boundary clock.
    pub fn wrap_with_clock(
        inner: DeviceRef,
        plan: FaultPlan,
        wclock: Arc<AtomicU64>,
    ) -> (Arc<FaultDevice>, DeviceRef) {
        let dev = Arc::new(FaultDevice::with_clock(inner, plan, wclock));
        (Arc::clone(&dev), dev as DeviceRef)
    }

    /// Enable or disable injection. While disarmed the wrapper is a pure
    /// passthrough and consumes no schedule slots.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Injection counters so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            ops: self.op.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            transients: self.transients.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            spikes: self.spikes.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            torn_writes: self.torn_writes.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            failed_ops: self.failed_ops.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            write_boundaries: self.wclock.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
        }
    }

    /// Write boundaries observed on this device's crash clock so far. A
    /// crash sweep first runs the workload fault-free to learn how many
    /// boundaries exist, then replays it once per boundary.
    pub fn write_boundaries(&self) -> u64 {
        self.wclock.load(Ordering::SeqCst)
    }

    /// The schedule this device runs.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Draw the schedule outcome for the next operation, handling the
    /// fail-stop trip. `Err` means the operation must not proceed.
    fn admit(&self) -> Result<Option<Outcome>> {
        if self.tripped.load(Ordering::SeqCst) || self.inner.is_failed() {
            self.failed_ops.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
            return Err(DiskError::DeviceFailed {
                device: self.label(),
            });
        }
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let slot = self.op.fetch_add(1, Ordering::Relaxed); // ordering: schedule slot needs uniqueness, not ordering
        if let Some(k) = self.plan.fail_after {
            if slot >= k && !self.consumed.swap(true, Ordering::SeqCst) {
                self.tripped.store(true, Ordering::SeqCst);
            }
            if self.tripped.load(Ordering::SeqCst) {
                self.failed_ops.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
                return Err(DiskError::DeviceFailed {
                    device: self.label(),
                });
            }
        }
        let base = splitmix64(self.plan.seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let outcome = Outcome {
            transient: unit(splitmix64(base ^ 1)) < self.plan.transient_rate,
            spike: unit(splitmix64(base ^ 2)) < self.plan.spike_rate,
            torn: unit(splitmix64(base ^ 3)) < self.plan.torn_write_rate,
        };
        if outcome.spike {
            self.spikes.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
            std::thread::sleep(self.plan.spike);
        }
        Ok(Some(outcome))
    }

    /// Advance the write-boundary clock and fire the deterministic
    /// crash point if this write crosses it. `Err` means the host
    /// crashed: the write did not land (beyond an optional torn
    /// prefix) and the device fail-stops until healed.
    fn crash_gate(&self, block: u64, data: &[u8]) -> Result<()> {
        if !self.armed.load(Ordering::SeqCst) || self.crash_consumed.load(Ordering::SeqCst) {
            return Ok(());
        }
        // The clock always advances on armed writes, crash point or not:
        // a fault-free run of a workload measures how many boundaries a
        // sweep has to cover.
        let w = self.wclock.fetch_add(1, Ordering::SeqCst);
        let Some(n) = self.plan.crash_after_writes else {
            return Ok(());
        };
        if w < n {
            return Ok(());
        }
        if w == n && self.plan.crash_torn {
            let bs = self.inner.block_size();
            let nblocks = data.len() / bs.max(1);
            if nblocks > 1 {
                // Half the transfer reaches the media before power dies.
                let _ = self
                    .inner
                    .write_blocks_at(block, &data[..bs * (nblocks / 2)]);
            }
        }
        self.crash_consumed.store(true, Ordering::SeqCst);
        self.tripped.store(true, Ordering::SeqCst);
        self.failed_ops.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        Err(DiskError::DeviceFailed {
            device: self.label(),
        })
    }

    fn transient(&self) -> DiskError {
        self.transients.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        DiskError::Transient {
            device: self.label(),
        }
    }
}

impl BlockDevice for FaultDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        match self.admit()? {
            Some(o) if o.transient => Err(self.transient()),
            _ => self.inner.read_blocks_at(block, buf),
        }
    }

    /// One crash-clock tick and one schedule slot per call, however many
    /// blocks it moves; only a write of two or more blocks can tear.
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
        self.crash_gate(block, data)?;
        let bs = self.inner.block_size();
        let nblocks = data.len() / bs.max(1);
        match self.admit()? {
            Some(o) if o.torn && nblocks > 1 => {
                // Land a prefix, then report the write as failed — the
                // torn tail is exactly what redundancy must repair.
                self.torn_writes.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
                self.inner
                    .write_blocks_at(block, &data[..bs * (nblocks / 2)])?;
                Err(self.transient())
            }
            Some(o) if o.transient => Err(self.transient()),
            _ => self.inner.write_blocks_at(block, data),
        }
    }

    fn flush(&self) -> Result<()> {
        if self.tripped.load(Ordering::SeqCst) {
            return Err(DiskError::DeviceFailed {
                device: self.label(),
            });
        }
        self.inner.flush()
    }

    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }

    fn fail(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }

    fn heal(&self) {
        // The schedule's fail-stop stays consumed: a healed device is a
        // fresh replacement and does not immediately re-trip.
        self.consumed.store(true, Ordering::SeqCst);
        self.tripped.store(false, Ordering::SeqCst);
        self.inner.heal();
    }

    fn is_failed(&self) -> bool {
        self.tripped.load(Ordering::SeqCst) || self.inner.is_failed()
    }

    fn label(&self) -> String {
        format!("fault({})", self.inner.label())
    }

    fn ionode_stats(&self) -> Option<crate::IoNodeStats> {
        self.inner.ionode_stats()
    }
}

/// The splitmix64 mixer (public-domain constant set): a bijective
/// avalanche over `u64`, good enough to decorrelate schedule slots.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a mixed word onto `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDisk;

    fn faulty(plan: FaultPlan) -> (Arc<FaultDevice>, DeviceRef) {
        FaultDevice::wrap(Arc::new(MemDisk::new(64, 64)) as DeviceRef, plan)
    }

    #[test]
    fn disarmed_is_passthrough() {
        let (h, dev) = faulty(FaultPlan {
            transient_rate: 1.0,
            ..FaultPlan::default()
        });
        h.set_armed(false);
        dev.write_block(1, &[9u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        dev.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        assert_eq!(h.counts(), FaultCounts::default());
        assert!(dev.label().starts_with("fault("));
    }

    #[test]
    fn transients_are_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 42,
            transient_rate: 0.4,
            ..FaultPlan::default()
        };
        let run = || {
            let (h, dev) = faulty(plan);
            let mut errs = Vec::new();
            let mut buf = [0u8; 64];
            for i in 0..200u64 {
                errs.push(dev.read_block(i % 8, &mut buf).is_err());
            }
            (errs, h.counts())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_eq!(ca, cb);
        assert!(ca.transients > 40 && ca.transients < 160, "{ca:?}");
        // All injected errors are transient, none permanent.
        let (_, dev) = faulty(plan);
        let mut buf = [0u8; 64];
        for i in 0..50u64 {
            if let Err(e) = dev.read_block(i % 8, &mut buf) {
                assert!(e.is_transient(), "unexpected: {e}");
            }
        }
    }

    #[test]
    fn torn_write_lands_a_prefix() {
        let (h, dev) = faulty(FaultPlan {
            torn_write_rate: 1.0,
            ..FaultPlan::default()
        });
        let data = vec![7u8; 64 * 4];
        let err = dev.write_blocks_at(0, &data).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(h.counts().torn_writes, 1);
        // The prefix (2 of 4 blocks) is on media, the tail is not.
        h.set_armed(false);
        let mut buf = vec![0u8; 64 * 4];
        dev.read_blocks_at(0, &mut buf).unwrap();
        assert!(buf[..128].iter().all(|&b| b == 7));
        assert!(buf[128..].iter().all(|&b| b == 0));
        // Single-block writes are never torn.
        h.set_armed(true);
        dev.write_block(8, &[1u8; 64]).unwrap();
    }

    #[test]
    fn fail_stop_trips_on_schedule_and_heals_once() {
        let (h, dev) = faulty(FaultPlan {
            fail_after: Some(5),
            ..FaultPlan::default()
        });
        let mut buf = [0u8; 64];
        for _ in 0..5 {
            dev.read_block(0, &mut buf).unwrap();
        }
        let err = dev.read_block(0, &mut buf).unwrap_err();
        assert!(matches!(err, DiskError::DeviceFailed { .. }));
        assert!(!err.is_transient());
        assert!(dev.is_failed());
        assert!(dev.flush().is_err());
        // Heal = replace: the consumed fail-stop does not re-trip.
        dev.heal();
        for _ in 0..20 {
            dev.read_block(0, &mut buf).unwrap();
        }
        assert!(h.counts().failed_ops >= 1);
    }

    #[test]
    fn latency_spikes_are_counted() {
        let (h, dev) = faulty(FaultPlan {
            spike_rate: 1.0,
            spike: Duration::from_micros(50),
            ..FaultPlan::default()
        });
        let t0 = std::time::Instant::now();
        let mut buf = [0u8; 64];
        for _ in 0..4 {
            dev.read_block(0, &mut buf).unwrap();
        }
        // One schedule slot per single-block read.
        assert_eq!((h.counts().ops, h.counts().spikes), (4, 4));
        assert!(t0.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn crash_point_fires_at_nth_write_boundary() {
        let (h, dev) = faulty(FaultPlan {
            crash_after_writes: Some(2),
            ..FaultPlan::default()
        });
        dev.write_block(0, &[1u8; 64]).unwrap();
        dev.write_block(1, &[2u8; 64]).unwrap();
        let err = dev.write_block(2, &[3u8; 64]).unwrap_err();
        assert!(matches!(err, DiskError::DeviceFailed { .. }));
        assert!(dev.is_failed(), "a crash is a fail-stop");
        // Reads die with the host too.
        let mut buf = [0u8; 64];
        assert!(dev.read_block(0, &mut buf).is_err());
        // Restart on the surviving media: earlier writes landed, the
        // crashed one did not, and the consumed crash does not re-trip.
        dev.heal();
        dev.read_block(1, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
        dev.read_block(2, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "the in-flight write must not land");
        dev.write_block(2, &[3u8; 64]).unwrap();
        // One tick per single-block write up to the crash, none after.
        assert_eq!(h.counts().write_boundaries, 3);
    }

    #[test]
    fn crash_point_optionally_tears_the_in_flight_write() {
        let (_, dev) = faulty(FaultPlan {
            crash_after_writes: Some(0),
            crash_torn: true,
            ..FaultPlan::default()
        });
        let data = vec![9u8; 64 * 4];
        assert!(dev.write_blocks_at(0, &data).is_err());
        dev.heal();
        let mut buf = vec![0u8; 64 * 4];
        dev.read_blocks_at(0, &mut buf).unwrap();
        assert!(buf[..128].iter().all(|&b| b == 9), "prefix lands");
        assert!(buf[128..].iter().all(|&b| b == 0), "tail is lost");
    }

    #[test]
    fn shared_clock_orders_writes_across_devices() {
        let clock = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan {
            crash_after_writes: Some(1),
            ..FaultPlan::default()
        };
        let (_, a) = FaultDevice::wrap_with_clock(
            Arc::new(MemDisk::new(64, 64)) as DeviceRef,
            plan,
            Arc::clone(&clock),
        );
        let (hb, b) = FaultDevice::wrap_with_clock(
            Arc::new(MemDisk::new(64, 64)) as DeviceRef,
            plan,
            Arc::clone(&clock),
        );
        // Boundary 0 is device A's write; boundary 1 — the crash point —
        // is device B's, so the whole array dies there.
        a.write_block(0, &[1u8; 64]).unwrap();
        assert!(b.write_block(0, &[2u8; 64]).is_err());
        assert!(a.write_block(1, &[3u8; 64]).is_err(), "A crashed too");
        assert_eq!(hb.counts().write_boundaries, 3);
        // A fault-free plan still advances the clock, so a counting run
        // can size a sweep.
        let (hc, c) = FaultDevice::wrap_with_clock(
            Arc::new(MemDisk::new(64, 64)) as DeviceRef,
            FaultPlan::default(),
            Arc::new(AtomicU64::new(0)),
        );
        c.write_block(0, &[0u8; 64]).unwrap();
        c.write_block(1, &[0u8; 64]).unwrap();
        assert_eq!(hc.write_boundaries(), 2);
    }

    #[test]
    fn manual_fail_heal_round_trip() {
        let (_, dev) = faulty(FaultPlan::default());
        dev.fail();
        assert!(dev.is_failed());
        let mut buf = [0u8; 64];
        assert!(matches!(
            dev.read_block(0, &mut buf),
            Err(DiskError::DeviceFailed { .. })
        ));
        dev.heal();
        assert!(!dev.is_failed());
        dev.read_block(0, &mut buf).unwrap();
    }
}
