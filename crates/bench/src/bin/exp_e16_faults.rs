//! E16 — online fault management. One claim, end to end: a shadowed
//! volume under an injected fail-stop keeps serving its foreground
//! workload through the *entire* fault cycle — brownout, detection,
//! and an online rebuild — and foreground throughput never drops to
//! zero while the rebuild's throttled bursts share the stripes.
//!
//! The timeline is sampled at a fixed interval and bucketed by phase
//! (healthy → degraded → rebuilding → recovered); each run reports its
//! per-phase throughput and the slowest slice of its rebuild phase.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pario_bench::banner;
use pario_bench::measure::{Report, RUNS};
use pario_bench::rig::{inject, mirrored, Rig};
use pario_disk::FaultPlan;
use pario_fs::{FileSpec, HealthState};
use pario_reliability::{rebuild_device_online, RebuildThrottle};

const BS: usize = 256;
const RECORDS: u64 = 256;
const WORKERS: u64 = 4;
const FAULT_DEV: usize = 1;
const SAMPLE: Duration = Duration::from_millis(5);
/// How long each steady phase runs before the next transition.
const DWELL: Duration = Duration::from_millis(120);

const PHASES: [&str; 4] = [
    "healthy_ops_per_sec",
    "degraded_ops_per_sec",
    "rebuilding_ops_per_sec",
    "recovered_ops_per_sec",
];
const REBUILDING: usize = 2;

/// One whole fault cycle on a fresh volume. Panics if any 5 ms slice of
/// the rebuild phase saw no foreground operation.
fn fault_cycle() -> Vec<(&'static str, f64)> {
    let rig = Rig::new(4).block_size(BS);
    let mut devices = rig.devices();
    let fault = inject(
        &mut devices,
        FAULT_DEV,
        FaultPlan {
            seed: 0xe16,
            transient_rate: 0.01,
            fail_after: Some(4000),
            ..FaultPlan::default()
        },
    );
    let v = rig.volume_over(devices);
    let f = v
        .create_file(FileSpec::new("data", BS, 1, mirrored(2)))
        .unwrap();
    for r in 0..RECORDS {
        f.write_record(r, &vec![(r + 1) as u8; BS]).unwrap();
    }

    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let phase = AtomicUsize::new(0);
    // (elapsed, phase at sample time, cumulative ops) every SAMPLE tick.
    let timeline = parking_lot::Mutex::new(Vec::<(Duration, usize, u64)>::new());
    let t0 = Instant::now();
    let mut out = Vec::new();

    crossbeam::thread::scope(|s| {
        for w in 0..WORKERS {
            let (f, stop, ops) = (f.clone(), &stop, &ops);
            s.spawn(move |_| {
                let span = RECORDS / WORKERS;
                let base = w * span;
                let mut buf = vec![0u8; BS];
                let mut k = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let r = base + k % span;
                    f.write_record(r, &vec![(r + 1) as u8; BS]).unwrap();
                    f.read_record(base + (k * 5 + 1) % span, &mut buf).unwrap();
                    ops.fetch_add(2, Ordering::Relaxed);
                    k += 1;
                }
            });
        }
        let (stop, ops, phase, timeline) = (&stop, &ops, &phase, &timeline);
        s.spawn(move |_| {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(SAMPLE);
                timeline.lock().push((
                    t0.elapsed(),
                    phase.load(Ordering::SeqCst),
                    ops.load(Ordering::Relaxed),
                ));
            }
        });

        // Healthy baseline, fault schedule disarmed.
        std::thread::sleep(DWELL);

        // Arm the schedule; the workload trips the fail-stop and the
        // health board learns of it from I/O error feedback.
        phase.store(1, Ordering::SeqCst);
        fault.set_armed(true);
        let armed_at = Instant::now();
        while v.device_health(FAULT_DEV) != HealthState::Failed {
            assert!(
                armed_at.elapsed() < Duration::from_secs(30),
                "fail-stop never reached the health board: {:?}",
                v.health_snapshot()
            );
            std::thread::yield_now();
        }
        out.push(("detect_secs", armed_at.elapsed().as_secs_f64()));
        // Let the degraded regime run visibly before repair begins.
        std::thread::sleep(DWELL);

        // Online rebuild, throttled so foreground I/O keeps flowing
        // between bursts.
        phase.store(REBUILDING, Ordering::SeqCst);
        let rb0 = Instant::now();
        let throttle = RebuildThrottle {
            burst_blocks: 8,
            pause: Duration::from_millis(2),
        };
        let rebuilt = rebuild_device_online(&v, FAULT_DEV, throttle).unwrap();
        out.push(("rebuild_secs", rb0.elapsed().as_secs_f64()));
        assert_eq!(v.device_health(FAULT_DEV), HealthState::Healthy);
        let resynced: u64 = rebuilt.shadow_resynced.iter().map(|(_, n)| n).sum();
        out.push(("resynced_blocks", resynced as f64));

        phase.store(3, Ordering::SeqCst);
        std::thread::sleep(DWELL);
        stop.store(true, Ordering::SeqCst);
    })
    .unwrap();

    // Bucket the timeline by phase.
    let samples = std::mem::take(&mut *timeline.lock());
    for (p, key) in PHASES.iter().enumerate() {
        let in_phase: Vec<_> = samples.iter().filter(|(_, ph, _)| *ph == p).collect();
        assert!(in_phase.len() >= 2, "{key}: phase too short to sample");
        let (first, last) = (in_phase[0], in_phase[in_phase.len() - 1]);
        out.push((
            key,
            (last.2 - first.2) as f64 / (last.0 - first.0).as_secs_f64(),
        ));
        if p == REBUILDING {
            let slowest = in_phase.windows(2).map(|w| w[1].2 - w[0].2).min();
            // The headline claim: the throttle kept the stripes shared.
            assert!(
                slowest > Some(0),
                "foreground throughput dropped to zero during the online rebuild"
            );
            out.push(("rebuild_min_ops_per_slice", slowest.unwrap_or(0) as f64));
        }
    }
    out
}

fn main() {
    banner(
        "E16 (online fault management)",
        "a shadowed volume rides out an injected fail-stop: foreground \
         reads and writes keep flowing while the device is detected, \
         declared Failed, and rebuilt online through throttled bursts",
    );
    let mut report = Report::new("e16_faults");
    report
        .fact("records", RECORDS as f64)
        .fact("workers", WORKERS as f64);
    let cycle = report.lane("cycle", RUNS, fault_cycle);
    report.check(
        &format!(
            "foreground never stalled: every 5ms slice of every rebuild \
             completed operations (median slowest slice {:.0})",
            cycle["rebuild_min_ops_per_slice"].median
        ),
        cycle["rebuild_min_ops_per_slice"].lo > 0.0,
    );
    report.finish();
}
