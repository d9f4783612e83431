//! E20 — crash recovery: what the intent journal writes, and what it
//! buys.
//!
//! The dual-slot superblock plus write-ahead intent journal make the
//! volume's metadata crash-consistent at every write boundary (the
//! `crash_recovery` integration sweep is the proof). This experiment
//! quantifies the deal:
//!
//! * **Journal traffic on the write paths.** Overwrites of already-
//!   allocated blocks never touch the journal: the steady lane asserts
//!   that they append no record. The growing lane appends to fresh
//!   files, the journal's worst case — and since allocation runs ahead
//!   of the append cursor (`Volume::grow_file`) a file of
//!   [`GROW_BLOCKS`] one-block appends journals exactly
//!   [`GROWS_PER_FILE`] `Grow` records, not one per block: asserted in
//!   every run. Both lanes report their time.
//! * **Recovery time.** Mounting a volume with pending intent records
//!   replays them onto the fallback checkpoint; the lane measures a
//!   dirty mount against a clean one. Recovery must actually recover:
//!   the dirty mount replays a known record count (a `Create` and a
//!   first allocation per dirty file) and ends with the full directory
//!   intact.
//! * **Crash sweep.** A bounded rerun of the boundary sweep (every
//!   [`SWEEP_STRIDE`]th boundary, clean and torn) — each crash must
//!   remount with synced data intact, and the lane records how many
//!   boundaries were exercised.
//!
//! `exp --smoke e20` is a CI-sized run (same lanes and verdicts,
//! smaller populations).

use std::sync::Arc;
use std::time::Instant;

use pario_disk::{BlockDevice, DeviceRef, FaultDevice, FaultPlan};
use pario_fs::{FileSpec, RawFile, Volume};
use pario_layout::LayoutSpec;

use crate::measure::{Measured, RUNS};
use crate::rig::{timed, Rig};
use crate::{Report, Size};

/// Block and record size for every lane: small enough that metadata
/// traffic is a visible fraction of the workload (one record per block
/// keeps the arithmetic obvious).
const BS: usize = 512;
/// The growing lane: this many fresh files, each appended this many
/// blocks one at a time. The same in a smoke run — the lane takes
/// milliseconds.
const GROW_FILES: u64 = 4;
const GROW_BLOCKS: u64 = 2048;
/// The run-ahead policy's `Grow` records for one file of
/// [`GROW_BLOCKS`] one-block appends: its first block, eight doublings
/// to 256 blocks, then seven steps of 256.
const GROWS_PER_FILE: u64 = 16;
/// The crash-sweep lane exercises every this-many-th write boundary.
const SWEEP_STRIDE: u64 = 5;

fn rig(blocks: u64) -> Rig {
    Rig::new(4).blocks(blocks).block_size(BS)
}

fn striped(name: &str) -> FileSpec {
    let layout = LayoutSpec::Striped {
        devices: 4,
        unit: 1,
    };
    FileSpec::new(name, BS, 1, layout)
}

/// Journal records `v` appends while `work` runs, and what `work` took.
/// Panics if a checkpoint reset the journal in between.
fn journaled(v: &Volume, work: impl FnOnce()) -> (u64, f64) {
    let before = v.meta_status();
    let secs = timed(work);
    let after = v.meta_status();
    assert_eq!(after.generation, before.generation, "no checkpoint");
    let records = after.journal_pending_records - before.journal_pending_records;
    (records, secs)
}

/// A volume holding "steady", `records` written and checkpointed.
fn steady_file(records: u64) -> (Volume, RawFile) {
    let v = rig(8192).volume();
    let f = v.create_file(striped("steady")).unwrap();
    for r in 0..records {
        f.write_record(r, &[0xA5; BS]).unwrap();
    }
    v.sync_meta().unwrap();
    (v, f)
}

/// One run of the growing lane: every file created from nothing and
/// appended a block at a time, on a fresh volume built outside the
/// timed part. Returns the seconds taken and the `Grow` records per
/// file, which must be the policy's count.
fn grow() -> (f64, u64) {
    let v = rig(8192).volume();
    let (records, secs) = journaled(&v, || {
        for i in 0..GROW_FILES {
            let f = v.create_file(striped(&format!("g{i}"))).unwrap();
            for r in 0..GROW_BLOCKS {
                f.write_record(r, &[0x5A; BS]).unwrap();
            }
        }
    });
    // One `Create` a file, the rest `Grow`s.
    let grows = (records - GROW_FILES) / GROW_FILES;
    assert_eq!(
        grows * GROW_FILES,
        records - GROW_FILES,
        "{records} records"
    );
    assert_eq!(grows, GROWS_PER_FILE, "Grow records per file");
    (secs, grows)
}

/// One run of the recovery lane: time a clean mount, then a dirty mount
/// that must replay the intent records of `dirty_ops` creates.
fn recovery_run(base_files: u64, dirty_ops: u64) -> Vec<(&'static str, f64)> {
    let devices = rig(8192).devices();
    {
        let v = rig(8192).volume_over(devices.clone());
        for i in 0..base_files {
            let f = v.create_file(striped(&format!("base{i}"))).unwrap();
            f.write_record(0, &[1; BS]).unwrap();
        }
        v.sync_meta().unwrap();
    }
    // Clean mount: both slots valid, no pending journal records.
    let t0 = Instant::now();
    let v = Volume::mount(devices.clone()).unwrap();
    let clean = t0.elapsed().as_secs_f64();
    assert_eq!(v.mount_report().unwrap().replayed_records, 0);

    // Dirty it: creates + growth after the checkpoint, then "crash"
    // (abandon) so nothing checkpoints the journal away.
    for i in 0..dirty_ops {
        let f = v.create_file(striped(&format!("dirty{i}"))).unwrap();
        f.write_record(0, &[1; BS]).unwrap();
    }
    let pending = v.meta_status().journal_pending_records;
    v.abandon();
    drop(v);

    let t0 = Instant::now();
    let v = Volume::mount(devices).unwrap();
    let dirty = t0.elapsed().as_secs_f64();
    let replayed = v.mount_report().unwrap().replayed_records;
    // Each dirty file journaled its `Create` and the exact first
    // allocation its one record asked for; nothing ran ahead of it.
    assert_eq!(pending, 2 * dirty_ops, "records pending at the crash");
    assert_eq!(
        replayed, pending,
        "dirty mount replays every pending record"
    );
    assert_eq!(
        v.list().len() as u64,
        base_files + dirty_ops,
        "recovery must restore every journaled create"
    );
    vec![
        ("clean_secs", clean),
        ("dirty_secs", dirty),
        ("replayed_records", replayed as f64),
    ]
}

/// Bounded crash sweep: run a create/write/sync workload over shared-
/// clock fault devices, crashing at every `stride`-th boundary (clean
/// and torn) and remounting. Returns (boundaries total, crashes
/// exercised). Panics if any remount fails or loses synced data.
fn crash_sweep(stride: u64) -> (u64, u64) {
    let payload = |r: u64| vec![r as u8 + 1; BS];
    let run = |crash_at: Option<u64>, torn: bool| -> (Vec<DeviceRef>, Vec<Arc<FaultDevice>>, u64) {
        let clock = FaultDevice::write_clock();
        let plan = FaultPlan {
            crash_after_writes: crash_at,
            crash_torn: torn,
            ..FaultPlan::default()
        };
        let (faults, devices): (Vec<_>, Vec<_>) = rig(2048)
            .devices()
            .into_iter()
            .map(|base| FaultDevice::wrap_with_clock(base, plan, Arc::clone(&clock)))
            .unzip();
        let arm = |armed: bool| faults.iter().for_each(|f| f.set_armed(armed));
        arm(false);
        let v = rig(2048).volume_over(devices.clone());
        arm(true);
        let work = || -> pario_fs::Result<()> {
            for (name, records) in [("a", 8), ("b", 12)] {
                let f = v.create_file(striped(name))?;
                for r in 0..records {
                    f.write_record(r, &payload(r))?;
                }
                v.sync_meta()?;
            }
            Ok(())
        };
        let _ = work();
        arm(false);
        let boundaries = faults[0].write_boundaries();
        v.abandon();
        drop(v);
        (devices, faults, boundaries)
    };
    let (_, _, total) = run(None, false);
    let mut exercised = 0;
    for torn in [false, true] {
        for b in (0..total).step_by(stride as usize) {
            let (devices, faults, _) = run(Some(b), torn);
            faults.iter().for_each(|f| f.heal());
            let v = Volume::mount(devices)
                .unwrap_or_else(|e| panic!("boundary {b} torn={torn}: remount failed: {e}"));
            // Anything synced before the crash must read back exactly.
            if v.list().iter().any(|n| n == "a") {
                let a = v.open("a").unwrap();
                let mut buf = vec![0u8; BS];
                for r in 0..a.len_records().min(8) {
                    a.read_record(r, &mut buf).unwrap();
                    assert_eq!(buf, payload(r), "boundary {b} torn={torn}: a/{r}");
                }
            }
            exercised += 1;
        }
    }
    (total, exercised)
}

/// The steady and growing lanes, mount-time replay, and the sweep.
pub fn run(size: Size) -> Report {
    let (records, passes, base_files, dirty_ops) = size.pick((512, 32, 24, 16), (256, 16, 8, 6));
    let mut lanes = Measured::new("e20_recovery");

    // Steady-state overwrites of blocks the file already holds.
    let (v, f) = steady_file(records);
    let overwrite = || {
        for _ in 0..passes {
            for r in 0..records {
                f.write_record(r, &[0xA5; BS]).unwrap();
            }
        }
    };
    overwrite(); // one untimed warm-up
    let steady = lanes.lane("steady", RUNS, || {
        let (appended, secs) = journaled(&v, overwrite);
        assert_eq!(appended, 0, "an overwrite appended a journal record");
        vec![
            ("overwrite_secs", secs),
            ("journal_records", appended as f64),
        ]
    });

    // Appends to fresh files (the journal's worst case).
    let growing = lanes.lane("grow", RUNS, || {
        let (secs, grows) = grow();
        vec![("append_secs", secs), ("records_per_file", grows as f64)]
    });

    lanes.lane("mount", RUNS, || recovery_run(base_files, dirty_ops));

    let stride = SWEEP_STRIDE * size.pick(1, 2);
    let (boundaries, crashes) = crash_sweep(stride);
    lanes
        .fact("sweep_boundaries", boundaries as f64)
        .fact("sweep_crash_points", crashes as f64);

    let mut r = Report::default();
    r.measured(lanes)
        .check(
            "steady-state overwrites append no journal record",
            steady["journal_records"].hi == 0.0,
        )
        .check(
            format!(
                "a file of {GROW_BLOCKS} one-block appends journals \
                 {GROWS_PER_FILE} Grow records"
            ),
            growing["records_per_file"].lo == GROWS_PER_FILE as f64
                && growing["records_per_file"].hi == GROWS_PER_FILE as f64,
        )
        .check(
            format!(
                "{crashes} crash points over {boundaries} write boundaries (stride {stride}, \
                 clean + torn) all remounted with synced data intact"
            ),
            crashes > 0 && boundaries > 0,
        );
    r
}
