//! E20 — crash recovery: what the intent journal costs, and what it
//! buys.
//!
//! The dual-slot superblock plus write-ahead intent journal make the
//! volume's metadata crash-consistent at every write boundary (the
//! `crash_recovery` integration sweep is the proof). This experiment
//! quantifies the deal:
//!
//! * **Steady-state journaling overhead.** Overwrites of already-
//!   allocated blocks never touch the journal, so the steady-state
//!   write path must cost (almost) nothing extra: the journal-on /
//!   journal-off throughput ratio is asserted `<=` [`OVERHEAD_BOUND`].
//!   The growing lane appends to fresh files, the journal's worst
//!   case — and since allocation runs ahead of the append cursor
//!   (`Volume::grow_file`) that is a `Grow` record per doubling, not
//!   per block: it is held to the same bound, and the lane reports
//!   `Grow` records per appended block.
//! * **Recovery time.** Mounting a volume with pending intent records
//!   replays them onto the fallback checkpoint; the lane measures a
//!   dirty mount against a clean one and reports the per-record replay
//!   cost. Recovery must actually recover: the dirty mount replays a
//!   known record count (a `Create` and a first allocation per dirty
//!   file) and ends with the full directory intact.
//! * **Crash sweep.** A bounded rerun of the boundary sweep (every
//!   [`SWEEP_STRIDE`]th boundary, clean and torn) — each crash must
//!   remount with synced data intact, and the lane records how many
//!   boundaries were exercised.
//!
//! Set `E20_SMOKE=1` for a CI-sized run (same lanes and assertions,
//! smaller populations).

use std::sync::Arc;
use std::time::Instant;

use pario_bench::banner;
use pario_bench::table::{save_json, secs, Bench, Table};
use pario_disk::{mem_array, BlockDevice, DeviceRef, FaultDevice, FaultPlan, MemDisk};
use pario_fs::{FileSpec, Volume};
use pario_layout::LayoutSpec;

/// Block size for every lane: small enough that metadata traffic is a
/// visible fraction of the workload.
const BS: usize = 512;
/// Record size (one record per block keeps the arithmetic obvious).
const RECORD: usize = 512;
/// Maximum steady-state slowdown the journal may cost (ratio of
/// journal-on time to journal-off time).
const OVERHEAD_BOUND: f64 = 1.10;
/// The growing lane: this many fresh files, each appended this many
/// blocks one at a time. The same in a smoke run — the lane takes
/// milliseconds, and a shorter one is too noisy to hold to a 10 % bound.
const GROW_FILES: u64 = 4;
const GROW_BLOCKS: u64 = 2048;
/// The crash-sweep lane exercises every this-many-th write boundary.
const SWEEP_STRIDE: u64 = 5;

fn smoke() -> bool {
    std::env::var("E20_SMOKE").is_ok()
}

fn volume(devices: usize, blocks: u64) -> Volume {
    let devs: Vec<DeviceRef> = (0..devices)
        .map(|i| Arc::new(MemDisk::named(&format!("mem{i}"), blocks, BS)) as DeviceRef)
        .collect();
    Volume::new(devs).unwrap()
}

fn striped() -> LayoutSpec {
    LayoutSpec::Striped {
        devices: 4,
        unit: 1,
    }
}

/// Steady-state lane: overwrite a preallocated file's records with the
/// journal on and off. Overwrites allocate nothing, so the two paths
/// must be near-identical. The two volumes are prepared up front and
/// the trials interleaved, so clock drift and cold caches hit both
/// sides equally.
fn steady_lane(records: u64, passes: u64) -> (f64, f64) {
    let payload = vec![0xA5u8; RECORD];
    let prepare = |journaling: bool| {
        let v = volume(4, 8192);
        v.set_meta_journaling(journaling).unwrap();
        let f = v
            .create_file(FileSpec::new("steady", RECORD, 1, striped()))
            .unwrap();
        for r in 0..records {
            f.write_record(r, &payload).unwrap();
        }
        v.sync_meta().unwrap();
        (v, f)
    };
    let (_von, fon) = prepare(true);
    let (_voff, foff) = prepare(false);
    let run = |f: &pario_fs::RawFile| {
        for _ in 0..passes {
            for r in 0..records {
                f.write_record(r, &payload).unwrap();
            }
        }
    };
    // One untimed warmup each, then alternating best-of-five.
    run(&fon);
    run(&foff);
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let t0 = Instant::now();
        run(&fon);
        on = on.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        run(&foff);
        off = off.min(t0.elapsed().as_secs_f64());
    }
    (on, off)
}

/// Growing lane: every file is created from nothing and appended a
/// block at a time — the worst case for the journal, since each growth
/// appends and flushes an intent record. Returns (journal-on secs,
/// journal-off secs, `Grow` records journaled per appended block).
fn grow_lane(files: u64, records: u64) -> (f64, f64, f64) {
    let payload = vec![0x5Au8; RECORD];
    // Appends `records` blocks to each of `files` fresh files on a
    // fresh volume (built outside the timed part); returns the seconds
    // taken and, when asked to look, the appends that grew the
    // allocation — one `Grow` record each.
    let run = |journaling: bool, count_grows: bool| {
        let v = volume(4, 8192);
        v.set_meta_journaling(journaling).unwrap();
        let mut grows = 0u64;
        let t0 = Instant::now();
        for i in 0..files {
            let f = v
                .create_file(FileSpec::new(&format!("g{i}"), RECORD, 1, striped()))
                .unwrap();
            for r in 0..records {
                let before = if count_grows { f.nblocks() } else { 0 };
                f.write_record(r, &payload).unwrap();
                grows += u64::from(count_grows && f.nblocks() != before);
            }
        }
        (t0.elapsed().as_secs_f64(), grows)
    };
    let (_, grows) = run(true, true);
    // Alternating best-of-nine, as the steady lane alternates: each
    // side is a few milliseconds, and drift must hit both equally.
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        on = on.min(run(true, false).0);
        off = off.min(run(false, false).0);
    }
    (on, off, grows as f64 / (files * records) as f64)
}

/// Recovery lane: time a clean mount, then a dirty mount that must
/// replay `dirty_ops` intent records. Returns (clean secs, dirty secs,
/// records replayed, files after recovery).
fn recovery_lane(base_files: u64, dirty_ops: u64) -> (f64, f64, u64, usize) {
    let devices = mem_array(4, 8192, BS);
    let payload = vec![1u8; RECORD];
    {
        let v = Volume::new(devices.clone()).unwrap();
        for i in 0..base_files {
            let f = v
                .create_file(FileSpec::new(&format!("base{i}"), RECORD, 1, striped()))
                .unwrap();
            f.write_record(0, &payload).unwrap();
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
        let f = v
            .create_file(FileSpec::new(&format!("dirty{i}"), RECORD, 1, striped()))
            .unwrap();
        f.write_record(0, &payload).unwrap();
    }
    let pending = v.meta_status().journal_pending_records;
    v.abandon();
    drop(v);

    let t0 = Instant::now();
    let v = Volume::mount(devices).unwrap();
    let dirty = t0.elapsed().as_secs_f64();
    let report = v.mount_report().unwrap();
    // Each dirty file journaled its `Create` and the exact first
    // allocation its one record asked for; nothing ran ahead of it.
    assert_eq!(pending, 2 * dirty_ops, "records pending at the crash");
    assert_eq!(
        report.replayed_records, pending,
        "dirty mount must replay every pending intent record"
    );
    let files = v.list().len();
    assert_eq!(
        files,
        (base_files + dirty_ops) as usize,
        "recovery must restore every journaled create"
    );
    (clean, dirty, report.replayed_records, files)
}

/// Bounded crash sweep: run a create/write/sync workload over shared-
/// clock fault devices, crashing at every `stride`-th boundary (clean
/// and torn) and remounting. Returns (boundaries total, crashes
/// exercised). Panics if any remount fails or loses synced data.
fn sweep_lane(stride: u64) -> (u64, u64) {
    let payload = |r: u64| vec![r as u8 + 1; RECORD];
    let run = |crash_at: Option<u64>, torn: bool| -> (Vec<DeviceRef>, Vec<Arc<FaultDevice>>, u64) {
        let clock = FaultDevice::write_clock();
        let mut devices = Vec::new();
        let mut faults = Vec::new();
        for base in mem_array(4, 2048, BS) {
            let (h, w) = FaultDevice::wrap_with_clock(
                base,
                FaultPlan {
                    crash_after_writes: crash_at,
                    crash_torn: torn,
                    ..FaultPlan::default()
                },
                Arc::clone(&clock),
            );
            faults.push(h);
            devices.push(w);
        }
        for f in &faults {
            f.set_armed(false);
        }
        let v = Volume::new(devices.clone()).unwrap();
        for f in &faults {
            f.set_armed(true);
        }
        let work = || -> pario_fs::Result<()> {
            let a = v.create_file(FileSpec::new("a", RECORD, 1, striped()))?;
            for r in 0..8 {
                a.write_record(r, &payload(r))?;
            }
            v.sync_meta()?;
            let b = v.create_file(FileSpec::new("b", RECORD, 1, striped()))?;
            for r in 0..12 {
                b.write_record(r, &payload(r))?;
            }
            v.sync_meta()?;
            Ok(())
        };
        let _ = work();
        for f in &faults {
            f.set_armed(false);
        }
        let boundaries = faults[0].write_boundaries();
        v.abandon();
        drop(v);
        (devices, faults, boundaries)
    };
    let (_, _, total) = run(None, false);
    let mut exercised = 0;
    for torn in [false, true] {
        let mut b = 0;
        while b < total {
            let (devices, faults, _) = run(Some(b), torn);
            for f in &faults {
                f.heal();
            }
            let v = Volume::mount(devices)
                .unwrap_or_else(|e| panic!("boundary {b} torn={torn}: remount failed: {e}"));
            // Anything synced before the crash must read back exactly.
            if v.list().iter().any(|n| n == "a") {
                let a = v.open("a").unwrap();
                let mut buf = vec![0u8; RECORD];
                for r in 0..a.len_records().min(8) {
                    a.read_record(r, &mut buf).unwrap();
                    assert_eq!(buf, payload(r), "boundary {b} torn={torn}: a/{r}");
                }
            }
            exercised += 1;
            b += stride;
        }
    }
    (total, exercised)
}

fn main() {
    banner(
        "E20: crash recovery — journal overhead and mount-time replay",
        "the write-ahead intent journal keeps metadata crash-consistent \
         for free on the steady-state write path and, with allocation \
         running ahead of the appends, on the growing one too; \
         mount-time replay recovers a dirty volume in milliseconds",
    );
    let (records, passes, base_files, dirty_ops) = if smoke() {
        (256, 16, 8, 6)
    } else {
        (512, 32, 24, 16)
    };

    // -- Lane 1: steady-state overwrite overhead ------------------------
    let (on, off) = steady_lane(records, passes);
    let steady_ratio = on / off;
    let total_writes = records * passes;
    println!(
        "\nsteady state ({total_writes} overwrites of {records} preallocated records):\n\
         \x20 journal on   {}  ({:.0} writes/s)\n\
         \x20 journal off  {}  ({:.0} writes/s)\n\
         \x20 overhead {:.1}% (bound {:.0}%)",
        secs(on),
        total_writes as f64 / on,
        secs(off),
        total_writes as f64 / off,
        (steady_ratio - 1.0) * 100.0,
        (OVERHEAD_BOUND - 1.0) * 100.0,
    );

    // -- Lane 2: appends to fresh files (the journal's worst case) ------
    let (gon, goff, grows_per_block) = grow_lane(GROW_FILES, GROW_BLOCKS);
    let grow_ratio = gon / goff;
    println!(
        "growing ({GROW_FILES} files x {GROW_BLOCKS} blocks appended one at a time, \
         {grows_per_block:.3} Grow records per block):\n\
         \x20 journal on   {}\n\
         \x20 journal off  {}\n\
         \x20 overhead {:.1}% (bound {:.0}%)",
        secs(gon),
        secs(goff),
        (grow_ratio - 1.0) * 100.0,
        (OVERHEAD_BOUND - 1.0) * 100.0,
    );

    // -- Lane 3: recovery time ------------------------------------------
    let (clean, dirty, replayed, files) = recovery_lane(base_files, dirty_ops);
    println!(
        "recovery ({base_files} checkpointed files + {dirty_ops} un-checkpointed creates):\n\
         \x20 clean mount  {}\n\
         \x20 dirty mount  {}  ({replayed} intent records replayed, {files} files intact)",
        secs(clean),
        secs(dirty),
    );

    // -- Lane 4: bounded crash sweep ------------------------------------
    let stride = if smoke() {
        SWEEP_STRIDE * 2
    } else {
        SWEEP_STRIDE
    };
    let (boundaries, crashes) = sweep_lane(stride);
    println!(
        "crash sweep: {crashes} crash points over {boundaries} write boundaries \
         (stride {stride}, clean + torn) all remounted with synced data intact"
    );

    let mut t = Table::new(&["lane", "journal on", "journal off", "overhead"]);
    t.row(&[
        "steady overwrite".into(),
        secs(on),
        secs(off),
        format!("{:+.1}%", (steady_ratio - 1.0) * 100.0),
    ]);
    t.row(&[
        "grow/append".into(),
        secs(gon),
        secs(goff),
        format!("{:+.1}%", (grow_ratio - 1.0) * 100.0),
    ]);
    t.row(&[
        "mount (clean/dirty)".into(),
        secs(dirty),
        secs(clean),
        format!("{replayed} records replayed"),
    ]);
    println!();
    t.print();
    save_json("e20_recovery", &t);

    Bench::new()
        .label("experiment", "e20_recovery")
        .num("steady_journal_on_secs", on)
        .num("steady_journal_off_secs", off)
        .num("steady_overhead_ratio", steady_ratio)
        .num("grow_journal_on_secs", gon)
        .num("grow_journal_off_secs", goff)
        .num("grow_overhead_ratio", grow_ratio)
        .num("grow_records_per_block", grows_per_block)
        .num("mount_clean_secs", clean)
        .num("mount_dirty_secs", dirty)
        .int("mount_replayed_records", replayed)
        .int("sweep_boundaries", boundaries)
        .int("sweep_crash_points", crashes)
        .save("e20_recovery");

    assert!(
        steady_ratio <= OVERHEAD_BOUND,
        "steady-state journaling overhead must stay within \
         {:.0}% (got {:.1}%)",
        (OVERHEAD_BOUND - 1.0) * 100.0,
        (steady_ratio - 1.0) * 100.0
    );
    assert!(
        grow_ratio <= OVERHEAD_BOUND,
        "journaling overhead on the growing lane must stay within \
         {:.0}% (got {:.1}%, {grows_per_block:.3} Grow records per block)",
        (OVERHEAD_BOUND - 1.0) * 100.0,
        (grow_ratio - 1.0) * 100.0
    );
    assert!(
        crashes > 0 && boundaries > 0,
        "the sweep must exercise crash points"
    );
    println!(
        "\nE20 assertions hold: steady-state overhead {:.1}% and growing \
         overhead {:.1}% <= {:.0}%, {replayed}-record replay recovered \
         the volume, {crashes} crash points survived.",
        (steady_ratio - 1.0) * 100.0,
        (grow_ratio - 1.0) * 100.0,
        (OVERHEAD_BOUND - 1.0) * 100.0
    );
}
