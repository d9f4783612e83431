//! Crash/remount sweep: the volume's metadata is crash-consistent at
//! *every* write boundary.
//!
//! A deterministic create/write/sync/grow/delete workload runs over
//! fault-wrapped devices sharing one write-boundary clock. A fault-free
//! pass counts the boundaries; the sweep then replays the workload once
//! per boundary (clean fail-stop and torn variants), "loses power" at
//! that boundary, heals the media, remounts, and asserts the recovery
//! contract:
//!
//! * the mount always succeeds;
//! * the allocator, directory, and extents agree ([`audit_volume`]);
//! * acknowledged creates and removes are durable (they are intent-
//!   journaled with a flush before the call returns);
//! * every record covered by an acknowledged `sync_meta` reads back
//!   bit-exact;
//! * records written after the last sync may lose their length update,
//!   but whatever length survives, the bytes under it are the bytes
//!   that were written — never garbage from a half-applied grow.
//!
//! The in-flight operation at the crash boundary is the only "maybe":
//! it may be wholly applied, wholly absent, or (for the torn variants)
//! half-written in a way recovery must mask.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use pario::disk::{mem_array, BlockDevice, DeviceRef, FaultDevice, FaultPlan};
use pario::fs::{FileSpec, RawFile, Volume};
use pario::layout::LayoutSpec;
use pario::reliability::audit_volume;

const BS: usize = 256;
const NDEV: usize = 4;
const DEV_BLOCKS: u64 = 1024;
const RECORD: usize = 64;
const RECS_PER_BLOCK: usize = 4;

/// One atomic file-system call: the grain at which the crash model
/// distinguishes acknowledged from in-flight work.
#[derive(Clone, Debug, PartialEq)]
enum Step {
    Create(&'static str, LayoutSpec),
    WriteRec(&'static str, u64),
    Sync,
    Remove(&'static str),
}

/// Deterministic payload for (file, record): any survivor is checkable
/// without remembering what was written.
fn payload(name: &str, rec: u64) -> Vec<u8> {
    let tag = name.bytes().fold(rec as u8, |a, b| a.wrapping_mul(31) ^ b);
    (0..RECORD).map(|i| tag.wrapping_add(i as u8)).collect()
}

/// What the workload knows it was told succeeded.
#[derive(Clone, Default)]
struct Model {
    /// Acked records per acked-created (and not acked-removed) file.
    acked: BTreeMap<&'static str, BTreeSet<u64>>,
    /// The `acked` map as of the last acknowledged `sync_meta`.
    synced: BTreeMap<&'static str, BTreeSet<u64>>,
}

impl Model {
    fn ack(&mut self, step: &Step) {
        match step {
            Step::Create(name, _) => {
                self.acked.insert(name, BTreeSet::new());
            }
            Step::WriteRec(name, rec) => {
                self.acked
                    .get_mut(name)
                    .expect("workload writes only to created files")
                    .insert(*rec);
            }
            Step::Sync => {
                self.synced = self.acked.clone();
            }
            Step::Remove(name) => {
                self.acked.remove(name);
                self.synced.remove(name);
            }
        }
    }
}

struct RunOutcome {
    devices: Vec<DeviceRef>,
    faults: Vec<Arc<FaultDevice>>,
    model: Model,
    /// The step that observed the crash, if one fired.
    failed: Option<Step>,
    /// Write boundaries the workload crossed (on the shared clock).
    boundaries: u64,
}

fn apply(
    v: &Volume,
    handles: &mut BTreeMap<&'static str, RawFile>,
    step: &Step,
) -> pario::fs::Result<()> {
    match step {
        Step::Create(name, layout) => {
            let f = v.create_file(FileSpec::new(name, RECORD, RECS_PER_BLOCK, layout.clone()))?;
            handles.insert(name, f);
            Ok(())
        }
        Step::WriteRec(name, rec) => handles[name].write_record(*rec, &payload(name, *rec)),
        Step::Sync => v.sync_meta(),
        Step::Remove(name) => {
            handles.remove(name);
            v.remove(name)
        }
    }
}

/// Run `steps` on a fresh volume whose devices share one write clock,
/// crashing at boundary `crash_at` (if any). Formatting happens with
/// injection disarmed so boundary 0 is the workload's first write.
fn run(crash_at: Option<u64>, torn: bool, steps: &[Step]) -> RunOutcome {
    let clock = FaultDevice::write_clock();
    let mut devices = Vec::new();
    let mut faults = Vec::new();
    for base in mem_array(NDEV, DEV_BLOCKS, BS) {
        let (handle, wrapped) = FaultDevice::wrap_with_clock(
            base,
            FaultPlan {
                crash_after_writes: crash_at,
                crash_torn: torn,
                ..FaultPlan::default()
            },
            Arc::clone(&clock),
        );
        faults.push(handle);
        devices.push(wrapped);
    }
    for f in &faults {
        f.set_armed(false);
    }
    let v = Volume::new(devices.clone()).expect("format on healthy media");
    for f in &faults {
        f.set_armed(true);
    }

    let mut handles = BTreeMap::new();
    let mut model = Model::default();
    let mut failed = None;
    for step in steps {
        match apply(&v, &mut handles, step) {
            Ok(()) => model.ack(step),
            Err(_) => {
                failed = Some(step.clone());
                break;
            }
        }
    }

    for f in &faults {
        f.set_armed(false);
    }
    let boundaries = faults[0].write_boundaries();
    // Simulate the host dying with the volume: no teardown checkpoint.
    v.abandon();
    drop(handles);
    drop(v);
    RunOutcome {
        devices,
        faults,
        model,
        failed,
        boundaries,
    }
}

/// Heal the media ("reboot on the surviving platters"), remount, and
/// assert the recovery contract described in the module docs.
fn verify_recovery(r: &RunOutcome, ctx: &str) -> Volume {
    for f in &r.faults {
        f.set_armed(false);
        f.heal();
    }
    let v =
        Volume::mount(r.devices.clone()).unwrap_or_else(|e| panic!("{ctx}: remount failed: {e}"));
    let report = v.mount_report().expect("mounted volumes carry a report");

    let audit = audit_volume(&v).unwrap();
    assert!(
        audit.is_clean(),
        "{ctx}: metadata audit failed after remount (report {report:?}): {:?}",
        audit.errors
    );

    let present: BTreeSet<String> = v.list().into_iter().collect();
    // Acked creates/removes are journaled with a flush, so the surviving
    // file set equals the acked set, modulo the in-flight step.
    for name in r.model.acked.keys() {
        if !present.contains(*name) {
            assert!(
                matches!(&r.failed, Some(Step::Remove(n)) if n == name),
                "{ctx}: acked file '{name}' missing after remount (report {report:?})"
            );
        }
    }
    for p in &present {
        let explained = r.model.acked.contains_key(p.as_str())
            || matches!(&r.failed, Some(Step::Create(n, _)) if n == p)
            || matches!(&r.failed, Some(Step::Remove(n)) if n == p);
        assert!(
            explained,
            "{ctx}: unexpected file '{p}' after remount (report {report:?})"
        );
    }

    let mut buf = vec![0u8; RECORD];
    for (name, recs) in &r.model.acked {
        if !present.contains(*name) {
            continue;
        }
        let f = v.open(name).unwrap();
        let len = f.len_records();
        let synced = r.model.synced.get(name);
        for &rec in recs {
            if matches!(&r.failed, Some(Step::WriteRec(n, fr)) if n == name && *fr == rec) {
                continue; // the in-flight record's bytes are unspecified
            }
            let synced_rec = synced.is_some_and(|s| s.contains(&rec));
            if synced_rec {
                assert!(
                    rec < len,
                    "{ctx}: synced record {name}/{rec} lost \
                     (recovered length {len}, report {report:?})"
                );
            }
            if rec < len {
                f.read_record(rec, &mut buf)
                    .unwrap_or_else(|e| panic!("{ctx}: reading {name}/{rec}: {e}"));
                assert_eq!(
                    buf,
                    payload(name, rec),
                    "{ctx}: content of {name}/{rec} diverged (report {report:?})"
                );
            }
        }
    }
    v
}

fn striped() -> LayoutSpec {
    LayoutSpec::Striped {
        devices: NDEV,
        unit: 1,
    }
}

fn shadowed() -> LayoutSpec {
    LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 1,
    }))
}

/// The sweep workload: two layouts, interleaved growth, a checkpoint
/// between phases, a delete whose blocks later grows reuse.
fn sweep_steps() -> Vec<Step> {
    use Step::*;
    let mut s = vec![Create("alpha", striped())];
    s.extend((0..8).map(|r| WriteRec("alpha", r)));
    s.push(Sync);
    s.push(Create("beta", shadowed()));
    s.extend((0..6).map(|r| WriteRec("beta", r)));
    s.extend((8..20).map(|r| WriteRec("alpha", r)));
    s.push(Sync);
    s.push(Remove("alpha"));
    s.extend((6..16).map(|r| WriteRec("beta", r)));
    s.push(Create("gamma", striped()));
    s.extend((0..6).map(|r| WriteRec("gamma", r)));
    s.push(Sync);
    s
}

/// The tentpole harness: crash at EVERY write boundary of the workload,
/// clean and torn, and demand full recovery each time.
#[test]
fn every_write_boundary_recovers() {
    let steps = sweep_steps();
    let counting = run(None, false, &steps);
    assert!(
        counting.failed.is_none(),
        "fault-free pass must complete: {:?}",
        counting.failed
    );
    let total = counting.boundaries;
    assert!(total > 20, "workload too small to be a meaningful sweep");

    for torn in [false, true] {
        for b in 0..total {
            let r = run(Some(b), torn, &steps);
            assert!(
                r.failed.is_some(),
                "crash at boundary {b} (torn={torn}) never fired"
            );
            verify_recovery(&r, &format!("boundary {b}/{total} torn={torn}"));
        }
    }
}

/// Deterministic regression: a crash *during the checkpoint itself*
/// (including tearing the slot image mid-write) must fall back to the
/// other slot and replay the journal — every record synced by the
/// previous checkpoint survives.
#[test]
fn torn_checkpoint_falls_back_to_previous_slot() {
    use Step::*;
    let mut steps = vec![Create("keep", striped())];
    steps.extend((0..10).map(|r| WriteRec("keep", r)));
    steps.push(Sync);
    steps.extend((10..14).map(|r| WriteRec("keep", r)));
    // Everything up to here, then the checkpoint under attack.
    let head = steps.clone();
    steps.push(Sync);

    let before = run(None, false, &head);
    assert!(before.failed.is_none());
    let after = run(None, false, &steps);
    assert!(after.failed.is_none());
    let (c0, c1) = (before.boundaries, after.boundaries);
    assert!(c1 > c0, "the checkpoint must write something");

    for torn in [false, true] {
        for b in c0..c1 {
            let r = run(Some(b), torn, &steps);
            assert_eq!(
                r.failed,
                Some(Sync),
                "boundary {b} (torn={torn}) must land inside the checkpoint"
            );
            let v = verify_recovery(&r, &format!("checkpoint boundary {b} torn={torn}"));
            // The fallback slot plus journal replay restores the lot:
            // "keep" is present with all 14 records' data intact.
            let f = v.open("keep").unwrap();
            let mut buf = vec![0u8; RECORD];
            for rec in 0..10 {
                f.read_record(rec, &mut buf).unwrap();
                assert_eq!(buf, payload("keep", rec), "record {rec} after fallback");
            }
        }
    }
}

/// Run-ahead allocation under the same sweep: a file appended one
/// block at a time grows in doubling steps over blocks a removed file
/// left full of its records. Crash at every write boundary from the
/// first append on — the zero-fill of a multi-block extent half landed
/// (torn), the `Grow` record torn, the record durable and the append's
/// own write lost — and whatever allocation the remount recovers, the
/// blocks past the last append issued read zero: no `Grow` record ever
/// points at blocks whose zero-fill had not landed. Then one append far
/// past the end, whose zero-fill takes several waves of one run per
/// device: a crash at any boundary of those waves leaves the allocation
/// and the free map as the appends left them.
#[test]
fn run_ahead_grow_recovers_at_every_boundary() {
    use Step::*;
    const BLOCKS: u64 = 24;
    let rpb = RECS_PER_BLOCK as u64;
    let mut steps = vec![Create("old", striped())];
    steps.extend((0..32 * rpb).map(|r| WriteRec("old", r)));
    steps.extend([Sync, Remove("old"), Create("tail", striped())]);
    let head = steps.clone();
    steps.extend((0..BLOCKS).map(|b| WriteRec("tail", b * rpb)));

    let before = run(None, false, &head);
    let after = run(None, false, &steps);
    assert!(before.failed.is_none() && after.failed.is_none());
    let (c0, c1) = (before.boundaries, after.boundaries);
    // One data write per append, and a handful of grows (zero-fill per
    // device + record) — not one per append.
    assert!(
        c1 - c0 > BLOCKS && c1 - c0 < 3 * BLOCKS,
        "{} boundaries",
        c1 - c0
    );

    let mut tails_seen = 0;
    for torn in [false, true] {
        for b in c0..c1 {
            let r = run(Some(b), torn, &steps);
            let ctx = format!("run-ahead boundary {b} torn={torn}");
            let Some(WriteRec("tail", in_flight)) = r.failed else {
                panic!("{ctx}: must land inside an append, not {:?}", r.failed);
            };
            let v = verify_recovery(&r, &ctx);
            let f = v.open("tail").unwrap();
            let mut block = vec![0u8; BS];
            for l in in_flight / rpb + 1..f.nblocks() {
                f.read_lblock(l, &mut block).unwrap();
                assert!(
                    block.iter().all(|&x| x == 0),
                    "{ctx}: block {l} of {} is not zero",
                    f.nblocks()
                );
                tails_seen += 1;
            }
        }
    }
    assert!(
        tails_seen > 0,
        "no recovered allocation ran ahead of its appends"
    );

    // One append far past the end: an exact grow of ~520 blocks a
    // device, zero-filled in several waves of one run per device. A
    // crash between two waves, or inside one, leaves zeros on some
    // devices and none on others and no `Grow` record: the remount
    // shows the allocation the 24 appends left, and every block the
    // doomed grow took is free again.
    let reference = verify_recovery(&after, "run-ahead, no crash");
    let settled = reference.open("tail").unwrap().nblocks();
    let free = reference.free_blocks();
    let far = 4 * 520 * rpb;
    steps.push(WriteRec("tail", far));
    let c2 = run(None, false, &steps).boundaries;
    // The zero runs, then the `Grow` record and the append's own block.
    let runs = c2 - c1 - 2;
    assert!(runs >= 8, "{runs} zero-fill boundaries: not several waves");
    for torn in [false, true] {
        for b in c1..c1 + runs {
            let r = run(Some(b), torn, &steps);
            let ctx = format!("zero-fill boundary {b} of {c1}..{c2} torn={torn}");
            assert_eq!(r.failed, Some(WriteRec("tail", far)), "{ctx}");
            let v = verify_recovery(&r, &ctx);
            assert_eq!(v.open("tail").unwrap().nblocks(), settled, "{ctx}");
            assert_eq!(v.free_blocks(), free, "{ctx}: blocks leaked");
        }
    }
}

/// Interpret a proptest-generated opcode tape into a valid step script
/// over three files (create-before-write, no name reuse after remove).
fn interpret(tape: &[(u8, u64)]) -> Vec<Step> {
    const NAMES: [&str; 3] = ["p", "q", "r"];
    let mut unused: Vec<&'static str> = NAMES.to_vec();
    let mut live: Vec<&'static str> = Vec::new();
    let mut steps = Vec::new();
    for &(op, x) in tape {
        match op % 4 {
            0 | 1 if live.is_empty() || (op % 4 == 0 && !unused.is_empty()) => {
                if let Some(name) = unused.pop() {
                    let layout = if x % 2 == 0 { striped() } else { shadowed() };
                    live.push(name);
                    steps.push(Step::Create(name, layout));
                }
            }
            0 | 1 => {
                let name = live[x as usize % live.len()];
                steps.push(Step::WriteRec(name, x % 24));
            }
            2 => steps.push(Step::Sync),
            _ => {
                if !live.is_empty() {
                    let name = live.remove(x as usize % live.len());
                    steps.push(Step::Remove(name));
                }
            }
        }
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A crash at an arbitrary boundary of an arbitrary valid workload
    /// always leaves a mountable, auditable volume with every synced
    /// record intact.
    #[test]
    fn arbitrary_crash_boundary_leaves_consistent_volume(
        tape in proptest::collection::vec((any::<u8>(), any::<u64>()), 4..48),
        pick in any::<u64>(),
        torn in any::<bool>(),
    ) {
        let steps = interpret(&tape);
        // An all-remove tape degenerates to a no-op workload; skip it.
        if !steps.is_empty() {
            let counting = run(None, false, &steps);
            prop_assert!(counting.failed.is_none(), "fault-free pass failed");
            if counting.boundaries > 0 {
                let b = pick % counting.boundaries;
                let r = run(Some(b), torn, &steps);
                verify_recovery(&r, &format!("boundary {b}/{} torn={torn}", counting.boundaries));
            }
        }
    }
}
