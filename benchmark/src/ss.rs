//! `ss-queue`: the paper's self-scheduled organization plus the
//! metadata path. Repeated cycles at the `core` API: create a growable
//! SS file, two clients `write_next` until it holds 8192 records,
//! `finish`, two clients `read_next` it dry, check every record was
//! claimed exactly once, remove the file. One cycle is one window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pario_core::{Organization, ParallelFile};
use pario_fs::Volume;

use crate::calib::{correction, reading, Calibrator};
use crate::layers::{self, counter_metrics, Snapshot};
use crate::measure::CLIENTS;
use crate::probe_disk::{LeafSpan, TraceCtl};
use crate::procfs::cpu_us;
use crate::rig::{block_map, Payload, RecordPort, SsRig, BS, DEVICES, RECORDS};
use crate::run::{
    end_to_end, layer_report, remount_and_check, set_handoff, set_peeled, time_setups, Outcome,
    Plan, Res, RunCfg,
};
use crate::stats::Window;
use crate::trace::{peel, subtract_and_write, Geometry, OpSpan};

/// Name of the file each cycle creates and removes.
const NAME: &str = "ss";
/// Records each peel thread appends per boundary pair, in rounds of
/// `PEEL_ROUND` written and then read back, so that a budget that runs
/// out early still has both kinds of op.
const PEEL_RECORDS: u64 = 2048;
const PEEL_ROUND: u32 = 128;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// What one client did in one phase of a cycle.
#[derive(Default)]
struct PhaseLog {
    /// `(start_ns, lat_ns, record index the cursor handed out)`.
    ops: Vec<(u64, u32, u64)>,
    /// Tags read back (read phase only).
    tags: Vec<u64>,
    /// Calls that failed or returned a malformed record.
    failed: u64,
    first_error: Option<String>,
}

impl PhaseLog {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

/// A record's bytes: the payload of `tag` with the tag itself in the
/// first eight bytes, so a reader can tell which write it is looking at
/// without knowing who claimed which slot.
fn stamp(payload: &Payload, tag: u64, buf: &mut [u8]) {
    buf.copy_from_slice(payload.of(tag));
    buf[..8].copy_from_slice(&tag.to_le_bytes());
}

/// The tag a record carries, if the rest of it is that tag's payload.
fn tag_of(payload: &Payload, buf: &[u8]) -> Option<u64> {
    let tag = u64::from_le_bytes(buf[..8].try_into().expect("eight bytes"));
    (buf[8..] == payload.of(tag)[8..]).then_some(tag)
}

/// Two clients `write_next` until `RECORDS` tickets are used up; write
/// number `k` of the cycle carries tag `base + k`.
fn write_phase(
    pf: &ParallelFile,
    payload: &Payload,
    ctl: &TraceCtl,
    base: u64,
    cals: &mut [Calibrator],
) -> Res<Vec<PhaseLog>> {
    let writer = pf.self_sched_writer().map_err(err)?;
    let tickets = AtomicU64::new(0);
    let (writer, tickets) = (&writer, &tickets);
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = cals
            .iter_mut()
            .map(|cal| {
                s.spawn(move || {
                    let mut log = PhaseLog::default();
                    let mut buf = vec![0u8; BS];
                    loop {
                        // Relaxed: the counter only hands out distinct tickets.
                        let k = tickets.fetch_add(1, Ordering::Relaxed);
                        if k >= RECORDS {
                            return log;
                        }
                        stamp(payload, base + k, &mut buf);
                        let start = ctl.now_ns();
                        let res = writer.write_next(&buf);
                        let lat = (ctl.now_ns() - start).min(u32::MAX as u64) as u32;
                        match res {
                            Ok(idx) => log.ops.push((start, lat, idx)),
                            Err(e) => log.fail(e.to_string()),
                        }
                        cal.tick(ctl, start + lat as u64);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("SS writer thread panicked"))
            .collect()
    }))
}

/// Two clients `read_next` until the file is exhausted.
fn read_phase(
    pf: &ParallelFile,
    payload: &Payload,
    ctl: &TraceCtl,
    cals: &mut [Calibrator],
) -> Res<Vec<PhaseLog>> {
    let reader = pf.self_sched_reader().map_err(err)?;
    let reader = &reader;
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = cals
            .iter_mut()
            .map(|cal| {
                s.spawn(move || {
                    let mut log = PhaseLog::default();
                    let mut buf = vec![0u8; BS];
                    loop {
                        let start = ctl.now_ns();
                        let res = reader.read_next(&mut buf);
                        let lat = (ctl.now_ns() - start).min(u32::MAX as u64) as u32;
                        match res {
                            Ok(None) => return log,
                            Ok(Some(idx)) => match tag_of(payload, &buf) {
                                Some(tag) => {
                                    log.ops.push((start, lat, idx));
                                    log.tags.push(tag);
                                }
                                None => log.fail(format!("record {idx} is not a stamped payload")),
                            },
                            Err(e) => {
                                log.fail(e.to_string());
                                return log;
                            }
                        }
                        cal.tick(ctl, start + lat as u64);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("SS reader thread panicked"))
            .collect()
    }))
}

/// How many of `0..n` the values (offset by `base`) miss or repeat:
/// zero iff they form a permutation.
fn permutation_defects(values: impl Iterator<Item = u64>, base: u64, n: u64) -> u64 {
    let mut seen = vec![false; n as usize];
    let mut defects = 0;
    for v in values {
        match v.checked_sub(base).and_then(|i| seen.get_mut(i as usize)) {
            Some(slot) if !*slot => *slot = true,
            _ => defects += 1,
        }
    }
    defects + seen.iter().filter(|s| !**s).count() as u64
}

/// One cycle's results.
struct Cycle {
    window: Window,
    /// The cycle's ops as spans and its file's geometry, kept only for
    /// a traced cycle.
    spans: Vec<OpSpan>,
    geom: Option<Geometry>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// Run one full cycle; tags start at `base`.
fn cycle(
    vol: &Volume,
    payload: &Payload,
    ctl: &TraceCtl,
    base: u64,
    cals: &mut [Calibrator],
) -> Res<Cycle> {
    let (t0, cpu0) = (ctl.now_ns(), cpu_us());
    let pf = ParallelFile::create(vol, NAME, Organization::SelfScheduledSeq, BS, 1).map_err(err)?;
    let writes = write_phase(&pf, payload, ctl, base, cals)?;
    pf.self_sched_writer().map_err(err)?.finish().map_err(err)?;
    let geom = ctl
        .enabled()
        .then(|| Geometry::of(&pf.raw().meta_snapshot(), DEVICES));
    let reads = read_phase(&pf, payload, ctl, cals)?;
    drop(pf);
    vol.remove(NAME).map_err(err)?;
    let (t1, cpu1) = (ctl.now_ns(), cpu_us());
    let nanos = t1 - t0;

    // Exactly once: slots written, slots read and tags read back must
    // each be a permutation of the cycle's 8192.
    let idx = |logs: &[PhaseLog]| -> Vec<u64> {
        logs.iter()
            .flat_map(|l| l.ops.iter().map(|o| o.2))
            .collect()
    };
    let mut failed = permutation_defects(idx(&writes).into_iter(), 0, RECORDS)
        + permutation_defects(idx(&reads).into_iter(), 0, RECORDS)
        + permutation_defects(
            reads.iter().flat_map(|l| l.tags.iter().copied()),
            base,
            RECORDS,
        );
    let busy = (cpu1 - cpu0) as f64 * 1e3 / nanos as f64;
    let mut window = Window {
        nanos,
        scale: correction(busy, reading(cals.iter(), t0, t1)),
        ..Window::default()
    };
    let mut spans = Vec::new();
    let mut first_error = None;
    for (write, logs) in [(true, &writes), (false, &reads)] {
        for (client, log) in logs.iter().enumerate() {
            failed += log.failed;
            if first_error.is_none() {
                first_error.clone_from(&log.first_error);
            }
            for &(start_ns, lat_ns, idx) in &log.ops {
                window.bytes += BS as u64;
                if write {
                    window.writes.push(lat_ns);
                } else {
                    window.reads.push(lat_ns);
                }
                if geom.is_none() {
                    continue;
                }
                // Striped over 4 devices, unit 1.
                let row = idx / DEVICES as u64;
                spans.push(OpSpan {
                    client,
                    write,
                    start_ns,
                    end_ns: start_ns + lat_ns as u64,
                    dev: Some((idx % DEVICES as u64) as usize),
                    rows: (row, row),
                });
            }
        }
    }
    window.sort();
    // `attribute` wants each client's ops contiguous and in start order.
    spans.sort_by_key(|s| (s.client, s.start_ns));
    Ok(Cycle {
        window,
        spans,
        geom,
        attempted: 2 * RECORDS,
        failed,
        first_error,
    })
}

pub fn run(cfg: &RunCfg) -> Res<Outcome> {
    let plan = Plan::of(cfg);
    let ctl = TraceCtl::new();
    let payload = Payload::new(BS);

    // Set-up, timed: devices and an empty volume. The files are the
    // workload's own business.
    let (setup, rig) = time_setups(cfg, &ctl, || SsRig::new(&ctl))?;

    // Cycles are the windows: alternate traced/untraced per cycle, and
    // the schedule only says how many seconds each part lasts.
    let sched = &plan.sched;
    let warm_until = ctl.now_ns() + sched.warmup_ns;
    let measure_ns = sched.window_ns * sched.windows as u64;
    let (mut attempted, mut failed) = (0, 0);
    let mut notes = Vec::new();
    let mut base = 0;
    let mut windows: Vec<Window> = Vec::new();
    // The first traced cycle's ops, file geometry and device requests.
    let mut traced_cycle: Option<(Vec<OpSpan>, Geometry, Vec<LeafSpan>)> = None;
    let mut before = None;
    let mut measure_from = 0;
    let mut cals: Vec<Calibrator> = (0..CLIENTS).map(|_| Calibrator::default()).collect();
    loop {
        let now = ctl.now_ns();
        let measuring = now >= warm_until;
        if measuring && before.is_none() {
            measure_from = now;
            before = Some(Snapshot::take(&ctl, &rig.devs, &rig.vol, None));
        }
        // At least one measured cycle, and a traced one when tracing.
        let least = if cfg.trace { 2 } else { 1 };
        if measuring && now >= measure_from + measure_ns && windows.len() >= least {
            break;
        }
        ctl.set(measuring && sched.traced(windows.len()));
        let mut c = cycle(&rig.vol, &payload, &ctl, base, &mut cals)?;
        ctl.set(false);
        if cfg.trace {
            // The traced run reports times as the clock read them.
            c.window.scale = 1.0;
        }
        base += RECORDS;
        attempted += c.attempted;
        failed += c.failed;
        if let Some(e) = &c.first_error {
            notes.push(format!("first client error: {e}"));
        }
        let leaves = rig.devs.take_spans();
        if measuring {
            windows.push(c.window);
            if let (None, Some(geom)) = (&traced_cycle, c.geom) {
                traced_cycle = Some((c.spans, geom, leaves));
            }
        }
    }
    let after = Snapshot::take(&ctl, &rig.devs, &rig.vol, None);
    let before = before.expect("snapshot taken before the first measured cycle");

    let layer = if cfg.trace {
        let (mut rep, more, _) = layer_report(
            &windows,
            sched,
            reading(cals.iter(), measure_from, after.t_ns),
        );
        notes.extend(more);
        let ops = windows.len() as u64 * 2 * RECORDS;
        counter_metrics(&mut rep, &before, &after, ops, ops * BS as u64, false);

        // Span subtraction on the first traced cycle (each cycle's file
        // has its own extents, so cycles cannot share one geometry).
        if let Some((spans, geom, leaves)) = &traced_cycle {
            subtract_and_write(cfg, "core", spans, leaves, geom, &mut notes)?;
        }

        // Peeled replays: each thread appends PEEL_RECORDS records to a
        // file of its own and reads them back, at two boundaries.
        let stream: Arc<Vec<u32>> = Arc::new(
            (0..PEEL_RECORDS as u32)
                .step_by(PEEL_ROUND as usize)
                .flat_map(|lo| {
                    (lo..lo + PEEL_ROUND)
                        .map(|k| k | 1 << 31)
                        .chain(lo..lo + PEEL_ROUND)
                })
                .collect(),
        );
        let streams = vec![stream; CLIENTS];
        let handle = |rig: &SsRig, name: String| -> Res<RecordPort> {
            let pf = rig.create(&name)?;
            Ok(RecordPort::Ss(
                pf.self_sched_writer().map_err(err)?,
                pf.self_sched_reader().map_err(err)?,
            ))
        };
        let raw = |rig: &SsRig, name: String| -> Res<RecordPort> {
            Ok(RecordPort::Raw(rig.create(&name)?.raw().clone()))
        };
        let blocks = |rig: &SsRig, name: String, queued: bool| -> Res<RecordPort> {
            let pf = ParallelFile::create_sized(
                &rig.vol,
                &name,
                Organization::SelfScheduledSeq,
                BS,
                1,
                PEEL_RECORDS,
            )
            .map_err(err)?;
            let devs = (0..DEVICES)
                .map(|i| {
                    if queued {
                        rig.vol.io_device(i)
                    } else {
                        rig.vol.device(i)
                    }
                })
                .collect();
            Ok(RecordPort::Blocks(devs, block_map(pf.raw(), PEEL_RECORDS)))
        };
        // Fresh twins for every pair: files that grow a block at a time
        // side by side fragment into one extent per block, and a few
        // of those outgrow the volume's directory slot.
        let budget = plan.peel / 3;
        let twins = || -> Res<[SsRig; 2]> { Ok([SsRig::new(&ctl)?, SsRig::new(&ctl)?]) };
        let [up, down] = twins()?;
        let mut core = peel(
            &streams,
            budget,
            &payload,
            &|t| handle(&up, format!("up-{t}")),
            &|t| raw(&down, format!("down-{t}")),
        )?;
        let [up, down] = twins()?;
        let mut fs = peel(
            &streams,
            budget,
            &payload,
            &|t| raw(&up, format!("up-{t}")),
            &|t| blocks(&down, format!("down-{t}"), true),
        )?;
        let [up, down] = twins()?;
        let mut handoff = peel(
            &streams,
            budget,
            &payload,
            &|t| blocks(&up, format!("up-{t}"), true),
            &|t| blocks(&down, format!("down-{t}"), false),
        )?;
        for p in [&core, &fs, &handoff] {
            attempted += p.attempted;
            failed += p.failed;
        }
        set_peeled(&mut rep, "core", "SS handle - RawFile", &mut core);
        set_peeled(
            &mut rep,
            "fs",
            "RawFile (growing) - IoDev (preallocated)",
            &mut fs,
        );
        set_handoff(&mut rep, &mut handoff);

        rep.set(
            "core.ss_claim_ns",
            layers::ss_claim_ns(),
            "isolated, 2 threads claiming",
        );
        rep.set(
            "layout.map_ns_striped",
            layers::layout_map_ns(&pario_layout::LayoutSpec::Striped {
                devices: DEVICES,
                unit: 1,
            }),
            "isolated",
        );
        Some(rep)
    } else {
        None
    };

    // Oracle: one more file, written and left in place across a remount.
    let pf = rig.create(NAME)?;
    let writes = write_phase(&pf, &payload, &ctl, base, &mut cals)?;
    pf.self_sched_writer().map_err(err)?.finish().map_err(err)?;
    attempted += RECORDS;
    failed += writes.iter().map(|l| l.failed).sum::<u64>();
    drop(pf);
    let SsRig { devs, vol } = rig;
    drop(vol);
    let (checked, bad, more) = remount_and_check(&devs, |vol| {
        let raw = vol
            .open(NAME)
            .map_err(|e| format!("open after remount: {e}"))?;
        if raw.len_records() != RECORDS {
            return Ok((RECORDS, RECORDS));
        }
        let mut buf = vec![0u8; BS];
        let mut tags = Vec::new();
        for r in 0..RECORDS {
            raw.read_record(r, &mut buf)
                .map_err(|e| format!("read back: {e}"))?;
            tags.extend(tag_of(&payload, &buf));
        }
        Ok((
            RECORDS,
            permutation_defects(tags.into_iter(), base, RECORDS),
        ))
    })?;
    notes.extend(more);
    attempted += checked;
    failed += bad;

    let report = match layer {
        Some(rep) => rep,
        None => {
            let (rep, note) = end_to_end(&windows, &setup)?;
            notes.push(note);
            rep
        }
    };
    Ok(Outcome {
        report,
        attempted,
        failed,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_defects_counts_misses_and_repeats() {
        assert_eq!(permutation_defects([12, 10, 11].into_iter(), 10, 3), 0);
        // 11 twice, 12 never, 9 and 13 out of range.
        assert_eq!(
            permutation_defects([10, 11, 11, 9, 13].into_iter(), 10, 3),
            4
        );
        assert_eq!(permutation_defects(std::iter::empty(), 0, 2), 2);
    }

    #[test]
    fn stamped_records_name_their_tag() {
        let p = Payload::new(BS);
        let mut buf = vec![0u8; BS];
        stamp(&p, 77_000, &mut buf);
        assert_eq!(tag_of(&p, &buf), Some(77_000));
        buf[100] ^= 1;
        assert_eq!(tag_of(&p, &buf), None);
    }

    #[test]
    fn one_cycle_is_exactly_once_and_leaves_nothing_behind() {
        let ctl = TraceCtl::new();
        let rig = SsRig::new(&ctl).unwrap();
        let free = rig.vol.free_blocks();
        let mut cals: Vec<Calibrator> = (0..CLIENTS).map(|_| Calibrator::default()).collect();
        let c = cycle(&rig.vol, &Payload::new(BS), &ctl, 5 * RECORDS, &mut cals).unwrap();
        assert!(
            c.spans.is_empty() && c.geom.is_none(),
            "untraced cycles keep no spans"
        );
        assert_eq!((c.attempted, c.failed), (2 * RECORDS, 0));
        assert_eq!(c.window.ops(), 2 * RECORDS);
        assert_eq!(c.window.reads.len() as u64, RECORDS);
        assert_eq!(rig.vol.free_blocks(), free);
        assert!(rig.vol.list().is_empty());
    }
}
