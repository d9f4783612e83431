//! `span-parity`: bulk transfer straight at `RawFile`, the paper's S/PS
//! case. Two clients sweep disjoint halves of a 32 MiB rotated-parity
//! file, each writing a 256 KiB span and then reading it back, wrapping
//! around at the end of its half.

use std::sync::Arc;

use pario_fs::RawFile;
use pario_layout::LayoutSpec;

use crate::gda::op_stream;
use crate::layers::{self, counter_metrics};
use crate::measure::{Client, Sample, CLIENTS};
use crate::probe_disk::TraceCtl;
use crate::rig::{Boundary, Payload, Rig, BS, DEVICES, RECORDS};
use crate::run::{
    finish, layer_report, measure, set_handoff, time_setups, Outcome, Plan, Res, RunCfg,
};
use crate::trace::{peel, subtract_and_write, Geometry, OpSpan};

/// Blocks per span: 256 KiB.
const SPAN_BLOCKS: u64 = 64;
/// Blocks in one client's half of the file.
const HALF_BLOCKS: u64 = RECORDS / CLIENTS as u64;
/// Spans in a half.
const SPANS: u64 = HALF_BLOCKS / SPAN_BLOCKS;

/// First block of the span op `i` of client `c` addresses, and whether
/// the op writes: each span is written, then read back, then the sweep
/// moves on. The seed picks where in its half each client starts.
fn op_at(seed: u64, c: usize, i: usize) -> (u64, bool) {
    let start = seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64) % SPANS;
    let span = (start + i as u64 / 2) % SPANS;
    (
        c as u64 * HALF_BLOCKS + span * SPAN_BLOCKS,
        i.is_multiple_of(2),
    )
}

struct SpanClient {
    raw: RawFile,
    seed: u64,
    c: usize,
    payload: Arc<Payload>,
    buf: Vec<u8>,
    first_error: Option<String>,
}

impl Client for SpanClient {
    fn step(&mut self, i: usize, ctl: &TraceCtl) -> Sample {
        let (first, write) = op_at(self.seed, self.c, i);
        if write {
            self.payload.fill(first, &mut self.buf);
        }
        let start_ns = ctl.now_ns();
        let res = if write {
            self.raw.write_span(first * BS as u64, &self.buf)
        } else {
            self.raw.read_span(first * BS as u64, &mut self.buf)
        };
        let lat_ns = (ctl.now_ns() - start_ns).min(u32::MAX as u64) as u32;
        let res = res.map_err(|e| e.to_string()).and_then(|()| {
            match self.payload.mismatches(first, &self.buf) {
                0 => Ok(()),
                n => Err(format!("span at block {first}: {n} blocks read back wrong")),
            }
        });
        if let (Err(e), None) = (&res, &self.first_error) {
            self.first_error = Some(e.clone());
        }
        Sample {
            start_ns,
            lat_ns,
            write,
            ok: res.is_ok(),
        }
    }

    fn first_error(&self) -> Option<&str> {
        self.first_error.as_deref()
    }
}

pub fn run(cfg: &RunCfg) -> Res<Outcome> {
    let plan = Plan::of(cfg);
    let ctl = TraceCtl::new();
    let payload = Arc::new(Payload::new(BS));
    let span_bytes = SPAN_BLOCKS * BS as u64;

    // Set-up, timed: devices, volume, file, and the parity prefill.
    let (setup, rig) = time_setups(cfg, &ctl, || Rig::span_parity(&ctl, &payload))?;

    let clients: Vec<SpanClient> = (0..CLIENTS)
        .map(|c| SpanClient {
            raw: rig.pfile.raw().clone(),
            seed: cfg.seed,
            c,
            payload: payload.clone(),
            buf: vec![0u8; span_bytes as usize],
            first_error: None,
        })
        .collect();
    let mut m = measure(cfg, &plan, &ctl, &rig, clients, span_bytes);

    let layer = match &m.snaps {
        None => None,
        Some((before, after)) => {
            let (mut rep, more, _) =
                layer_report(&m.windows, &plan.sched, m.driven.calib_ns(&plan.sched));
            m.notes.extend(more);
            let ops = m.driven.ops_measured();
            counter_metrics(&mut rep, before, after, ops, ops * span_bytes, false);

            // `fs` is the outermost layer here, so its self time is the
            // op span minus the device spans under it. No record-level
            // twin exists for a 64-block parity span.
            let raw = rig.pfile.raw();
            let layout = raw.layout();
            let mut spans = Vec::new();
            for (client, log) in m.driven.logs.iter().enumerate() {
                for &(i, s) in log.traced.iter().filter(|(_, s)| s.ok) {
                    let (first, _) = op_at(cfg.seed, client, i);
                    spans.push(OpSpan {
                        client,
                        write: s.write,
                        start_ns: s.start_ns,
                        end_ns: s.end_ns(),
                        dev: None,
                        rows: (
                            layout.map(first).block,
                            layout.map(first + SPAN_BLOCKS - 1).block,
                        ),
                    });
                }
            }
            let ([self_r, self_w], basis) = subtract_and_write(
                cfg,
                "fs",
                &spans,
                &rig.devs.take_spans(),
                &Geometry::of(&raw.meta_snapshot(), DEVICES),
                &mut m.notes,
            )?;
            rep.set("fs.self_us_read", self_r, basis.clone());
            rep.set("fs.self_us_write", self_w, basis);

            // The hand-off is peeled with single-block reads, uniform
            // over the file's blocks, against a twin.
            let twin = Rig::span_parity(&ctl, &payload)?;
            let streams: Vec<Arc<Vec<u32>>> = (0..CLIENTS)
                .map(|c| {
                    let mixed = op_stream(cfg.seed, c, 0.0, 50_000);
                    Arc::new(mixed.iter().map(|op| op & 0x7fff_ffff).collect())
                })
                .collect();
            let mut p = peel(
                &streams,
                plan.peel,
                &payload,
                &|_| rig.port(Boundary::IoDev),
                &|_| twin.port(Boundary::Dev),
            )?;
            m.attempted += p.attempted;
            m.failed += p.failed;
            set_handoff(&mut rep, &mut p);
            drop(twin);

            rep.set(
                "layout.map_ns_parity",
                layers::layout_map_ns(&LayoutSpec::Parity {
                    data_devices: DEVICES - 1,
                    rotated: true,
                }),
                "isolated",
            );
            Some(rep)
        }
    };
    finish(rig, &payload, layer, m, &setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_writes_then_reads_each_span_inside_its_half() {
        for seed in [1989, 7] {
            for c in 0..CLIENTS {
                let lo = c as u64 * HALF_BLOCKS;
                let mut seen = std::collections::BTreeSet::new();
                for i in 0..(2 * SPANS as usize) {
                    let (first, write) = op_at(seed, c, i);
                    assert_eq!(write, i.is_multiple_of(2));
                    assert!(first >= lo && first + SPAN_BLOCKS <= lo + HALF_BLOCKS);
                    assert_eq!(first % SPAN_BLOCKS, 0);
                    if !write {
                        assert_eq!(op_at(seed, c, i - 1).0, first, "reads back what it wrote");
                    }
                    seen.insert(first);
                }
                assert_eq!(seen.len() as u64, SPANS, "one sweep covers the half");
                assert_eq!(
                    op_at(seed, c, 2 * SPANS as usize),
                    op_at(seed, c, 0),
                    "wraps"
                );
            }
        }
    }
}
