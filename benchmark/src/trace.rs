//! Spans, recorded entirely from benchmark code, and the two ways a
//! layer's self time is taken from them.
//!
//! 1. **Span subtraction.** Each op the generator issues is a span at
//!    the outermost layer; each device request `ProbeDisk` saw is a
//!    leaf span. A leaf is attributed to the op in flight that covers
//!    it in time *and* addresses its device row ([`attribute`]); the
//!    op's self time is its duration minus the union of its leaves.
//!    This is everything between the generator's call and the device.
//! 2. **Peeled replays.** To split that further, the same op stream is
//!    replayed at two adjacent layer boundaries on twin rigs,
//!    interleaved op by op on one thread, and the layer's self time is
//!    the median of the paired differences ([`peel`]). Paired, because
//!    a single boundary's median drifts by tens of microseconds from
//!    run to run (the executor hand-off alone reads 12–60 µs) while
//!    the difference between two calls made 50 µs apart does not.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_fs::FileMeta;

use crate::measure::CLIENTS;
use crate::probe_disk::LeafSpan;
use crate::rig::{Payload, RecordPort};
use crate::run::RunCfg;
use crate::stats::median_i64;

/// One generator op as a span at the workload's outermost layer.
#[derive(Copy, Clone, Debug)]
pub struct OpSpan {
    pub client: usize,
    pub write: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The one device the op addresses, when it is a single block.
    pub dev: Option<usize>,
    /// Device-local rows (blocks within the file's extent on each
    /// device) the op addresses, inclusive.
    pub rows: (u64, u64),
}

/// Where the file's blocks sit on each device, for turning a leaf's
/// absolute block back into a device-local row.
pub struct Geometry {
    /// Per volume device: the file's extents as `(start, len)`.
    extents: Vec<Vec<(u64, u64)>>,
}

impl Geometry {
    pub fn of(meta: &FileMeta, devices: usize) -> Geometry {
        let mut extents = vec![Vec::new(); devices];
        for (slot, list) in meta.extents.iter().enumerate() {
            extents[meta.device_map[slot]] = list.iter().map(|e| (e.start, e.len)).collect();
        }
        Geometry { extents }
    }

    /// Device-local row of absolute block `abs` on `dev`; `None` for a
    /// block outside the file (the meta region, another file).
    pub fn row_of(&self, dev: usize, abs: u64) -> Option<u64> {
        let mut base = 0;
        for &(start, len) in &self.extents[dev] {
            if abs >= start && abs < start + len {
                return Some(base + abs - start);
            }
            base += len;
        }
        None
    }
}

/// Per-op result of attributing leaves.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpChildren {
    /// Leaves attributed to the op.
    pub requests: u32,
    /// Nanoseconds of the op's interval covered by at least one leaf.
    pub covered_ns: u64,
    last_end: u64,
}

/// Which op each leaf belongs to, and what each op's leaves add up to.
pub struct Attribution {
    /// Per leaf: index into the ops, `None` for background work.
    pub parents: Vec<Option<usize>>,
    /// Per op: its leaves, summed.
    pub children: Vec<OpChildren>,
}

/// Attribute each leaf to the op that caused it: an op of either client
/// whose interval contains the leaf and whose rows (and device, when it
/// names one) the leaf touches. Ties go to the op of the same kind,
/// then to the first client. Returns per leaf the index into `ops` (or
/// `None`: background work such as journal writes or cache evictions),
/// and per op its children summary.
///
/// `ops` must be grouped by client, each group in start order; `leaves`
/// in start order.
pub fn attribute(ops: &[OpSpan], leaves: &[LeafSpan], geom: &Geometry) -> Attribution {
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut at = 0;
    while at < ops.len() {
        let c = ops[at].client;
        let end = at + ops[at..].iter().take_while(|o| o.client == c).count();
        groups.push((at, end));
        at = end;
    }
    let mut children = vec![OpChildren::default(); ops.len()];
    let parents = leaves
        .iter()
        .map(|leaf| {
            let row = geom.row_of(leaf.dev, leaf.block)?;
            let row_hi = row + leaf.blocks.saturating_sub(1);
            let mut best: Option<usize> = None;
            for &(lo, hi) in &groups {
                let n = ops[lo..hi].partition_point(|o| o.start_ns <= leaf.start_ns);
                let Some(i) = n.checked_sub(1).map(|k| lo + k) else {
                    continue;
                };
                let o = &ops[i];
                let fits = o.end_ns >= leaf.end_ns
                    && o.dev.is_none_or(|d| d == leaf.dev)
                    && o.rows.0 <= row_hi
                    && row <= o.rows.1;
                if fits && best.is_none_or(|b| ops[b].write != leaf.write && o.write == leaf.write)
                {
                    best = Some(i);
                }
            }
            let i = best?;
            let c = &mut children[i];
            c.requests += 1;
            let from = leaf.start_ns.max(c.last_end);
            if leaf.end_ns > from {
                c.covered_ns += leaf.end_ns - from;
                c.last_end = leaf.end_ns;
            }
            Some(i)
        })
        .collect();
    Attribution { parents, children }
}

/// Median self time (duration minus leaf coverage) of the read and of
/// the write ops, microseconds; `None` for a kind with no ops.
pub fn self_time_us(ops: &[OpSpan], children: &[OpChildren]) -> [Option<f64>; 2] {
    [false, true].map(|write| {
        let mut v: Vec<i64> = ops
            .iter()
            .zip(children)
            .filter(|(o, _)| o.write == write)
            .map(|(o, c)| (o.end_ns - o.start_ns - c.covered_ns) as i64)
            .collect();
        median_i64(&mut v).map(|ns| ns / 1e3)
    })
}

/// Span subtraction end to end: attribute `leaves` to `ops`, write the
/// workload's trace file (ops at `layer`), add a line to `notes`, and
/// return the median self time above the device of the read and of the
/// write ops, microseconds, with a description of what it rests on.
pub fn subtract_and_write(
    cfg: &RunCfg,
    layer: &str,
    ops: &[OpSpan],
    leaves: &[LeafSpan],
    geom: &Geometry,
    notes: &mut Vec<String>,
) -> Result<([f64; 2], String), String> {
    let att = attribute(ops, leaves, geom);
    let self_us = self_time_us(ops, &att.children).map(|v| v.unwrap_or(0.0));
    let attributed = att.parents.iter().flatten().count();
    let head = format!(
        "\"workload\":\"{}\",\"seed\":{},\"summary\":{{\"outer_self_us_read\":{},\"outer_self_us_write\":{},\"leaves\":{},\"leaves_attributed\":{attributed}}}",
        cfg.workload,
        cfg.seed,
        self_us[0],
        self_us[1],
        leaves.len()
    );
    let text = render(&head, layer, ops, leaves, &att);
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create {:?}: {e}", cfg.out_dir))?;
    let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
    std::fs::write(&path, text).map_err(|e| format!("write {path:?}: {e}"))?;
    let basis = format!(
        "span subtraction over {} traced ops, {attributed} of {} device requests attributed",
        ops.len(),
        leaves.len()
    );
    notes.push(format!(
        "trace: {basis}; above the device: read {:.2} us, write {:.2} us",
        self_us[0], self_us[1]
    ));
    Ok((self_us, basis))
}

/// Paired differences of one peeled boundary pair, nanoseconds.
#[derive(Default, Debug)]
pub struct Peeled {
    pub read: Vec<i64>,
    pub write: Vec<i64>,
    /// Calls made (two per pair) and calls that failed or returned
    /// wrong bytes.
    pub attempted: u64,
    pub failed: u64,
}

impl Peeled {
    /// Median difference per kind, microseconds (0 with no samples).
    pub fn median_us(&mut self) -> (f64, f64) {
        let us = |v: &mut Vec<i64>| median_i64(v).map_or(0.0, |ns| ns / 1e3);
        (us(&mut self.read), us(&mut self.write))
    }
}

/// An op of a replay stream: record index, top bit set for a write.
pub fn op_parts(op: u32) -> (u64, bool) {
    ((op & 0x7fff_ffff) as u64, op >> 31 == 1)
}

/// Replay `streams[t]` on thread `t` at two adjacent boundaries:
/// `upper(t)` and `lower(t)` open the thread's entry points (on twin
/// rigs, so neither call warms the other's caches), then each op is
/// issued at both, alternating which goes first, and the difference
/// `upper - lower` is kept per op kind. Stops at the end of the stream
/// or when `budget` is spent. Both client threads replay at once, so
/// the calls see the same two-client load as the measured run.
pub fn peel(
    streams: &[Arc<Vec<u32>>],
    budget: Duration,
    payload: &Payload,
    upper: &(dyn Fn(usize) -> Result<RecordPort, String> + Sync),
    lower: &(dyn Fn(usize) -> Result<RecordPort, String> + Sync),
) -> Result<Peeled, String> {
    assert_eq!(streams.len(), CLIENTS);
    let parts: Vec<Result<Peeled, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                s.spawn(move || -> Result<Peeled, String> {
                    let ports = [upper(t)?, lower(t)?];
                    let mut out = Peeled::default();
                    let mut buf = vec![0u8; payload.of(0).len()];
                    let began = Instant::now();
                    for (i, &op) in stream.iter().enumerate() {
                        if i % 32 == 0 && began.elapsed() >= budget {
                            break;
                        }
                        let (r, write) = op_parts(op);
                        let mut ns = [0i64; 2];
                        for k in [i % 2, 1 - i % 2] {
                            let t0 = Instant::now();
                            let res = if write {
                                ports[k].write(r, payload.of(r))
                            } else {
                                ports[k].read(r, &mut buf)
                            };
                            ns[k] = t0.elapsed().as_nanos() as i64;
                            out.attempted += 1;
                            if res.is_err() || (!write && buf != payload.of(r)) {
                                out.failed += 1;
                            }
                        }
                        if write {
                            out.write.push(ns[0] - ns[1]);
                        } else {
                            out.read.push(ns[0] - ns[1]);
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("peel thread panicked"))
            .collect()
    });
    let mut all = Peeled::default();
    for p in parts {
        let p = p?;
        all.read.extend(p.read);
        all.write.extend(p.write);
        all.attempted += p.attempted;
        all.failed += p.failed;
    }
    Ok(all)
}

/// Most spans (ops plus device requests) written to a trace file; the
/// summary covers every traced op regardless.
pub const MAX_SPANS_WRITTEN: usize = 30_000;

/// Render the trace file: the caller's header fields (`head`, JSON
/// members without braces), then the earliest ops of both clients with
/// the leaves attributed to them (and the unattributed leaves of the
/// same stretch of time), up to [`MAX_SPANS_WRITTEN`] spans. An op's
/// span id is its index in `ops` plus one; leaf ids continue after the
/// ops.
pub fn render(
    head: &str,
    layer: &str,
    ops: &[OpSpan],
    leaves: &[LeafSpan],
    att: &Attribution,
) -> String {
    let Attribution { parents, children } = att;
    // The cut: ops in start order until the span budget is spent.
    let mut by_start: Vec<usize> = (0..ops.len()).collect();
    by_start.sort_by_key(|&i| ops[i].start_ns);
    let mut budget = MAX_SPANS_WRITTEN;
    let (mut cut_ns, mut last_end_ns) = (0, 0);
    let mut shown = 0;
    for &i in &by_start {
        let cost = 1 + children[i].requests as usize;
        if cost > budget {
            break;
        }
        budget -= cost;
        cut_ns = ops[i].start_ns;
        last_end_ns = last_end_ns.max(ops[i].end_ns);
        shown += 1;
    }
    let written = |o: &OpSpan| shown > 0 && o.start_ns <= cut_ns;
    let first_ns = by_start.first().map_or(0, |&i| ops[i].start_ns);

    let mut out = String::with_capacity(MAX_SPANS_WRITTEN * 160);
    let _ = write!(
        out,
        "{{{head},\"clock\":\"ns since the run's TraceCtl epoch\",\
         \"ops_traced\":{},\"ops_written\":{shown},\"spans\":[",
        ops.len()
    );
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };
    for (i, o) in ops.iter().enumerate().filter(|(_, o)| written(o)) {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"id\":{},\"op\":\"{}\",\"layer\":\"{layer}\",\"client\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":null}}",
            i + 1,
            if o.write { "write" } else { "read" },
            o.client,
            o.start_ns,
            o.end_ns
        );
    }
    for (j, (l, parent)) in leaves.iter().zip(parents).enumerate() {
        let keep = match parent {
            Some(p) => written(&ops[*p]),
            None => shown > 0 && l.start_ns >= first_ns && l.end_ns <= last_end_ns,
        };
        if !keep {
            continue;
        }
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"id\":{},\"op\":\"{}\",\"layer\":\"disk\",\"dev\":{},\"block\":{},\"blocks\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            ops.len() + j + 1,
            if l.write { "dev_write" } else { "dev_read" },
            l.dev,
            l.block,
            l.blocks,
            l.start_ns,
            l.end_ns,
            parent.map_or("null".to_string(), |p| (p + 1).to_string())
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        // Each device: the file owns blocks 100..150 then 300..350.
        Geometry {
            extents: vec![vec![(100, 50), (300, 50)]; 4],
        }
    }

    fn op(
        client: usize,
        write: bool,
        t: (u64, u64),
        dev: Option<usize>,
        rows: (u64, u64),
    ) -> OpSpan {
        OpSpan {
            client,
            write,
            start_ns: t.0,
            end_ns: t.1,
            dev,
            rows,
        }
    }

    fn leaf(dev: usize, write: bool, block: u64, blocks: u64, t: (u64, u64)) -> LeafSpan {
        LeafSpan {
            dev,
            write,
            block,
            blocks,
            start_ns: t.0,
            end_ns: t.1,
        }
    }

    #[test]
    fn rows_follow_extents() {
        let g = geom();
        assert_eq!(g.row_of(0, 100), Some(0));
        assert_eq!(g.row_of(1, 149), Some(49));
        assert_eq!(g.row_of(2, 300), Some(50));
        assert_eq!(g.row_of(0, 99), None);
        assert_eq!(g.row_of(0, 150), None);
    }

    #[test]
    fn leaves_go_to_the_covering_op_that_addresses_them() {
        // Two clients with overlapping ops; time alone cannot tell the
        // leaves apart, rows and devices can.
        let ops = [
            op(0, false, (0, 100), Some(1), (5, 5)),
            op(0, true, (110, 300), Some(2), (7, 7)),
            op(1, false, (10, 250), None, (50, 60)),
        ];
        let leaves = [
            leaf(1, false, 105, 1, (20, 40)),  // row 5 dev 1 -> op 0
            leaf(3, false, 300, 8, (30, 90)),  // rows 50..57 -> op 2
            leaf(0, false, 305, 4, (60, 120)), // rows 55..58 -> op 2, overlaps previous
            leaf(2, true, 107, 1, (150, 170)), // row 7 dev 2 -> op 1
            leaf(0, true, 3, 1, (160, 165)),   // meta region -> nobody
            leaf(2, true, 107, 1, (290, 310)), // ends after op 1 -> nobody
        ];
        let Attribution {
            parents,
            children: ch,
        } = attribute(&ops, &leaves, &geom());
        assert_eq!(parents, [Some(0), Some(2), Some(2), Some(1), None, None]);
        assert_eq!((ch[0].requests, ch[0].covered_ns), (1, 20));
        assert_eq!((ch[1].requests, ch[1].covered_ns), (1, 20));
        // Union of [30,90] and [60,120] is 90 ns, not 120.
        assert_eq!((ch[2].requests, ch[2].covered_ns), (2, 90));
        let [r, w] = self_time_us(&ops, &ch);
        // Reads: 100-20 = 80 and 240-90 = 150 -> median 115 ns.
        assert_eq!(r, Some(0.115));
        assert_eq!(w, Some(0.17));
    }

    #[test]
    fn rendered_trace_is_json_with_parent_links() {
        let ops = [op(0, false, (0, 100), Some(1), (5, 5))];
        let leaves = [
            leaf(1, false, 105, 1, (20, 40)),
            leaf(0, true, 3, 1, (50, 60)),
        ];
        let att = attribute(&ops, &leaves, &geom());
        let text = render("\"seed\":7", "server", &ops, &leaves, &att);
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["seed"].as_u64(), Some(7));
        let spans = v["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0]["layer"], "server");
        assert_eq!(spans[1]["parent"].as_u64(), Some(1));
        assert!(spans[2]["parent"].is_null());
        assert_eq!(spans[2]["op"], "dev_write");
    }
}
