//! The three record workloads on a GDA file: `gda-inproc`,
//! `gda-socket` and `cache-skew`. One rig shape, one op mix (70 % reads),
//! differing in the boundary the clients enter at, the key
//! distribution, and whether the volume cache and a device delay are on.

use std::sync::Arc;

use pario_layout::LayoutSpec;
use pario_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::catalogue::Report;
use crate::layers::{self, counter_metrics};
use crate::measure::{Client, Sample, CLIENTS};
use crate::probe_disk::TraceCtl;
use crate::rig::{Boundary, GdaShape, Payload, RecordPort, Rig, BS, DEVICES, RECORDS, SKEW_DELAY};
use crate::run::{
    finish, layer_report, measure, set_handoff, set_peeled, time_setups, Outcome, Plan, Res, RunCfg,
};
use crate::trace::{op_parts, peel, subtract_and_write, Geometry, OpSpan, Peeled};

/// Fraction of ops that write.
const WRITE_FRACTION: f64 = 0.3;
/// Ops generated per client; the stream wraps if a run outlasts it.
const STREAM_OPS: usize = 1 << 20;
/// Ops of each stream the peeled replays use.
const PEEL_OPS: usize = 50_000;

/// The workload's parameters.
struct Spec {
    shape: GdaShape,
    /// Zipf exponent of the record keys (0 = uniform).
    theta: f64,
}

fn spec_of(workload: &str) -> Spec {
    let (socket, cache, theta) = match workload {
        "gda-inproc" => (false, false, 0.0),
        "gda-socket" => (true, false, 0.0),
        "cache-skew" => (false, true, 0.99),
        other => unreachable!("{other} is not a GDA workload"),
    };
    Spec {
        shape: GdaShape { socket, cache },
        theta,
    }
}

/// Client `c`'s op stream for `seed`: record index in the low bits,
/// top bit set for a write.
pub fn op_stream(seed: u64, c: usize, theta: f64, len: usize) -> Arc<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64));
    let zipf = Zipf::new(RECORDS as usize, theta);
    Arc::new(
        (0..len)
            .map(|_| {
                let r = zipf.sample(&mut rng) as u32;
                let write = rng.random_bool(WRITE_FRACTION);
                r | (write as u32) << 31
            })
            .collect(),
    )
}

struct GdaClient {
    port: RecordPort,
    ops: Arc<Vec<u32>>,
    payload: Arc<Payload>,
    buf: Vec<u8>,
    first_error: Option<String>,
}

impl Client for GdaClient {
    fn step(&mut self, i: usize, ctl: &TraceCtl) -> Sample {
        let (r, write) = op_parts(self.ops[i % self.ops.len()]);
        let want = self.payload.of(r);
        let start_ns = ctl.now_ns();
        let res = if write {
            self.port.write(r, want)
        } else {
            self.port.read(r, &mut self.buf)
        };
        let lat_ns = (ctl.now_ns() - start_ns).min(u32::MAX as u64) as u32;
        let res = res.and_then(|()| {
            if write || self.buf == want {
                Ok(())
            } else {
                Err(format!("record {r} read back wrong bytes"))
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
    let spec = spec_of(&cfg.workload);
    let plan = Plan::of(cfg);
    let ctl = TraceCtl::new();
    let payload = Arc::new(Payload::new(BS));
    let streams: Vec<Arc<Vec<u32>>> = (0..CLIENTS)
        .map(|c| op_stream(cfg.seed, c, spec.theta, STREAM_OPS))
        .collect();
    let top = if spec.shape.socket {
        Boundary::Net
    } else {
        Boundary::Session
    };

    // Set-up, timed: devices, volume, file, prefill, server, listener,
    // and the two clients' sessions or connections.
    let (setup, (rig, ports)) = time_setups(cfg, &ctl, || {
        let rig = Rig::gda(&ctl, spec.shape, &payload)?;
        let ports = (0..CLIENTS)
            .map(|_| rig.port(top))
            .collect::<Res<Vec<_>>>()?;
        Ok((rig, ports))
    })?;

    let clients: Vec<GdaClient> = ports
        .into_iter()
        .zip(&streams)
        .map(|(port, ops)| GdaClient {
            port,
            ops: ops.clone(),
            payload: payload.clone(),
            buf: vec![0u8; BS],
            first_error: None,
        })
        .collect();
    let mut m = measure(cfg, &plan, &ctl, &rig, clients, BS as u64);

    let layer = match &m.snaps {
        None => None,
        Some((before, after)) => {
            let (mut rep, more, read_p50) =
                layer_report(&m.windows, &plan.sched, m.driven.calib_ns(&plan.sched));
            m.notes.extend(more);
            let ops = m.driven.ops_measured();
            counter_metrics(
                &mut rep,
                before,
                after,
                ops,
                ops * BS as u64,
                spec.shape.socket,
            );

            // Span subtraction over the traced windows: everything
            // between the generator's call and the device, in one number.
            subtract_and_write(
                cfg,
                if spec.shape.socket { "net" } else { "server" },
                &traced_ops(&m.driven, &streams),
                &rig.devs.take_spans(),
                &Geometry::of(&rig.pfile.raw().meta_snapshot(), DEVICES),
                &mut m.notes,
            )?;

            // Peeled replays split that number by layer, on two fresh
            // twin rigs so both sides of a pair start from the same
            // (cold) cache state.
            let twins = [
                Rig::gda(&ctl, spec.shape, &payload)?,
                Rig::gda(&ctl, spec.shape, &payload)?,
            ];
            let mut chain = vec![
                ("server", Boundary::Session),
                ("core", Boundary::Handle),
                ("fs", Boundary::Raw),
            ];
            if spec.shape.socket {
                chain.insert(0, ("net", Boundary::Net));
            }
            // Below `RawFile` sits the cache where there is one, else
            // the executor hand-off.
            chain.push(if spec.shape.cache {
                ("buffer", Boundary::Cache)
            } else {
                ("disk", Boundary::IoDev)
            });
            let peel_streams: Vec<Arc<Vec<u32>>> = streams
                .iter()
                .map(|s| Arc::new(s[..PEEL_OPS].to_vec()))
                .collect();
            let budget = plan.peel / chain.len() as u32;
            let mut replay = |up: Boundary, down: Boundary| -> Res<Peeled> {
                let p = peel(
                    &peel_streams,
                    budget,
                    &payload,
                    &|_| twins[0].port(up),
                    &|_| twins[1].port(down),
                )?;
                m.attempted += p.attempted;
                m.failed += p.failed;
                Ok(p)
            };
            for pair in chain.windows(2) {
                let ((layer, up), (_, down)) = (pair[0], pair[1]);
                let mut p = replay(up, down)?;
                set_peeled(&mut rep, layer, &format!("{up:?} - {down:?}"), &mut p);
            }
            set_handoff(&mut rep, &mut replay(Boundary::IoDev, Boundary::Dev)?);
            drop(twins);

            // Isolated calls, only for the layers this workload's ops cross.
            rep.set(
                "server.admit_ns",
                layers::admit_ns(),
                "isolated, uncontended",
            );
            rep.set(
                "layout.map_ns_striped",
                layers::layout_map_ns(&LayoutSpec::Striped {
                    devices: DEVICES,
                    unit: 1,
                }),
                "isolated",
            );
            if spec.shape.socket {
                rep.set(
                    "net.codec_ns_per_frame",
                    layers::codec_ns_per_frame(),
                    "isolated, 4 KiB DirWrite",
                );
            }
            if spec.shape.cache {
                let (hit, miss) = layers::cache_hit_miss(SKEW_DELAY);
                rep.set("buffer.hit_ns", hit, "isolated, resident block");
                rep.set(
                    "buffer.miss_us",
                    miss,
                    "isolated, absent block, 200 us device",
                );
            }
            if cfg.workload == "gda-inproc" {
                m.notes.push(layer_sum_note(&rep, read_p50));
            }
            Some(rep)
        }
    };
    // A write-back cache flushes in the volume's drop, before the oracle.
    finish(rig, &payload, layer, m, &setup)
}

/// Op spans of the traced windows, grouped by client in start order.
fn traced_ops(driven: &crate::measure::Driven, streams: &[Arc<Vec<u32>>]) -> Vec<OpSpan> {
    let mut out = Vec::new();
    for (client, (log, ops)) in driven.logs.iter().zip(streams).enumerate() {
        for &(i, s) in log.traced.iter().filter(|(_, s)| s.ok) {
            let (r, _) = op_parts(ops[i % ops.len()]);
            // 4-way striped, unit 1: record r is row r/4 of device r%4.
            let row = r / DEVICES as u64;
            out.push(OpSpan {
                client,
                write: s.write,
                start_ns: s.start_ns,
                end_ns: s.end_ns(),
                dev: Some((r % DEVICES as u64) as usize),
                rows: (row, row),
            });
        }
    }
    out
}

/// "The layers add up": the peeled self times plus the device's own
/// service time against the read p50 of the same run's untraced windows.
fn layer_sum_note(rep: &Report, p50: f64) -> String {
    let parts = [
        "server.self_us_read",
        "core.self_us_read",
        "fs.self_us_read",
        "disk.handoff_us",
        "disk.service_us_per_req",
    ];
    let sum: f64 = parts.iter().map(|p| rep.get(p)).sum();
    format!(
        "layer sum (read): {} = {sum:.2} us against read_p50_us {p50:.2} us; residue {:.2} us ({:.0} %)",
        parts.join(" + "),
        p50 - sum,
        (p50 - sum) / p50 * 100.0
    )
}
