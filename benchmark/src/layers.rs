//! Per-layer numbers that do not need spans: deltas of the public
//! snapshot structs across the measured part of a run, and isolated
//! micro-measurements of single public functions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pario_buffer::{VolumeCache, VolumeCacheConfig, VolumeCacheStats};
use pario_core::SharedCursor;
use pario_disk::{DeviceRef, IoNode, IoNodeStats, MemDisk};
use pario_fs::Volume;
use pario_layout::LayoutSpec;
use pario_net::frame::{encode_frame, read_frame};
use pario_net::proto::Request;
use pario_net::wire::WireWriter;
use pario_server::{Admission, Saturation, Server, ServerStats};

use crate::catalogue::Report;
use crate::measure::CLIENTS;
use crate::probe_disk::{ProbeCounts, TraceCtl};
use crate::procfs::ProcSnap;
use crate::rig::{Devices, BS, DEVICES};
use crate::stats::median;

/// Every cumulative counter the program and the OS expose, at one
/// instant.
pub struct Snapshot {
    pub t_ns: u64,
    pub probe: ProbeCounts,
    pub exec: IoNodeStats,
    pub server: Option<ServerStats>,
    pub cache: Option<VolumeCacheStats>,
    /// Checkpoint generation (`Volume::meta_status`).
    pub generation: u64,
    pub proc: ProcSnap,
}

impl Snapshot {
    pub fn take(ctl: &TraceCtl, devs: &Devices, vol: &Volume, server: Option<&Server>) -> Snapshot {
        Snapshot {
            t_ns: ctl.now_ns(),
            generation: vol.meta_status().generation,
            probe: devs.counts(),
            exec: vol.executor_stats(),
            server: server.map(Server::stats),
            cache: vol.cache_stats(),
            proc: ProcSnap::take(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fill in every counter-derived per-layer metric from the snapshots
/// either side of the measured part. `ops` completed and `user_bytes`
/// moved between them; `socket` says whether the clients came in over
/// TCP (only then do read/write syscalls belong to `net`).
pub fn counter_metrics(
    rep: &mut Report,
    a: &Snapshot,
    b: &Snapshot,
    ops: u64,
    user_bytes: u64,
    socket: bool,
) {
    let basis = format!("{ops} ops");
    let kop = |n: u64| ratio(n * 1000, ops);
    let d = b.probe.since(&a.probe);
    rep.set("fs.dev_reqs_per_op", ratio(d.requests(), ops), &basis);
    rep.set(
        "fs.blocks_per_req",
        ratio(d.blocks(), d.requests()),
        format!("{} device requests", d.requests()),
    );
    rep.set(
        "fs.dev_blocks_per_user_block",
        ratio(d.blocks(), user_bytes / BS as u64),
        format!("{} user blocks", user_bytes / BS as u64),
    );
    rep.set("fs.meta_writes_per_kop", kop(d.meta_writes), &basis);
    rep.set(
        "fs.checkpoints_per_kop",
        kop(b.generation - a.generation),
        &basis,
    );
    rep.set("fs.flushes_per_kop", kop(d.flushes), &basis);

    let serviced = b.exec.serviced - a.exec.serviced;
    let reqs = format!("{serviced} executor requests");
    let wait = b.exec.queue_wait_nanos - a.exec.queue_wait_nanos;
    let service = b.exec.service_nanos - a.exec.service_nanos;
    rep.set(
        "disk.queue_wait_us_per_req",
        ratio(wait, serviced) / 1e3,
        &reqs,
    );
    rep.set(
        "disk.service_us_per_req",
        ratio(service, serviced) / 1e3,
        &reqs,
    );
    rep.set(
        "disk.busy_frac",
        ratio(service, (b.t_ns - a.t_ns) * DEVICES as u64),
        format!("{DEVICES} devices"),
    );
    rep.set(
        "disk.max_in_flight",
        b.exec.max_in_flight as f64,
        "high water since the rig was built",
    );
    rep.set("disk.req_size_p50_blocks", d.size_p50() as f64, &reqs);
    rep.set(
        "disk.retries",
        (b.exec.retries - a.exec.retries) as f64,
        &reqs,
    );
    rep.set(
        "disk.timeouts",
        (b.exec.timeouts - a.exec.timeouts) as f64,
        &reqs,
    );
    rep.set("disk.panics", (b.exec.panics - a.exec.panics) as f64, &reqs);

    if let (Some(sa), Some(sb)) = (&a.server, &b.server) {
        rep.set(
            "server.admitted_per_op",
            ratio(sb.total_admitted - sa.total_admitted, ops),
            &basis,
        );
        rep.set(
            "server.rejected",
            (sb.rejected - sa.rejected) as f64,
            &basis,
        );
        rep.set(
            "server.wait_high_water",
            sb.wait_high_water as f64,
            "high water since the rig was built",
        );
        rep.set(
            "server.inflight_high_water",
            sb.queue_depth_high_water as f64,
            "high water since the rig was built",
        );
    }

    if let (Some(ca), Some(cb)) = (&a.cache, &b.cache) {
        let hits = cb.base.hits - ca.base.hits;
        let misses = cb.base.misses - ca.base.misses;
        let writebacks = cb.base.writebacks - ca.base.writebacks;
        rep.set(
            "buffer.hit_ratio",
            ratio(hits, hits + misses),
            format!("{} cache reads", hits + misses),
        );
        rep.set(
            "buffer.evictions_per_kop",
            kop(cb.base.evictions - ca.base.evictions),
            &basis,
        );
        rep.set("buffer.writebacks_per_kop", kop(writebacks), &basis);
        rep.set(
            "buffer.coalesced_writes_per_writeback",
            ratio(cb.coalesced_writes - ca.coalesced_writes, writebacks),
            format!("{writebacks} writebacks"),
        );
        rep.set(
            "buffer.coalesced_reads_per_miss",
            ratio(cb.coalesced_reads - ca.coalesced_reads, misses),
            format!("{misses} misses"),
        );
        rep.set(
            "buffer.invalidations_per_kop",
            kop(cb.invalidations - ca.invalidations),
            &basis,
        );
    }

    let cpu = (b.proc.user_us + b.proc.sys_us) - (a.proc.user_us + a.proc.sys_us);
    rep.set("proc.cpu_us_per_op", ratio(cpu, ops), &basis);
    rep.set(
        "proc.sys_frac",
        ratio(b.proc.sys_us - a.proc.sys_us, cpu),
        format!("{cpu} us of CPU"),
    );
    rep.set(
        "proc.vcsw_per_op",
        ratio(b.proc.vcsw.saturating_sub(a.proc.vcsw), ops),
        &basis,
    );
    rep.set(
        "proc.threads",
        b.proc.threads as f64,
        "at the end of the window",
    );
    if socket {
        rep.set(
            "net.rw_syscalls_per_op",
            ratio(b.proc.rw_syscalls - a.proc.rw_syscalls, ops),
            &basis,
        );
    }
}

/// Nanoseconds per call of `f`: the median over 5 batches of `iters`.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches).expect("five batches")
}

/// `encode_frame` + `read_frame` + `Request::decode` of one 4 KiB
/// `DirWrite`: the codec's share of a socket write, without the socket.
pub fn codec_ns_per_frame() -> f64 {
    let req = Request::DirWrite {
        handle: 1,
        record: 4097,
        data: Bytes::copy_from_slice(&[0x5a; BS]),
    };
    let mut payload = WireWriter::new();
    let mut frame = Vec::with_capacity(BS + 64);
    ns_per_call(20_000, || {
        payload.clear();
        req.encode_payload(&mut payload);
        frame.clear();
        encode_frame(&mut frame, 7, req.opcode(), payload.bytes());
        let raw = read_frame(&mut &frame[..], 1 << 20)
            .expect("well-formed frame")
            .expect("one frame");
        let back = Request::decode(raw.code, &raw.body).expect("decodes");
        std::hint::black_box(back);
    })
}

/// One uncontended `Admission::acquire` + permit drop.
pub fn admit_ns() -> f64 {
    let adm = Admission::new(8, Saturation::Block);
    ns_per_call(200_000, || {
        drop(std::hint::black_box(
            adm.acquire(0).expect("under the limit"),
        ));
    })
}

/// One `SharedCursor::claim` as a client sees it while the other
/// client claims too.
pub fn ss_claim_ns() -> f64 {
    const CLAIMS: u32 = 500_000;
    let cursor = SharedCursor::new(0);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let t0 = Instant::now();
                    for _ in 0..CLAIMS {
                        std::hint::black_box(cursor.claim(u64::MAX));
                    }
                    t0.elapsed().as_nanos() as f64 / CLAIMS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("claim thread panicked"))
            .collect()
    });
    median(&per_thread).expect("two threads")
}

/// `VolumeCache::read_block` on a resident block (nanoseconds) and on an
/// absent one (microseconds), over an executor-fronted device with the
/// given service delay.
pub fn cache_hit_miss(delay: Duration) -> (f64, f64) {
    const MISSES: u64 = 200;
    let mem: DeviceRef = Arc::new(MemDisk::new(MISSES + 1, BS).with_delay(delay));
    let cache = VolumeCache::new(
        vec![IoNode::spawn(mem).device()],
        VolumeCacheConfig::write_back(MISSES as usize + 1),
    );
    let mut buf = vec![0u8; BS];
    let mut miss_ns: Vec<f64> = (0..MISSES)
        .map(|b| {
            let t0 = Instant::now();
            cache.read_block(0, b, &mut buf).expect("device read");
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    miss_ns.sort_by(f64::total_cmp);
    let hit = ns_per_call(50_000, || {
        cache.read_block(0, 3, &mut buf).expect("resident block");
    });
    (hit, median(&miss_ns).expect("misses") / 1e3)
}

/// One `Layout::map` call of the layout `spec` builds.
pub fn layout_map_ns(spec: &LayoutSpec) -> f64 {
    let layout = spec.build();
    let mut l = 0u64;
    ns_per_call(1_000_000, || {
        l = (l + 1) % 8192;
        std::hint::black_box(layout.map(std::hint::black_box(l)));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_measurements_are_positive_and_ordered() {
        assert!(codec_ns_per_frame() > 0.0);
        assert!(admit_ns() > 0.0);
        assert!(ss_claim_ns() > 0.0);
        let (hit_ns, miss_us) = cache_hit_miss(Duration::from_micros(200));
        assert!(
            hit_ns > 0.0 && miss_us >= 200.0,
            "hit {hit_ns} miss {miss_us}"
        );
        assert!(hit_ns / 1e3 < miss_us);
        assert!(
            layout_map_ns(&LayoutSpec::Parity {
                data_devices: 3,
                rotated: true
            }) > 0.0
        );
    }
}
