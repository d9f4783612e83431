//! E17 — the volume-wide shared buffer cache tier.
//!
//! The paper (§4) ranks buffering software "just as important as the
//! layout of data on disks". Three claims about the [`VolumeCache`] tier
//! in front of the executor bank:
//!
//! 1. **Hot reuse across sessions.** Eight server sessions hammer a hot
//!    working set of GDA records on delay-modelled devices. With the
//!    shared cache tier the second and later touches of a block are
//!    frame copies instead of device requests; aggregate throughput
//!    must be at least 2x the uncached volume, with the hit ratio and
//!    the p50/p99 client latencies reported from the server histogram.
//! 2. **A burst past the frame budget goes home in runs.** A producer
//!    dirties far more blocks than the frame budget on a slow home
//!    device; every eviction waits out the write-back of its victim
//!    together with the victim's dirty neighbors, one vectored run. The
//!    lane reports the producer's seconds and the coalesced writes, and
//!    a cold scan of the evicted burst coalesces its misses.
//! 3. **Hits do not wait on the devices.** One session writes records
//!    under range locks — each write ends in an unlock flush that sits
//!    out a 200 us device write — beside seven sessions re-reading the
//!    hot set. The cache lock is never held across a transfer, so a
//!    hit costs a frame copy whatever the devices are doing: the hit
//!    p50, every read timed at the caller, must stay under a tenth of
//!    the device delay.
//!
//! [`VolumeCache`]: pario_fs::VolumeCache

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeCacheConfig};
use pario_server::{quantile_nanos, LatencyHistogram, Saturation, Server, ServerConfig};

use crate::measure::{nanos, Measured, RUNS};
use crate::rig::{clients, fill, rec_byte, Rig};
use crate::{Report, Size, BS};

/// Modelled device service time: large enough that the device sleeps
/// (workers genuinely overlap) and a frame copy is decisively cheaper.
const DELAY: Duration = Duration::from_micros(300);
const SESSIONS: usize = 8;
/// Hot working set, in one-block records; sized well under the frame
/// budget so steady state is all hits.
const HOT_RECORDS: u64 = 48;
const READS_PER_SESSION: usize = 300;
const FRAMES: usize = 96;
/// Device delay of the under-flush lane, and what each of its readers
/// reads.
const FLUSH_DELAY: Duration = Duration::from_micros(200);
const READS_UNDER_FLUSH: usize = 20_000;
/// The burst lane: blocks the producer dirties, and the frames it has.
const BURST: u64 = 128;
const BUDGET: usize = 8;

/// xorshift over the hot set: every session walks its own order, all
/// touching the same records.
fn next_hot_record(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x % HOT_RECORDS
}

/// The hot-set server over devices of service time `delay`; `cached`
/// attaches the volume cache tier.
fn hot_set_server(delay: Duration, cached: bool) -> Server {
    let mut rig = Rig::new(4).delay(delay);
    if cached {
        rig = rig.cache(VolumeCacheConfig::write_back(FRAMES));
    }
    let server = rig.server(ServerConfig {
        max_in_flight: SESSIONS,
        saturation: Saturation::Block,
    });
    let org = Organization::GlobalDirect;
    fill(
        &ParallelFile::create(server.volume(), "hot", org, BS, 1).unwrap(),
        HOT_RECORDS,
    );
    server
}

/// Session `c`'s walk of the hot set: `reads` reads in its own
/// deterministic pseudo-random order, each checked. With `hits`, every
/// read is timed into it and followed by a yield (outside the timed
/// call: it leaves the under-flush lane's writer a CPU, so it is in a
/// flush for the whole run).
fn read_hot(server: &Server, c: usize, reads: usize, hits: Option<&LatencyHistogram>) {
    let sess = server.connect();
    let g = sess.open_direct("hot").unwrap();
    let mut buf = vec![0u8; BS];
    let mut x = c as u64 * 0x9E37_79B9 + 1;
    for _ in 0..reads {
        let r = next_hot_record(&mut x);
        let t0 = hits.map(|_| Instant::now());
        g.read_record(r, &mut buf).unwrap();
        if let (Some(hits), Some(t0)) = (hits, t0) {
            hits.record(t0.elapsed());
            std::thread::yield_now();
        }
        assert_eq!(buf[0], rec_byte(r), "torn record {r}");
    }
}

/// Eight sessions read the hot set through the server; elapsed seconds.
fn read_hot_set(server: &Server) -> f64 {
    clients(SESSIONS, |c| read_hot(server, c, READS_PER_SESSION, None))
}

/// One run of the hot-reuse lane on a fresh server.
fn hot_run(cached: bool) -> Vec<(&'static str, f64)> {
    let server = hot_set_server(DELAY, cached);
    let secs = read_hot_set(&server);
    let st = server.stats();
    let mut out = vec![
        ("ops_per_sec", (SESSIONS * READS_PER_SESSION) as f64 / secs),
        ("p50_nanos", nanos(st.p50())),
        ("p99_nanos", nanos(st.p99())),
    ];
    if let Some(cache) = server.volume().cache_stats() {
        out.push(("hit_ratio", cache.hit_ratio()));
    }
    out
}

/// Dirty [`BURST`] distinct blocks through the raw span path; elapsed
/// producer seconds (flush excluded).
fn burst_producer(volume: &Volume) -> f64 {
    let org = Organization::GlobalDirect;
    let pf = ParallelFile::create(volume, "burst", org, BS, 1).unwrap();
    let raw = pf.raw().clone();
    raw.ensure_capacity_records(BURST).unwrap();
    let data = vec![7u8; BS];
    let t0 = Instant::now();
    for b in 0..BURST {
        raw.write_span(b * BS as u64, &data).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

/// One run of the burst lane: the burst on a slow home device, each
/// eviction waiting out a coalesced write-back, then a cold scan — the
/// producer evicted all but its [`BUDGET`] frames, so the scan misses
/// on long contiguous runs, which the cache must fold into vectored
/// submits.
fn burst_run() -> Vec<(&'static str, f64)> {
    let volume = Rig::new(1)
        .delay(DELAY)
        .cache(VolumeCacheConfig::write_back(BUDGET))
        .volume();
    let stats = || volume.cache_stats().expect("cache enabled");
    let secs = burst_producer(&volume);
    let coalesced_writes = stats().coalesced_writes;

    let mut scan = vec![0u8; BURST as usize * BS];
    let burst = volume.open("burst").unwrap();
    burst.read_span(0, &mut scan).unwrap();
    assert!(scan.iter().all(|&b| b == 7), "burst scan torn");
    let coalesced_reads = stats().coalesced_reads;
    vec![
        ("producer_secs", secs),
        ("coalesced_writes", coalesced_writes as f64),
        ("coalesced_reads", coalesced_reads as f64),
    ]
}

/// One run of the under-flush lane: one session writes records just
/// past the hot set, each a range-locked write whose unlock flush waits
/// out a device write, while the other seven re-read the (resident) hot
/// set, timing every read. Panics if any of those reads missed.
fn under_flush_run() -> Vec<(&'static str, f64)> {
    let server = hot_set_server(FLUSH_DELAY, true);
    read_hot_set(&server); // every hot record resident before the clock starts
    let misses_before = server.volume().cache_stats().unwrap().base.misses;
    let readers_left = AtomicUsize::new(SESSIONS - 1);
    let hits = LatencyHistogram::default();
    let flushes = AtomicU64::new(0);
    clients(SESSIONS, |c| {
        if c > 0 {
            read_hot(&server, c, READS_UNDER_FLUSH, Some(&hits));
            readers_left.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let sess = server.connect();
        let g = sess.open_direct("hot").unwrap();
        while readers_left.load(Ordering::SeqCst) > 0 {
            let r = HOT_RECORDS + flushes.fetch_add(1, Ordering::SeqCst) % 16;
            g.write_record(r, &[rec_byte(r); BS]).unwrap();
        }
    });
    assert_eq!(
        server.volume().cache_stats().unwrap().base.misses,
        misses_before,
        "every read beside the writer must be a hit"
    );
    let hits = hits.snapshot();
    vec![
        ("hit_p50_nanos", nanos(quantile_nanos(&hits, 0.5))),
        ("hit_p99_nanos", nanos(quantile_nanos(&hits, 0.99))),
        ("unlock_flushes", flushes.into_inner() as f64),
    ]
}

/// Hot reuse uncached and cached, the burst, and hits beside flushes.
pub fn run(_: Size) -> Report {
    let mut lanes = Measured::new("e17_cache");
    lanes
        .fact("sessions", SESSIONS as f64)
        .fact("reads_per_session", READS_PER_SESSION as f64)
        .fact("hot_records", HOT_RECORDS as f64)
        .fact("frames", FRAMES as f64)
        .fact("burst_blocks", BURST as f64)
        .fact("burst_frame_budget", BUDGET as f64)
        .fact(
            "reads_under_flush",
            ((SESSIONS - 1) * READS_UNDER_FLUSH) as f64,
        );

    let uncached = lanes.lane("uncached", RUNS, || hot_run(false));
    let cached = lanes.lane("cached", RUNS, || hot_run(true));
    let burst = lanes.lane("burst", RUNS, burst_run);
    let under = lanes.lane("under_flush", RUNS, under_flush_run);
    let speedup = cached["ops_per_sec"].median / uncached["ops_per_sec"].median;
    lanes.fact("speedup", speedup);

    let mut r = Report::default();
    r.measured(lanes)
        .at_least("hot-reuse throughput, cached over uncached", speedup, 2.0)
        .at_least("steady-state hit ratio", cached["hit_ratio"].median, 0.5)
        .check(
            "eviction writes the burst home in coalesced runs",
            burst["coalesced_writes"].lo > 0.0,
        )
        .check(
            "a cold scan coalesces adjacent misses into vectored submits",
            burst["coalesced_reads"].lo > 0.0,
        )
        .check(
            "the writer flushes while the readers run (>= 10 unlock flushes a run)",
            under["unlock_flushes"].lo >= 10.0,
        )
        .at_most(
            "hit_p50_nanos beside a flushing writer (a tenth of the device delay)",
            under["hit_p50_nanos"].median,
            FLUSH_DELAY.as_nanos() as f64 / 10.0,
        );
    r
}
