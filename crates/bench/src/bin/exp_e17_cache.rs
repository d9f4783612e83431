//! E17 — the volume-wide shared buffer cache tier.
//!
//! The paper (§4) ranks buffering software "just as important as the
//! layout of data on disks". Two claims about the [`VolumeCache`] tier
//! in front of the executor bank:
//!
//! 1. **Hot reuse across sessions.** Eight server sessions hammer a hot
//!    working set of GDA records on delay-modelled devices. With the
//!    shared cache tier the second and later touches of a block are
//!    frame copies instead of device requests; aggregate throughput
//!    must be at least 2x the uncached volume, with the hit ratio and
//!    the p50/p99 client latencies reported from the server histogram.
//! 2. **Spill keeps writers unblocked.** A producer dirties far more
//!    blocks than the frame budget on a slow home device. Without a
//!    scratch device every eviction waits out a home writeback; with
//!    one, overflow goes to fast scratch and the producer finishes in a
//!    fraction of the time. A final flush lands every byte regardless.
//! 3. **Hits do not wait on the devices.** One session writes records
//!    under range locks — each write ends in an unlock flush that sits
//!    out a 200 us device write — beside seven sessions re-reading the
//!    hot set. The cache lock is never held across a transfer, so a
//!    hit costs a frame copy whatever the devices are doing: the hit
//!    p50, from exact per-read samples, must stay under a tenth of the
//!    device delay.
//!
//! Results land in `results/e17_cache.json` and
//! `results/e17_cache_under_flush.json`, and the flat benchmark summary
//! in `BENCH_e17_cache.json` at the repo root.
//!
//! [`VolumeCache`]: pario_fs::VolumeCache

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, Bench, Table};
use pario_bench::{banner, BS};
use pario_core::{Organization, ParallelFile};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::{Volume, VolumeCacheConfig};
use pario_server::{quantile_nanos, Saturation, Server, ServerConfig, ServerStats};

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

fn delayed_devices(n: usize, delay: Duration) -> Vec<DeviceRef> {
    (0..n)
        .map(|i| {
            Arc::new(MemDisk::named(&format!("mem{i}"), 2048, BS).with_delay(delay)) as DeviceRef
        })
        .collect()
}

/// xorshift over the hot set: every session walks its own order, all
/// touching the same records.
fn next_hot_record(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x % HOT_RECORDS
}

/// Eight sessions read the hot set in deterministic pseudo-random order
/// through the server; returns (elapsed seconds, server stats).
fn hot_read_lane(server: &Server) -> (f64, ServerStats) {
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for c in 0..SESSIONS {
            let sess = server.connect();
            s.spawn(move |_| {
                let g = sess.open_direct("hot").unwrap();
                let mut buf = vec![0u8; BS];
                let mut x = c as u64 * 0x9E37_79B9 + 1;
                for _ in 0..READS_PER_SESSION {
                    let r = next_hot_record(&mut x);
                    g.read_record(r, &mut buf).unwrap();
                    assert_eq!(buf[0], (r % 251) as u8, "torn record {r}");
                }
            });
        }
    })
    .unwrap();
    (t0.elapsed().as_secs_f64(), server.stats())
}

/// Build the hot-set server over devices of service time `delay`;
/// `cached` attaches the volume cache tier.
fn hot_server(delay: Duration, cached: bool) -> Server {
    let volume = Volume::new(delayed_devices(4, delay)).unwrap();
    let volume = if cached {
        volume
            .enable_cache(VolumeCacheConfig::write_back(FRAMES))
            .unwrap()
    } else {
        volume
    };
    let pf = ParallelFile::create(&volume, "hot", Organization::GlobalDirect, BS, 1).unwrap();
    let h = pf.direct_handle().unwrap();
    for r in 0..HOT_RECORDS {
        h.write_record(r, &[(r % 251) as u8; BS]).unwrap();
    }
    Server::new(
        volume,
        ServerConfig {
            max_in_flight: SESSIONS,
            saturation: Saturation::Block,
        },
    )
}

fn fmt_quantile(stats: &ServerStats, q: f64) -> String {
    match quantile_nanos(&stats.latency, q) {
        Some(ns) => format!("{:.0}us", ns as f64 / 1e3),
        None => "-".to_string(),
    }
}

/// One session writes records just past the hot set, each a range-locked
/// write whose unlock flush waits out a device write, while the other
/// seven re-read the (resident) hot set, timing every read. Returns the
/// readers' sorted per-read nanoseconds and the writes that completed
/// while they ran.
fn hits_under_flush(server: &Server) -> (Vec<u64>, u64) {
    let readers_left = AtomicBool::new(true);
    let mut samples = Vec::with_capacity((SESSIONS - 1) * READS_UNDER_FLUSH);
    let mut writes = 0u64;
    crossbeam::thread::scope(|s| {
        let sess = server.connect();
        let readers_left = &readers_left;
        let writer = s.spawn(move |_| {
            let g = sess.open_direct("hot").unwrap();
            let mut n = 0u64;
            while readers_left.load(Ordering::SeqCst) {
                let r = HOT_RECORDS + n % 16;
                g.write_record(r, &[(r % 251) as u8; BS]).unwrap();
                n += 1;
            }
            n
        });
        let readers: Vec<_> = (1..SESSIONS)
            .map(|c| {
                let sess = server.connect();
                s.spawn(move |_| {
                    let g = sess.open_direct("hot").unwrap();
                    let mut buf = vec![0u8; BS];
                    let mut x = c as u64 * 0x9E37_79B9 + 1;
                    let mut nanos = Vec::with_capacity(READS_UNDER_FLUSH);
                    for _ in 0..READS_UNDER_FLUSH {
                        let r = next_hot_record(&mut x);
                        let t0 = Instant::now();
                        g.read_record(r, &mut buf).unwrap();
                        nanos.push(t0.elapsed().as_nanos() as u64);
                        assert_eq!(buf[0], (r % 251) as u8, "torn record {r}");
                        // Outside the timed call: leave the writer a
                        // CPU, so it is in a flush for the whole run.
                        std::thread::yield_now();
                    }
                    nanos
                })
            })
            .collect();
        for r in readers {
            samples.extend(r.join().unwrap());
        }
        readers_left.store(false, Ordering::SeqCst);
        writes = writer.join().unwrap();
    })
    .unwrap();
    samples.sort_unstable();
    (samples, writes)
}

/// Dirty `blocks` distinct blocks through the raw span path; returns
/// elapsed producer seconds (flush excluded — that is the point).
fn spill_producer(volume: &Volume, blocks: u64) -> f64 {
    let pf = ParallelFile::create(volume, "burst", Organization::GlobalDirect, BS, 1).unwrap();
    let raw = pf.raw().clone();
    raw.ensure_capacity_records(blocks).unwrap();
    let data = vec![7u8; BS];
    let t0 = Instant::now();
    for b in 0..blocks {
        raw.write_span(b * BS as u64, &data).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    banner(
        "E17: volume-wide shared buffer cache (hot reuse, coalescing, spill)",
        "a shared buffer tier in front of the I/O processors turns \
         cross-session hot reuse into frame copies and keeps unbounded \
         writers off the critical path by spilling overflow to scratch",
    );

    // -- Hot-reuse lane --------------------------------------------------
    let uncached = hot_server(DELAY, false);
    let (base_secs, base_stats) = hot_read_lane(&uncached);
    let cached = hot_server(DELAY, true);
    let (hot_secs, hot_stats) = hot_read_lane(&cached);
    let speedup = base_secs / hot_secs;
    let cache = cached.volume().cache_stats().expect("cache enabled");
    let total_ops = (SESSIONS * READS_PER_SESSION) as f64;

    let mut t = Table::new(&["lane", "elapsed", "ops/s", "p50", "p99", "hit ratio"]);
    t.row(&[
        "uncached".into(),
        format!("{:.1}ms", base_secs * 1e3),
        format!("{:.0}", total_ops / base_secs),
        fmt_quantile(&base_stats, 0.5),
        fmt_quantile(&base_stats, 0.99),
        "-".into(),
    ]);
    t.row(&[
        "volume cache".into(),
        format!("{:.1}ms", hot_secs * 1e3),
        format!("{:.0}", total_ops / hot_secs),
        fmt_quantile(&hot_stats, 0.5),
        fmt_quantile(&hot_stats, 0.99),
        format!("{:.3}", cache.hit_ratio()),
    ]);

    // -- Spill lane ------------------------------------------------------
    const BURST: u64 = 128;
    const BUDGET: usize = 8;
    let home_only = Volume::new(delayed_devices(1, DELAY))
        .unwrap()
        .enable_cache(VolumeCacheConfig::write_back(BUDGET))
        .unwrap();
    let blocked_secs = spill_producer(&home_only, BURST);

    let scratch: DeviceRef = Arc::new(MemDisk::named("scratch", 2048, BS));
    let spilling = Volume::new(delayed_devices(1, DELAY))
        .unwrap()
        .enable_cache(VolumeCacheConfig::write_back(BUDGET).with_spill(scratch))
        .unwrap();
    let spill_secs = spill_producer(&spilling, BURST);
    let spill_stats = spilling.cache_stats().expect("cache enabled");
    spilling.flush_cache().unwrap();
    let spill_win = blocked_secs / spill_secs;

    // -- Coalescing lane -------------------------------------------------
    // The no-spill volume evicted all but its 8 frames during the burst;
    // a cold sequential scan therefore misses on long contiguous runs,
    // which the cache must fold into vectored submits instead of
    // per-block device requests.
    let burst_file = home_only.open("burst").unwrap();
    let mut scan = vec![0u8; BURST as usize * BS];
    burst_file.read_span(0, &mut scan).unwrap();
    assert!(scan.iter().all(|&b| b == 7), "burst scan torn");
    let coalesced = home_only
        .cache_stats()
        .expect("cache enabled")
        .coalesced_reads;

    t.row(&[
        format!("burst, no spill ({BURST} blk, {BUDGET} frames)"),
        format!("{:.1}ms", blocked_secs * 1e3),
        format!("{:.0}", BURST as f64 / blocked_secs),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(&[
        format!("burst, spill ({} spills)", spill_stats.spills),
        format!("{:.1}ms", spill_secs * 1e3),
        format!("{:.0}", BURST as f64 / spill_secs),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.print();
    save_json("e17_cache", &t);

    // -- Hits under flush ------------------------------------------------
    let flushing = hot_server(FLUSH_DELAY, true);
    hot_read_lane(&flushing); // every hot record resident before the clock starts
    let before = flushing.volume().cache_stats().expect("cache enabled");
    let (hit_nanos, flush_writes) = hits_under_flush(&flushing);
    let after = flushing.volume().cache_stats().expect("cache enabled");
    let exact = |q: f64| hit_nanos[((hit_nanos.len() - 1) as f64 * q) as usize];
    let (hit_p50, hit_p99) = (exact(0.5), exact(0.99));
    let mut under = Table::new(&["lane", "reads", "unlock flushes", "hit p50", "hit p99"]);
    under.row(&[
        format!(
            "{} readers beside 1 locked writer, {}us devices",
            SESSIONS - 1,
            FLUSH_DELAY.as_micros()
        ),
        hit_nanos.len().to_string(),
        flush_writes.to_string(),
        format!("{hit_p50}ns"),
        format!("{hit_p99}ns"),
    ]);
    under.print();
    save_json("e17_cache_under_flush", &under);

    Bench::new()
        .label("experiment", "e17_cache")
        .int("sessions", SESSIONS as u64)
        .int("reads_per_session", READS_PER_SESSION as u64)
        .int("hot_records", HOT_RECORDS)
        .int("frames", FRAMES as u64)
        .num("uncached_ops_per_sec", total_ops / base_secs)
        .num("cached_ops_per_sec", total_ops / hot_secs)
        .num("speedup", speedup)
        .num("hit_ratio", cache.hit_ratio())
        .int("coalesced_reads", coalesced)
        .int(
            "p50_nanos",
            quantile_nanos(&hot_stats.latency, 0.5).unwrap_or(0),
        )
        .int(
            "p99_nanos",
            quantile_nanos(&hot_stats.latency, 0.99).unwrap_or(0),
        )
        .int(
            "uncached_p50_nanos",
            quantile_nanos(&base_stats.latency, 0.5).unwrap_or(0),
        )
        .int(
            "uncached_p99_nanos",
            quantile_nanos(&base_stats.latency, 0.99).unwrap_or(0),
        )
        .int("spill_blocks", BURST)
        .int("spill_frame_budget", BUDGET as u64)
        .int("spills", spill_stats.spills)
        .num("producer_secs_no_spill", blocked_secs)
        .num("producer_secs_with_spill", spill_secs)
        .num("spill_speedup", spill_win)
        .int("reads_under_flush", hit_nanos.len() as u64)
        .int("flushes_under_readers", flush_writes)
        .int("hit_p50_under_flush_nanos", hit_p50)
        .int("hit_p99_under_flush_nanos", hit_p99)
        .save("e17_cache");

    println!("\nasserted facts:");
    let mut facts = Table::new(&["fact", "value", "required"]);
    facts.row(&[
        "hot-reuse speedup, cached vs uncached".into(),
        format!("{speedup:.2}x"),
        ">= 2.0x".into(),
    ]);
    facts.row(&[
        "steady-state hit ratio".into(),
        format!("{:.3}", cache.hit_ratio()),
        ">= 0.5".into(),
    ]);
    facts.row(&[
        "dirty overflow spilled to scratch".into(),
        spill_stats.spills.to_string(),
        "> 0".into(),
    ]);
    facts.row(&[
        "cold-scan misses coalesced into vectored submits".into(),
        coalesced.to_string(),
        "> 0".into(),
    ]);
    facts.row(&[
        "producer speedup with spill vs home writeback".into(),
        format!("{spill_win:.2}x"),
        "> 1.5x".into(),
    ]);
    facts.row(&[
        "hit p50 beside a flushing writer".into(),
        format!("{hit_p50}ns"),
        format!("< {}ns (device delay / 10)", FLUSH_DELAY.as_nanos() / 10),
    ]);
    facts.print();

    assert!(
        speedup >= 2.0,
        "cache must double hot-reuse throughput (got {speedup:.2}x)"
    );
    assert!(
        cache.hit_ratio() >= 0.5,
        "hot set must mostly hit (got {:.3})",
        cache.hit_ratio()
    );
    assert!(spill_stats.spills > 0, "burst must overflow to scratch");
    assert!(coalesced > 0, "cold scan must coalesce adjacent misses");
    assert!(
        spill_win > 1.5,
        "spill must keep the producer off the home device \
         ({blocked_secs:.4}s vs {spill_secs:.4}s)"
    );
    assert_eq!(
        after.base.misses, before.base.misses,
        "every read beside the writer must be a hit"
    );
    assert!(
        flush_writes >= 10,
        "the writer must flush while the readers run (got {flush_writes} writes)"
    );
    assert!(
        u128::from(hit_p50) < FLUSH_DELAY.as_nanos() / 10,
        "a hit must not wait out a device transfer: p50 {hit_p50}ns beside \
         {flush_writes} unlock flushes of {}us each",
        FLUSH_DELAY.as_micros()
    );
    println!("\nE17 assertions passed.");
}
