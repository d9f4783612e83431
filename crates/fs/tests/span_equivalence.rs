//! Property test: the coalesced (and parallel) span I/O path is
//! byte-identical to a simple in-memory reference across every layout
//! variant, at arbitrary unaligned offsets and lengths — including
//! degraded reads with one device failed mid-file for redundant layouts.
//!
//! The 1-block and single-run arms at the bottom pin the direct path: a
//! whole-block span that is one device transfer blocks on the
//! executor's synchronous call (one request, no queue wait) and is
//! byte-identical to the same span on a cached volume, and an unhealthy
//! slot routes exactly as it always did.
//!
//! The third property is about what spans share: the volume recycles
//! their staging buffers, so two files of different bytes, spans
//! interleaved at random and a device fail-stopped half way must still
//! return, byte for byte, what a per-record twin holds — through the
//! parity reconstruction, the surviving mirror and a plain stripe's
//! error alike.
//!
//! The second property holds the sequential stream — `GlobalWriter`
//! writing behind, `GlobalReader` reading ahead — to the per-record
//! reference: the same bytes back, and the same blocks on every device
//! of the file, parity rows and mirror copies included.

use std::sync::Arc;

use proptest::prelude::*;

use pario_disk::{DiskError, IoNodeStats, MemDisk};
use pario_fs::{
    FileSpec, GlobalReader, GlobalWriter, RawFile, Volume, VolumeCacheConfig, VolumeConfig,
};
use pario_layout::{plan, LayoutSpec};

const BS: usize = 256;
/// Keep every span inside the partitioned variant's fixed 32-block file.
const CAP_BYTES: u64 = 32 * BS as u64;

fn layout_strategy() -> impl Strategy<Value = LayoutSpec> {
    prop_oneof![
        (1usize..=4, 1u64..=4).prop_map(|(devices, unit)| LayoutSpec::Striped { devices, unit }),
        (2usize..=3, any::<bool>()).prop_map(|(data_devices, rotated)| LayoutSpec::Parity {
            data_devices,
            rotated
        }),
        (1usize..=2, 1u64..=3).prop_map(|(devices, unit)| LayoutSpec::Shadowed(Box::new(
            LayoutSpec::Striped { devices, unit }
        ))),
        (1usize..=2).prop_map(|devices| LayoutSpec::Partitioned {
            bounds: vec![0, 16, 32],
            devices
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coalesced_spans_match_reference(
        spec in layout_strategy(),
        writes in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1200, any::<u8>()), 1..8),
        reads in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1200), 1..8),
        fail_pick in 0usize..64,
    ) {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 6,
            device_blocks: 512,
            block_size: BS,
        })
        .unwrap();
        let mut fspec = FileSpec::new("f", 64, 4, spec.clone());
        if matches!(spec, LayoutSpec::Partitioned { .. }) {
            fspec = fspec.fixed_capacity(CAP_BYTES / 64);
        }
        let f = v.create_file(fspec).unwrap();
        let serial = f.clone().with_span_parallel(false);

        let mut model: Vec<u8> = Vec::new();
        for &(off, len, seed) in &writes {
            let len = len.min((CAP_BYTES - off) as usize);
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            f.write_span(off, &data).unwrap();
            let end = off as usize + len;
            if end > model.len() {
                model.resize(end, 0);
            }
            model[off as usize..end].copy_from_slice(&data);
        }

        let clamp = |model: &[u8], off: u64, len: usize| {
            let off = (off as usize).min(model.len().saturating_sub(1));
            let len = len.min(model.len() - off);
            (off, len)
        };
        for &(off, len) in &reads {
            let (off, len) = clamp(&model, off, len);
            let mut a = vec![0u8; len];
            f.read_span(off as u64, &mut a).unwrap();
            prop_assert_eq!(&a[..], &model[off..off + len], "parallel read at {}+{}", off, len);
            let mut b = vec![0u8; len];
            serial.read_span(off as u64, &mut b).unwrap();
            prop_assert_eq!(&b[..], &model[off..off + len], "serial read at {}+{}", off, len);
        }

        // One failed device mid-file: redundant layouts must still serve
        // every span through mirror runs or parity reconstruction.
        if matches!(spec, LayoutSpec::Parity { .. } | LayoutSpec::Shadowed(_)) {
            let slot = fail_pick % f.layout().devices();
            v.device(f.meta_snapshot().device_map[slot]).fail();
            for &(off, len) in &reads {
                let (off, len) = clamp(&model, off, len);
                let mut a = vec![0u8; len];
                f.read_span(off as u64, &mut a).unwrap();
                prop_assert_eq!(
                    &a[..],
                    &model[off..off + len],
                    "degraded read at {}+{} with slot {} failed",
                    off,
                    len,
                    slot
                );
            }
        }

        // Degraded shadow *writes*: with one copy of every pair down,
        // writes must land on the surviving mirror — through the parallel
        // dual-submit path and the serial reference alike — and reads
        // must return the fresh bytes.
        if matches!(spec, LayoutSpec::Shadowed(_)) {
            for (k, &(off, len, seed)) in writes.iter().enumerate() {
                let len = len.min((CAP_BYTES - off) as usize);
                let data: Vec<u8> = (0..len)
                    .map(|i| seed.wrapping_add(i as u8).wrapping_add(113))
                    .collect();
                let g = if k % 2 == 0 { &f } else { &serial };
                g.write_span(off, &data).unwrap();
                let end = off as usize + len;
                if end > model.len() {
                    model.resize(end, 0);
                }
                model[off as usize..end].copy_from_slice(&data);
            }
            for &(off, len) in &reads {
                let (off, len) = clamp(&model, off, len);
                let mut a = vec![0u8; len];
                f.read_span(off as u64, &mut a).unwrap();
                prop_assert_eq!(
                    &a[..],
                    &model[off..off + len],
                    "read-after-degraded-write at {}+{}",
                    off,
                    len
                );
            }
        }
    }
}

fn stream_record(i: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| (i as usize * 31 + j * 7 + 1) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `start` records written one by one, then `appended` more: through
    /// `write_record` on one volume and through one `GlobalWriter` on
    /// its twin. Up to 43 KB of stream is up to five windows, so most
    /// cases write behind and read ahead, most from mid-block.
    #[test]
    fn the_stream_matches_the_per_record_reference(
        spec in layout_strategy(),
        record_size in 1usize..=128,
        records_per_block in 1usize..=4,
        start in 0u64..40,
        appended in 0u64..300,
    ) {
        // A partitioned file is of fixed size: stream onto its devices.
        let spec = match spec {
            LayoutSpec::Partitioned { devices, .. } => LayoutSpec::Striped { devices, unit: 1 },
            grows => grows,
        };
        let total = start + appended;
        let file = |streamed: bool| {
            let fspec = FileSpec::new("f", record_size, records_per_block, spec.clone());
            let f = volume().create_file(fspec).unwrap();
            let mut stream = None;
            for i in 0..total {
                if streamed && i >= start {
                    let w = stream.get_or_insert_with(|| GlobalWriter::append(f.clone()));
                    w.write_record(&stream_record(i, record_size)).unwrap();
                } else {
                    f.write_record(i, &stream_record(i, record_size)).unwrap();
                }
            }
            if let Some(w) = stream {
                assert_eq!(w.finish().unwrap(), total);
            }
            assert_eq!(f.len_records(), total);
            f
        };
        let (streamed, reference) = (file(true), file(false));

        let mut reader = GlobalReader::new(streamed.clone());
        let (mut a, mut b) = (vec![0u8; record_size], vec![0u8; record_size]);
        for i in 0..total {
            prop_assert!(reader.read_record(&mut a).unwrap(), "record {} missing", i);
            reference.read_record(i, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "record {} against the reference", i);
            prop_assert_eq!(&a, &stream_record(i, record_size), "record {}", i);
        }
        prop_assert!(!reader.read_record(&mut a).unwrap());

        // The same media, parity rows and mirror copies included. The
        // two allocations may run ahead of the writes by different
        // amounts; what only one of them has is zeros it never wrote.
        let (mut a, mut b) = (vec![0u8; BS], vec![0u8; BS]);
        for slot in 0..streamed.layout().devices() {
            let blocks = streamed.device_blocks(slot).min(reference.device_blocks(slot));
            for dblock in 0..blocks {
                streamed.read_device_rows(&mut [(slot, dblock, &mut a[..])]).unwrap();
                reference.read_device_rows(&mut [(slot, dblock, &mut b[..])]).unwrap();
                prop_assert_eq!(&a, &b, "slot {} block {}", slot, dblock);
            }
        }
    }
}

/// The layouts that stage differently: per-device parity runs and
/// column reconstruction, gathered runs and their mirror copies, plain
/// gathered and scattered runs. All of them sit on devices 0..4.
fn staged_layout() -> impl Strategy<Value = LayoutSpec> {
    let striped = |devices| LayoutSpec::Striped { devices, unit: 1 };
    prop_oneof![
        Just(LayoutSpec::Parity {
            data_devices: 3,
            rotated: true
        }),
        Just(LayoutSpec::Shadowed(Box::new(striped(2)))),
        Just(striped(4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Two files on one volume — one staging list — with bytes that
    /// differ in every position, and a twin volume that is written and
    /// read record by record and never faulted. Spans of up to 25 blocks
    /// interleave between the files; after `fail_after` of them device
    /// `down` fail-stops. From then on a parity file reconstructs, a
    /// shadowed file is served by the mirror (both keep taking writes),
    /// and a plain stripe returns the error for exactly the spans that
    /// touch the device and the right bytes for the rest; its first read
    /// after `heal` is the whole file, exact.
    #[test]
    fn reused_staging_never_shows_in_another_span(
        first in staged_layout(),
        second in staged_layout(),
        ops in proptest::collection::vec(
            (0usize..2, any::<bool>(), 0u64..192, 1u64..=100, any::<u8>()),
            12..40,
        ),
        fail_after in 0usize..40,
        down in 0usize..4,
    ) {
        const RS: usize = 64;
        const RECORDS: u64 = 192;
        let (v, twin) = (volume(), volume());
        let create = |v: &Volume| {
            [("a", &first), ("b", &second)].map(|(name, spec)| {
                let fspec = FileSpec::new(name, RS, 4, spec.clone());
                v.create_file(fspec.initial_records(RECORDS)).unwrap()
            })
        };
        let (files, reference) = (create(&v), create(&twin));
        // File `a` never holds a byte with the high bit set, file `b`
        // never one without.
        let pattern = |which: usize, seed: u8, i: usize| {
            (seed.wrapping_add((i / 3) as u8) & 0x7f) | (which as u8) << 7
        };
        let expected = |which: usize, at: u64, n: u64| {
            let mut bytes = vec![0u8; n as usize * RS];
            for (r, rec) in (at..).zip(bytes.chunks_mut(RS)) {
                reference[which].read_record(r, rec).unwrap();
            }
            bytes
        };
        for (which, f) in files.iter().enumerate() {
            let fill: Vec<u8> = (0..RECORDS as usize * RS).map(|i| pattern(which, 17, i)).collect();
            f.write_span(0, &fill).unwrap();
            for (r, rec) in (0..).zip(fill.chunks(RS)) {
                reference[which].write_record(r, rec).unwrap();
            }
        }
        let plain = |which: usize| matches!([&first, &second][which], LayoutSpec::Striped { .. });
        let mut failed = false;
        for (k, &(which, write, at, n, seed)) in ops.iter().enumerate() {
            if k == fail_after {
                v.device(down).fail();
                failed = true;
            }
            let n = n.min(RECORDS - at);
            let (f, off) = (&files[which], at * RS as u64);
            // What the failed device takes from a plain stripe it cannot
            // give back: no writes to it while one of its devices is down.
            if write && !(failed && plain(which)) {
                let data: Vec<u8> = (0..n as usize * RS).map(|i| pattern(which, seed, i)).collect();
                f.write_span(off, &data).unwrap();
                for (r, rec) in (at..).zip(data.chunks(RS)) {
                    reference[which].write_record(r, rec).unwrap();
                }
                continue;
            }
            let mut got = vec![0u8; n as usize * RS];
            let res = f.read_span(off, &mut got);
            let blocks = off / BS as u64..(off + got.len() as u64).div_ceil(BS as u64);
            let lost = failed && plain(which) && blocks.clone().any(|l| f.layout().map(l).device == down);
            if lost {
                prop_assert!(
                    matches!(res, Err(pario_fs::FsError::Disk(DiskError::DeviceFailed { .. }))),
                    "op {}: a plain stripe over failed device {} returned {:?}", k, down, res
                );
            } else {
                prop_assert!(res.is_ok(), "op {}: {:?}", k, res);
                prop_assert_eq!(got, expected(which, at, n), "op {} on file {} at record {}+{}", k, which, at, n);
            }
        }
        // Whole files: degraded where redundancy carries them, and a
        // plain stripe as soon as its device answers again.
        for (which, f) in files.iter().enumerate() {
            if plain(which) {
                v.device(down).heal();
            }
            let mut got = vec![0u8; RECORDS as usize * RS];
            f.read_span(0, &mut got).unwrap();
            prop_assert_eq!(got, expected(which, 0, RECORDS), "file {} whole", which);
            v.device(down).fail();
        }
    }
}

fn volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 6,
        device_blocks: 512,
        block_size: BS,
    })
    .unwrap()
}

/// A 32-block file, allocated in one piece so every device holds a
/// single extent.
fn whole_file(v: &Volume, spec: &LayoutSpec) -> RawFile {
    let mut fspec = FileSpec::new("f", 64, 4, spec.clone());
    if matches!(spec, LayoutSpec::Partitioned { .. }) {
        fspec = fspec.fixed_capacity(CAP_BYTES / 64);
    }
    let f = v.create_file(fspec).unwrap();
    f.write_span(CAP_BYTES - BS as u64, &[0u8; BS]).unwrap();
    f
}

/// Executor requests and queue wait that `op` cost on volume `v`.
fn executor_cost(v: &Volume, op: impl FnOnce()) -> (u64, u64) {
    let before = v.executor_stats();
    op();
    let after = v.executor_stats();
    (
        after.serviced - before.serviced,
        after.queue_wait_nanos - before.queue_wait_nanos,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_transfer_spans_match_the_submit_path(
        spec in layout_strategy(),
        writes in proptest::collection::vec((0u64..32, 1u64..=4, any::<u8>()), 1..8),
        reads in proptest::collection::vec((0u64..32, 1u64..=4), 1..8),
    ) {
        // The same whole-block spans against a plain volume, where a
        // span that is one run takes the executor's blocking call, and a
        // cached one, where it takes the tier's.
        let direct_vol = volume();
        let routed_vol = volume();
        routed_vol.enable_cache(VolumeCacheConfig::write_back(16)).unwrap();
        let direct = whole_file(&direct_vol, &spec);
        let routed = whole_file(&routed_vol, &spec);
        let unprotected = !matches!(spec, LayoutSpec::Parity { .. } | LayoutSpec::Shadowed(_));
        let one_run = |first: u64, n: u64| {
            let transfers = plan(direct.layout(), &[(first, n)], |_, _| false);
            transfers.iter().flatten().count() == 1
        };

        let mut model = vec![0u8; CAP_BYTES as usize];
        for &(first, n, seed) in &writes {
            let n = n.min(32 - first);
            let (at, len) = ((first as usize) * BS, (n as usize) * BS);
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            let cost = executor_cost(&direct_vol, || direct.write_span(at as u64, &data).unwrap());
            if unprotected && one_run(first, n) {
                prop_assert_eq!(cost, (1, 0), "write of {} blocks at {}", n, first);
            }
            routed.write_span(at as u64, &data).unwrap();
            model[at..at + len].copy_from_slice(&data);
        }
        for &(first, n) in &reads {
            let n = n.min(32 - first);
            let (at, len) = ((first as usize) * BS, (n as usize) * BS);
            let mut a = vec![0u8; len];
            let cost = executor_cost(&direct_vol, || direct.read_span(at as u64, &mut a).unwrap());
            if one_run(first, n) {
                prop_assert_eq!(cost, (1, 0), "read of {} blocks at {}", n, first);
            }
            let mut b = vec![0u8; len];
            routed.read_span(at as u64, &mut b).unwrap();
            prop_assert_eq!(&a[..], &model[at..at + len], "direct read at block {}+{}", first, n);
            prop_assert_eq!(&b[..], &model[at..at + len], "routed read at block {}+{}", first, n);
        }
    }
}

/// Per-device executor counters, for who-served-what assertions.
fn node(v: &Volume, d: usize) -> IoNodeStats {
    v.io_device(d).ionode_stats().unwrap()
}

#[test]
fn unhealthy_slots_and_cached_volumes_route_as_before() {
    let spec = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 1,
        unit: 4,
    }));
    let v = volume();
    let f = whole_file(&v, &spec);
    let data: Vec<u8> = (0..4 * BS).map(|i| i as u8).collect();
    f.write_span(0, &data).unwrap();
    let map = f.meta_snapshot().device_map;
    let (primary, mirror) = (map[0], map[1]);
    let served = |v: &Volume| (node(v, primary).serviced, node(v, mirror).serviced);
    let read_one = |f: &RawFile| {
        let mut got = vec![0u8; BS];
        f.read_span(BS as u64, &mut got).unwrap();
        assert_eq!(got, data[BS..2 * BS]);
    };

    // Healthy: one inline transfer on the primary, the mirror untouched.
    let (p0, m0) = served(&v);
    let (reqs, wait) = executor_cost(&v, || read_one(&f));
    assert_eq!((reqs, wait), (1, 0));
    assert_eq!(served(&v), (p0 + 1, m0));

    // Suspect: hedged — both copies are submitted.
    let glitch = DiskError::Transient { device: "d".into() };
    for _ in 0..v.health().policy().suspect_after {
        v.health().note_error(primary, &glitch, || true);
    }
    assert_eq!(v.device_health(primary), pario_fs::HealthState::Suspect);
    let (p1, m1) = served(&v);
    read_one(&f);
    // The race returns at the first success; the loser is abandoned and
    // lands in its own time.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while served(&v) != (p1 + 1, m1 + 1) && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(served(&v), (p1 + 1, m1 + 1));

    // Failed, then Rebuilding: the primary is skipped, the mirror serves.
    v.health().mark_failed(primary);
    let (p2, m2) = served(&v);
    read_one(&f);
    assert_eq!(served(&v), (p2, m2 + 1));
    v.health().begin_rebuild(primary, || ());
    read_one(&f);
    assert_eq!(served(&v), (p2, m2 + 2));

    // Cached: the tier is consulted, and the second read is a hit that
    // costs the executor nothing.
    let cv = volume();
    cv.enable_cache(VolumeCacheConfig::write_back(16)).unwrap();
    let cf = whole_file(&cv, &spec);
    cf.write_span(0, &data).unwrap();
    read_one(&cf);
    let hits = cv.cache_stats().unwrap().base.hits;
    let (reqs, _) = executor_cost(&cv, || read_one(&cf));
    assert_eq!(reqs, 0);
    assert_eq!(cv.cache_stats().unwrap().base.hits, hits + 1);
}

/// A parity read-modify-write is four transfers on two devices, and it
/// submits every one of them. On devices slower than a hand-off to their
/// workers, every request goes through the queue (it waits for its
/// worker), so the two reads overlap, as do the two writes. (On
/// undelayed devices the I/O nodes run the same submissions on the
/// caller.)
#[test]
fn parity_read_modify_write_queues_on_devices_slower_than_a_hand_off() {
    let spec = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let delay = std::time::Duration::from_micros(100);
    let devices = (0..6)
        .map(|_| Arc::new(MemDisk::new(512, BS).with_delay(delay)) as pario_disk::DeviceRef)
        .collect();
    let v = Volume::new(devices).unwrap();
    let f = whole_file(&v, &spec);
    let data: Vec<u8> = (0..BS).map(|i| i as u8).collect();
    let map = f.meta_snapshot().device_map;
    let waits = |v: &Volume| -> Vec<u64> {
        map.iter()
            .map(|&d| node(v, d).queue_wait_nanos)
            .collect::<Vec<_>>()
    };

    let before = waits(&v);
    let (reqs, _) = executor_cost(&v, || f.write_span(5 * BS as u64, &data).unwrap());
    assert_eq!(reqs, 4, "old data, old parity, data, parity");
    let queued = waits(&v)
        .iter()
        .zip(&before)
        .filter(|(after, before)| after > before)
        .count();
    assert_eq!(queued, 2, "both devices served queued requests only");

    // The block reads back, directly and through the stripe's parity.
    let mut got = vec![0u8; BS];
    f.read_span(5 * BS as u64, &mut got).unwrap();
    assert_eq!(got, data);
    v.health().mark_failed(map[f.layout().map(5).device]);
    got.fill(0);
    f.read_span(5 * BS as u64, &mut got).unwrap();
    assert_eq!(got, data, "reconstructed from the updated parity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parity spans with an unaligned head and tail around whole blocks:
    /// `write_span`'s head / whole-block / tail split leaves every device
    /// block — data and parity alike — byte-identical to the serial
    /// reference's, the stream reads back as written, and the parity is
    /// good enough to reconstruct it with any one device failed.
    #[test]
    fn parity_spans_with_ragged_ends_match_the_serial_reference(
        data_devices in 2usize..=3,
        rotated in any::<bool>(),
        writes in proptest::collection::vec(
            (0u64..24, 1usize..BS, 1usize..6, 1usize..BS, any::<u8>()),
            1..6,
        ),
    ) {
        let spec = LayoutSpec::Parity { data_devices, rotated };
        let (v, rv) = (volume(), volume());
        let f = whole_file(&v, &spec);
        let reference = whole_file(&rv, &spec).with_span_parallel(false);
        let mut model = vec![0u8; CAP_BYTES as usize];
        for &(block, head, whole, tail, seed) in &writes {
            let off = block as usize * BS + head;
            let len = (BS - head) + whole * BS + tail;
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
            f.write_span(off as u64, &data).unwrap();
            reference.write_span(off as u64, &data).unwrap();
            model[off..off + len].copy_from_slice(&data);
        }
        let (mut a, mut b) = (vec![0u8; BS], vec![0u8; BS]);
        for slot in 0..f.layout().devices() {
            prop_assert_eq!(f.device_blocks(slot), reference.device_blocks(slot));
            for dblock in 0..f.device_blocks(slot) {
                f.read_device_rows(&mut [(slot, dblock, &mut a[..])]).unwrap();
                reference.read_device_rows(&mut [(slot, dblock, &mut b[..])]).unwrap();
                prop_assert_eq!(&a, &b, "slot {} device block {}", slot, dblock);
            }
        }
        let mut got = vec![0u8; model.len()];
        f.read_span(0, &mut got).unwrap();
        prop_assert_eq!(&got, &model);
        let map = f.meta_snapshot().device_map;
        for &d in &map {
            v.device(d).fail();
            got.fill(0);
            f.read_span(0, &mut got).unwrap();
            prop_assert_eq!(&got, &model, "device {} failed", d);
            v.device(d).heal();
        }
    }
}

/// A parity file of 47 blocks — a partial last stripe at every width
/// used below — allocated in one piece.
fn ragged_parity_file(v: &Volume, spec: &LayoutSpec) -> RawFile {
    let f = v
        .create_file(FileSpec::new("f", 64, 4, spec.clone()))
        .unwrap();
    f.write_span(46 * BS as u64, &[0u8; BS]).unwrap();
    assert_eq!(f.nblocks(), 47);
    f
}

/// The stripe plan against a second reference, built from one-block
/// `write_span` calls (one read-modify-write or reconstruct-write per
/// block): spans of 1..=40 blocks starting at every stripe phase, and
/// ending in the file's partial last stripe, leave every device block —
/// data and parity — byte-identical to it, for every stripe width and
/// both parity placements.
#[test]
fn parity_spans_match_the_per_block_reference_at_every_stripe_phase() {
    for data_devices in 2usize..=4 {
        for rotated in [false, true] {
            let spec = LayoutSpec::Parity {
                data_devices,
                rotated,
            };
            let (v, rv) = (volume(), volume());
            let f = ragged_parity_file(&v, &spec);
            let reference = ragged_parity_file(&rv, &spec);
            let (mut a, mut b) = (vec![0u8; BS], vec![0u8; BS]);
            let mut tag = 0u8;
            for len in 1u64..=40 {
                let phases = (0..data_devices as u64).map(|phase| data_devices as u64 + phase);
                for first in phases.chain([47 - len]) {
                    tag = tag.wrapping_add(1);
                    let data: Vec<u8> = (0..len as usize * BS)
                        .map(|i| tag.wrapping_mul(31).wrapping_add((i / 7) as u8))
                        .collect();
                    f.write_span(first * BS as u64, &data).unwrap();
                    for (l, block) in (first..).zip(data.chunks(BS)) {
                        reference.write_span(l * BS as u64, block).unwrap();
                    }
                    for slot in 0..f.layout().devices() {
                        assert_eq!(f.device_blocks(slot), reference.device_blocks(slot));
                        for dblock in 0..f.device_blocks(slot) {
                            f.read_device_rows(&mut [(slot, dblock, &mut a[..])])
                                .unwrap();
                            reference
                                .read_device_rows(&mut [(slot, dblock, &mut b[..])])
                                .unwrap();
                            assert_eq!(
                                a, b,
                                "w={data_devices} rotated={rotated} span {first}+{len}: \
                                 slot {slot} device block {dblock}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Device read and write requests that `op` cost on volume `v`.
fn device_requests(v: &Volume, op: impl FnOnce()) -> (u64, u64) {
    let count = |v: &Volume| {
        (0..6).fold((0, 0), |(r, w), d| {
            let c = v.device(d).counters();
            (r + c.reads, w + c.writes)
        })
    };
    let (r0, w0) = count(v);
    op();
    let (r1, w1) = count(v);
    (r1 - r0, w1 - w0)
}

/// What a parity span costs in requests: whole stripes leave as one
/// write per device with no read at all, a partial stripe reads
/// whichever of {old copies + old parity, untouched peers} is fewer, and
/// a span read crosses the rotated parity blocks instead of stopping at
/// each.
#[test]
fn parity_spans_move_whole_stripes_in_one_request_per_device() {
    let spec = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let v = volume();
    let f = whole_file(&v, &spec);
    let devices = f.layout().devices() as u64;
    let data: Vec<u8> = (0..30 * BS).map(|i| (i % 251) as u8).collect();

    // Stripe-aligned, k whole stripes: devices() writes, 0 reads.
    for stripes in [1usize, 2, 7, 9] {
        let span = &data[..stripes * 3 * BS];
        let mut reqs = (0, 0);
        let (executor, _) = executor_cost(&v, || {
            reqs = device_requests(&v, || f.write_span(3 * BS as u64, span).unwrap());
        });
        assert_eq!(reqs, (0, devices), "{stripes} whole stripes");
        assert_eq!(executor, devices, "{stripes} whole stripes");
    }

    // Two blocks of a three-block stripe: reconstruct-write reads the
    // one untouched peer (read-modify-write would read three blocks).
    let reqs = device_requests(&v, || f.write_span(6 * BS as u64, &data[..2 * BS]).unwrap());
    assert_eq!(reqs, (1, 3), "2-of-3 partial stripe");

    // Ragged at both ends: the two partial stripes read, and the writes
    // still leave as one run per device.
    let reqs = device_requests(&v, || f.write_span(4 * BS as u64, &data[..9 * BS]).unwrap());
    assert_eq!(
        reqs,
        (1 + 2, devices),
        "blocks 4..13: 2-of-3, 2 whole, 1-of-3"
    );

    // A span read covering whole stripes of the rotated file is at most
    // one request per device, and returns what the writes left.
    let mut model = vec![0u8; CAP_BYTES as usize];
    f.write_span(0, &model).unwrap();
    model[BS..31 * BS].copy_from_slice(&data);
    f.write_span(BS as u64, &data).unwrap();
    let mut got = vec![0u8; 30 * BS];
    let (executor, _) = executor_cost(&v, || f.read_span(0, &mut got).unwrap());
    assert!(
        executor <= devices,
        "{executor} requests for a 30-block read"
    );
    assert_eq!(got, model[..30 * BS]);
    let serial = f.clone().with_span_parallel(false);
    got.fill(0);
    serial.read_span(BS as u64, &mut got).unwrap();
    assert_eq!(got, data);
}

// ----------------------------------------------------------------------
// The routing table, cell by cell: one routing decision serves every
// read, so a sub-block record, one whole block and a ragged span of
// three stripes must agree — on the bytes or the typed error, and on
// which copies they ask — in every health state of the home slot and of
// its partner (the mirror of a shadowed pair, a stripe peer of a parity
// file).
// ----------------------------------------------------------------------

/// What the board (and the media) say about one device.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    Healthy,
    Suspect,
    /// Fail-stopped, and the board knows.
    Failed,
    /// Marked Failed, but the media answers: healed behind the board's
    /// back.
    Healed,
    /// Writable but stale: every block the file owns there is garbage.
    Rebuilding,
}

fn put(v: &Volume, f: &RawFile, slot: usize, state: Slot) {
    let meta = f.meta_snapshot();
    let dev = meta.device_map[slot];
    match state {
        Slot::Healthy => {}
        Slot::Suspect => {
            let glitch = DiskError::Transient { device: "d".into() };
            for _ in 0..v.health().policy().suspect_after {
                v.health().note_error(dev, &glitch, || true);
            }
        }
        Slot::Failed => {
            v.device(dev).fail();
            v.health().mark_failed(dev);
        }
        Slot::Healed => v.health().mark_failed(dev),
        Slot::Rebuilding => {
            for dblock in 0..f.device_blocks(slot) {
                let abs = pario_fs::resolve(&meta.extents[slot], dblock);
                v.device(dev).write_block(abs, &[0xEE; BS]).unwrap();
            }
            v.health().mark_failed(dev);
            v.health().begin_rebuild(dev, || ());
        }
    }
    let on_board = match state {
        Slot::Healthy => pario_fs::HealthState::Healthy,
        Slot::Suspect => pario_fs::HealthState::Suspect,
        Slot::Failed | Slot::Healed => pario_fs::HealthState::Failed,
        Slot::Rebuilding => pario_fs::HealthState::Rebuilding,
    };
    assert_eq!(v.device_health(dev), on_board);
}

/// One cell's answer: whether the read succeeds, and whether the home
/// slot and (shadowed files) its mirror are asked.
struct Cell {
    ok: bool,
    home: bool,
    mirror: Option<bool>,
}

/// DESIGN §9's table, as data. `partner_down`: the mirror, or a data
/// peer of the same stripe, is Failed (media and board both).
fn cell(spec: &LayoutSpec, home: Slot, partner_down: bool) -> Cell {
    use Slot::*;
    let (ok, asked, mirror) = match (spec, partner_down) {
        (LayoutSpec::Shadowed(_), false) => match home {
            Healthy => (true, true, Some(false)),
            Suspect => (true, true, Some(true)),
            Failed | Healed | Rebuilding => (true, false, Some(true)),
        },
        (LayoutSpec::Shadowed(_), true) => match home {
            Healthy | Suspect | Healed => (true, true, Some(false)),
            Failed => (false, true, Some(true)),
            Rebuilding => (false, false, Some(true)),
        },
        (LayoutSpec::Parity { .. }, false) => (true, home != Rebuilding, None),
        // Unprotected, or a parity stripe with a second device gone.
        _ => match home {
            Healthy | Suspect | Healed => (true, true, None),
            Failed => (false, true, None),
            Rebuilding => (false, false, None),
        },
    };
    Cell {
        ok,
        home: asked,
        mirror,
    }
}

#[test]
fn every_read_size_routes_by_the_same_table() {
    let striped = LayoutSpec::Striped {
        devices: 3,
        unit: 1,
    };
    let shadowed = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 1,
    }));
    let parity = |rotated| LayoutSpec::Parity {
        data_devices: 3,
        rotated,
    };
    let states = [
        Slot::Healthy,
        Slot::Suspect,
        Slot::Failed,
        Slot::Healed,
        Slot::Rebuilding,
    ];
    // Block 7 is read three ways: record 29 (64 bytes of it), the block,
    // and blocks 4..=13 from byte 17 of the first to byte 117 of the last.
    let block = 7u64;
    let reads: [(&str, u64, usize); 3] = [
        ("record", block * BS as u64 + 64, 64),
        ("block", block * BS as u64, BS),
        ("span", 4 * BS as u64 + 17, 9 * BS + 100),
    ];
    for spec in [striped, shadowed, parity(true), parity(false)] {
        let redundant = !matches!(spec, LayoutSpec::Striped { .. });
        for home in states {
            for partner_down in [false, true] {
                if partner_down && !redundant {
                    continue;
                }
                let v = volume();
                let f = whole_file(&v, &spec);
                let model: Vec<u8> = (0..CAP_BYTES as usize).map(|i| (i / 3) as u8).collect();
                f.write_span(0, &model).unwrap();
                f.set_len_records(CAP_BYTES / 64).unwrap();
                let slot = f.layout().map(block).device;
                let partner = match &spec {
                    LayoutSpec::Shadowed(inner) => slot + inner.devices_required(),
                    _ => f.layout().map(block - 1).device,
                };
                assert_ne!(slot, partner);
                put(&v, &f, slot, home);
                if partner_down {
                    put(&v, &f, partner, Slot::Failed);
                }
                let want = cell(&spec, home, partner_down);
                let map = f.meta_snapshot().device_map;
                let ctx = format!("{spec:?} home {home:?} partner_down {partner_down}");

                for (what, at, len) in reads {
                    let before: Vec<u64> = (0..6).map(|d| node(&v, d).serviced).collect();
                    let asked = |slot: usize| node(&v, map[slot]).serviced - before[map[slot]];
                    let mut got = vec![0u8; len];
                    let res = match what {
                        "record" => f.read_record(at / 64, &mut got),
                        _ => f.read_span(at, &mut got),
                    };
                    match res {
                        Ok(()) => {
                            assert!(want.ok, "{ctx}: {what} read succeeded");
                            let at = at as usize;
                            assert_eq!(got, model[at..at + len], "{ctx}: {what} bytes");
                        }
                        Err(pario_fs::FsError::Disk(DiskError::DeviceFailed { .. })) => {
                            assert!(!want.ok, "{ctx}: {what} read failed");
                        }
                        Err(e) => panic!("{ctx}: {what} read: unexpected error {e}"),
                    }
                    let expected = [(slot, Some(want.home)), (partner, want.mirror)];
                    for (s, asked_want) in expected {
                        let Some(asked_want) = asked_want else {
                            continue;
                        };
                        // The loser of a hedge may still be in its queue.
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(2);
                        while asked_want && asked(s) == 0 && std::time::Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        assert_eq!(
                            asked(s) > 0,
                            asked_want,
                            "{ctx}: {what} read, slot {s} asked"
                        );
                    }
                }
            }
        }
    }
}

/// What a degraded parity span read costs: with the board routing around
/// a device, one request per device (the Failed slot's probe included)
/// and nothing more; with a device failed behind the board's back, the
/// plain wave and then one run per survivor.
#[test]
fn degraded_parity_spans_cost_one_request_per_surviving_device() {
    for rotated in [true, false] {
        let spec = LayoutSpec::Parity {
            data_devices: 3,
            rotated,
        };
        let model: Vec<u8> = (0..48 * BS).map(|i| (i / 7) as u8).collect();
        // Sixteen stripes, from the second one on.
        let (at, len) = (3 * BS, 45 * BS);
        for state in [Slot::Healed, Slot::Rebuilding] {
            for slot in 0..4 {
                let v = volume();
                let f = v
                    .create_file(FileSpec::new("f", 64, 4, spec.clone()))
                    .unwrap();
                f.write_span(0, &model).unwrap();
                put(&v, &f, slot, state);
                let mut got = vec![0u8; len];
                let (reads, _) = device_requests(&v, || f.read_span(at as u64, &mut got).unwrap());
                assert_eq!(got, model[at..at + len], "{spec:?} slot {slot} {state:?}");
                let devices = f.layout().devices() as u64;
                assert!(
                    reads <= devices,
                    "{spec:?} slot {slot} {state:?}: {reads} requests"
                );
            }
        }
        for slot in 0..4 {
            let v = volume();
            let f = v
                .create_file(FileSpec::new("f", 64, 4, spec.clone()))
                .unwrap();
            f.write_span(0, &model).unwrap();
            let dev = f.meta_snapshot().device_map[slot];
            v.device(dev).fail();
            let mut got = vec![0u8; len];
            let mut requests = 0;
            let (executor, _) = executor_cost(&v, || {
                requests = device_requests(&v, || f.read_span(at as u64, &mut got).unwrap()).0;
            });
            assert_eq!(got, model[at..at + len], "{spec:?} slot {slot} failed");
            let devices = f.layout().devices() as u64;
            assert!(
                requests <= 2 * devices && executor <= 2 * devices,
                "{spec:?} slot {slot} failed behind the board: {requests} device requests, \
                 {executor} executor requests"
            );
        }
    }
}

/// A file whose last stripe is partial: the devices that hold nothing of
/// it are a row short, and the reconstruction of its last block reads
/// them only as far as they go.
#[test]
fn a_partial_last_stripe_reconstructs_its_last_block() {
    for data_devices in 2usize..=4 {
        for rotated in [false, true] {
            let spec = LayoutSpec::Parity {
                data_devices,
                rotated,
            };
            let v = volume();
            let f = ragged_parity_file(&v, &spec);
            let model: Vec<u8> = (0..47 * BS).map(|i| (i / 5) as u8).collect();
            f.write_span(0, &model).unwrap();
            let slot = f.layout().map(46).device;
            for state in [Slot::Failed, Slot::Rebuilding] {
                if state == Slot::Rebuilding {
                    v.device(f.meta_snapshot().device_map[slot]).heal();
                }
                put(&v, &f, slot, state);
                let mut last = vec![0u8; BS];
                f.read_span(46 * BS as u64, &mut last).unwrap();
                assert_eq!(
                    last,
                    model[46 * BS..],
                    "w={data_devices} rotated={rotated} {state:?}"
                );
                let mut tail = vec![0u8; 9 * BS + 30];
                let at = 47 * BS - tail.len();
                f.read_span(at as u64, &mut tail).unwrap();
                assert_eq!(
                    tail,
                    model[at..],
                    "w={data_devices} rotated={rotated} {state:?} span"
                );
            }
        }
    }
}

/// A test device that runs a hook ahead of every request: `(is_write,
/// first block, blocks)`. The hook's error fails the request.
struct Hooked {
    inner: pario_disk::DeviceRef,
    hook: Box<dyn Fn(bool, u64, u64) -> pario_disk::Result<()> + Send + Sync>,
}

impl pario_disk::BlockDevice for Hooked {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        (self.hook)(false, block, (buf.len() / BS) as u64)?;
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        (self.hook)(true, block, (data.len() / BS) as u64)?;
        self.inner.write_blocks_at(block, data)
    }
    fn counters(&self) -> pario_disk::IoCounters {
        self.inner.counters()
    }
    fn fail(&self) {
        self.inner.fail()
    }
    fn heal(&self) {
        self.inner.heal()
    }
    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }
}

/// A degraded parity span read does all its device I/O in ONE hold of
/// the span's rows: with every device gated shut, the read's requests —
/// at most one per device — all park together, and opening the gate lets
/// the read finish without another request. That the rows are held over
/// the wave is the model checker's to show: `model_rmw.rs`'s
/// `column_reconstruction_sees_every_stripe_before_or_after_each_write`
/// finds a torn stripe in a reconstruction that reads without them.
#[test]
fn a_degraded_parity_span_holds_its_rows_once() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    for state in [Slot::Healed, Slot::Rebuilding] {
        let shut = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicU64::new(0));
        // Slower than a hand-off, so the I/O nodes queue every request
        // and the gate parks their workers rather than the reader.
        let slow = || Arc::new(MemDisk::new(512, BS).with_delay(Duration::from_micros(100)));
        let devices: Vec<pario_disk::DeviceRef> = (0..4)
            .map(|_| slow() as pario_disk::DeviceRef)
            .map(|inner| {
                let (shut, reads) = (Arc::clone(&shut), Arc::clone(&reads));
                let hook = move |write: bool, _, _| {
                    if !write && shut.load(Ordering::SeqCst) {
                        reads.fetch_add(1, Ordering::SeqCst);
                        while shut.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    Ok(())
                };
                Arc::new(Hooked {
                    inner,
                    hook: Box::new(hook),
                }) as pario_disk::DeviceRef
            })
            .collect();
        let v = Volume::new(devices).unwrap();
        let spec = LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        };
        let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
        let model: Vec<u8> = (0..48 * BS).map(|i| (i / 11) as u8).collect();
        f.write_span(0, &model).unwrap();
        put(&v, &f, 1, state);
        // The probe of a Failed slot is a request too; stale media gets none.
        let wave = if state == Slot::Healed { 4 } else { 3 };

        shut.store(true, Ordering::SeqCst);
        let reader = {
            let f = f.clone();
            std::thread::spawn(move || {
                let mut got = vec![0u8; 48 * BS];
                f.read_span(0, &mut got).unwrap();
                got
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while reads.load(Ordering::SeqCst) < wave {
            assert!(
                std::time::Instant::now() < deadline,
                "{state:?}: wave never parked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Every request of the read is parked.
        assert_eq!(
            reads.load(Ordering::SeqCst),
            wave,
            "{state:?}: one run per device"
        );
        shut.store(false, Ordering::SeqCst);
        assert_eq!(reader.join().unwrap(), model, "{state:?}");
        assert_eq!(
            reads.load(Ordering::SeqCst),
            wave,
            "{state:?}: a request arrived after the wave"
        );
    }
}

/// A half-dead mirror pair — the primary cannot transfer block 2, the
/// mirror cannot transfer block 5 — fails every multi-block run on both
/// copies, and still reads and writes every block: the run is re-planned
/// block by block, and each block has one live copy.
#[test]
fn a_half_dead_mirror_pair_still_reads_and_writes_every_block() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let bad = [
        Arc::new(AtomicU64::new(u64::MAX)),
        Arc::new(AtomicU64::new(u64::MAX)),
    ];
    let devices: Vec<pario_disk::DeviceRef> = pario_disk::mem_array(2, 512, BS)
        .into_iter()
        .zip(&bad)
        .map(|(inner, bad)| {
            let bad = Arc::clone(bad);
            let hook = move |_, first: u64, n: u64| {
                let block = bad.load(Ordering::SeqCst);
                if (first..first + n).contains(&block) {
                    return Err(DiskError::Corruption { block });
                }
                Ok(())
            };
            Arc::new(Hooked {
                inner,
                hook: Box::new(hook),
            }) as pario_disk::DeviceRef
        })
        .collect();
    let v = Volume::new(devices).unwrap();
    let spec = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 1,
        unit: 4,
    }));
    let f = v.create_file(FileSpec::new("f", 64, 4, spec)).unwrap();
    let data: Vec<u8> = (0..8 * BS).map(|i| (i / 3) as u8).collect();
    f.write_span(0, &data).unwrap();
    let meta = f.meta_snapshot();
    for (slot, dblock) in [(0usize, 2u64), (1, 5)] {
        let abs = pario_fs::resolve(&meta.extents[slot], dblock);
        bad[meta.device_map[slot]].store(abs, Ordering::SeqCst);
    }

    let mut got = vec![0u8; data.len()];
    f.read_span(0, &mut got).unwrap();
    assert_eq!(got, data, "span read");
    for l in 0..8u64 {
        let mut block = vec![0u8; BS];
        f.read_span(l * BS as u64, &mut block).unwrap();
        assert_eq!(block, data[l as usize * BS..][..BS], "block {l}");
    }

    let fresh: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
    f.write_span(0, &fresh).unwrap();
    got.fill(0);
    f.read_span(0, &mut got).unwrap();
    assert_eq!(
        got, fresh,
        "read-back of a span written to the half-dead pair"
    );
    for d in &bad {
        d.store(u64::MAX, Ordering::SeqCst);
    }
    // Each copy holds every block it could take.
    let mut block = vec![0u8; BS];
    for (slot, stale) in [(0usize, 2u64), (1, 5)] {
        for dblock in 0..8u64 {
            f.read_device_rows(&mut [(slot, dblock, &mut block[..])])
                .unwrap();
            let want = if dblock == stale { &data } else { &fresh };
            assert_eq!(
                block,
                want[dblock as usize * BS..][..BS],
                "slot {slot} block {dblock}"
            );
        }
    }
}
