//! Property tests: the volume cache tier is semantically invisible.
//! Concurrent multi-threaded writers and readers through a cached
//! volume must produce bytes — both through span reads and on the raw
//! media after a flush — identical to the same workload on an uncached
//! volume, under every policy (write-through, write-back, and
//! write-back on two frames, evicting on nearly every write). A separate torn-write schedule pins the fault
//! invariant: after a failed write-through, the cache agrees with the
//! media, torn prefix included.

use proptest::prelude::*;

use pario_disk::{mem_array, FaultDevice, FaultPlan};
use pario_fs::{resolve, FileSpec, Volume, VolumeCacheConfig, VolumeConfig};
use pario_layout::LayoutSpec;

const BS: usize = 256;
const THREADS: u64 = 4;
/// Each writer thread owns a disjoint region so the concurrent outcome
/// is deterministic and comparable against the sequential reference.
const REGION: u64 = 8 * BS as u64;
const CAP_BYTES: u64 = THREADS * REGION;

fn new_volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: BS,
    })
    .unwrap()
}

fn cache_config(pick: usize, frames: usize) -> VolumeCacheConfig {
    match pick % 3 {
        0 => VolumeCacheConfig::write_through(frames),
        1 => VolumeCacheConfig::write_back(frames),
        // Two frames: eviction write-back runs under the concurrent writers.
        _ => VolumeCacheConfig::write_back(2),
    }
}

/// The file's physical blocks as `(device, abs_block)` in logical order.
fn phys_blocks(f: &pario_fs::RawFile) -> Vec<(usize, u64)> {
    let layout = f.layout();
    let meta = f.meta_snapshot();
    let nblocks = CAP_BYTES / BS as u64;
    (0..nblocks)
        .map(|l| {
            let p = layout.map(l);
            let dev = meta.device_map[p.device];
            (dev, resolve(&meta.extents[p.device], p.block))
        })
        .collect()
}

/// Every device block the file owns — parity rows included — as
/// `(device, abs_block)`, slot by slot.
fn owned_blocks(f: &pario_fs::RawFile) -> Vec<(usize, u64)> {
    let meta = f.meta_snapshot();
    (0..f.layout().devices())
        .flat_map(|slot| {
            let (dev, extents) = (meta.device_map[slot], meta.extents[slot].clone());
            (0..f.device_blocks(slot)).map(move |b| (dev, resolve(&extents, b)))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent writers in disjoint regions plus concurrent readers,
    /// on a cached and an uncached volume: span reads agree with the
    /// sequential reference on both, and after a flush the cached
    /// volume's media is block-for-block identical to the uncached one.
    /// On the parity layouts the writers' regions share stripes, their
    /// spans are ragged against them, and the comparison covers the
    /// parity blocks.
    #[test]
    fn cached_volume_matches_uncached(
        layout in prop_oneof![
            Just(LayoutSpec::Striped { devices: 4, unit: 2 }),
            any::<bool>().prop_map(|rotated| LayoutSpec::Parity { data_devices: 3, rotated }),
        ],
        pick in 0usize..3,
        frames in 2usize..24,
        per_thread in proptest::collection::vec(
            proptest::collection::vec((0u64..REGION, 1usize..900, any::<u8>()), 1..6),
            THREADS as usize..=THREADS as usize,
        ),
        reads in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1200), 1..8),
    ) {
        let spec = || {
            FileSpec::new("f", 64, 4, layout.clone()).initial_records(CAP_BYTES / 64)
        };
        let cached_vol = new_volume().enable_cache(cache_config(pick, frames)).unwrap();
        let cached = cached_vol.create_file(spec()).unwrap();
        let plain_vol = new_volume();
        let plain = plain_vol.create_file(spec()).unwrap();

        // Concurrent writers (and racing readers) on the cached volume.
        crossbeam::thread::scope(|s| {
            for (t, writes) in per_thread.iter().enumerate() {
                let f = cached.clone();
                s.spawn(move |_| {
                    let base = t as u64 * REGION;
                    for &(off, len, tag) in writes {
                        let off = base + off;
                        let len = len.min((base + REGION - off) as usize);
                        let data: Vec<u8> =
                            (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
                        f.write_span(off, &data).unwrap();
                    }
                });
            }
            let f = cached.clone();
            let reads = &reads;
            s.spawn(move |_| {
                let mut buf = vec![0u8; 1200];
                for &(off, len) in reads {
                    let len = len.min((CAP_BYTES - off) as usize);
                    // Unsynchronised racing read: bytes are unspecified,
                    // it just must not fail or deadlock.
                    f.read_span(off, &mut buf[..len]).unwrap();
                }
            });
        })
        .unwrap();

        // Same writes, sequentially, on the uncached reference.
        for (t, writes) in per_thread.iter().enumerate() {
            let base = t as u64 * REGION;
            for &(off, len, tag) in writes {
                let off = base + off;
                let len = len.min((base + REGION - off) as usize);
                let data: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
                plain.write_span(off, &data).unwrap();
            }
        }

        // Span reads agree while dirty frames are still resident.
        for &(off, len) in &reads {
            let len = len.min((CAP_BYTES - off) as usize);
            let mut a = vec![0u8; len];
            cached.read_span(off, &mut a).unwrap();
            let mut b = vec![0u8; len];
            plain.read_span(off, &mut b).unwrap();
            prop_assert_eq!(&a[..], &b[..], "cached read diverged at {}+{}", off, len);
        }

        // After a flush the media itself must be identical.
        cached_vol.flush_cache().unwrap();
        let pb_cached = owned_blocks(&cached);
        let pb_plain = owned_blocks(&plain);
        prop_assert_eq!(&pb_cached, &pb_plain, "allocation diverged");
        for &(dev, abs) in &pb_cached {
            let mut a = vec![0u8; BS];
            cached_vol.device(dev).read_block(abs, &mut a).unwrap();
            let mut b = vec![0u8; BS];
            plain_vol.device(dev).read_block(abs, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "media diverged at device {} block {}", dev, abs);
        }
    }

    /// Write-through under a torn-write schedule: when a span write
    /// fails mid-transfer, every later cached read of the file returns
    /// exactly what is on the media — the cache may not resurrect the
    /// untorn bytes it briefly held in frames.
    #[test]
    fn torn_write_through_leaves_cache_agreeing_with_media(
        seed in any::<u64>(),
        torn_rate in 0.3f64..1.0,
        writes in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1500, any::<u8>()), 2..8),
    ) {
        let mut devices = mem_array(4, 512, BS);
        let (fault, wrapped) = FaultDevice::wrap(
            devices[1].clone(),
            FaultPlan {
                seed,
                transient_rate: 0.0,
                spike_rate: 0.0,
                spike: std::time::Duration::ZERO,
                torn_write_rate: torn_rate,
                fail_after: None,
                ..FaultPlan::default()
            },
        );
        devices[1] = wrapped;
        fault.set_armed(false);
        let v = Volume::new(devices)
            .unwrap()
            .enable_cache(VolumeCacheConfig::write_through(16))
            .unwrap();
        let f = v
            .create_file(
                FileSpec::new("f", 64, 4, LayoutSpec::Striped { devices: 4, unit: 1 })
                    .initial_records(CAP_BYTES / 64),
            )
            .unwrap();

        fault.set_armed(true);
        for &(off, len, tag) in &writes {
            let len = len.min((CAP_BYTES - off) as usize);
            let data: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
            // Torn writes surface as errors; both outcomes are legal,
            // the invariant below is what matters.
            let _ = f.write_span(off, &data);
        }
        fault.set_armed(false);

        for (l, &(dev, abs)) in phys_blocks(&f).iter().enumerate() {
            let mut media = vec![0u8; BS];
            v.device(dev).read_block(abs, &mut media).unwrap();
            let mut through_cache = vec![0u8; BS];
            f.read_span(l as u64 * BS as u64, &mut through_cache).unwrap();
            prop_assert_eq!(
                &through_cache,
                &media,
                "cache disagrees with media at logical block {} (torn_writes={})",
                l,
                fault.counts().torn_writes
            );
        }
    }
}

/// Write-back past the frame budget: a producer dirtying four times
/// the budget blocks on eviction, which writes the victim home with its
/// dirty neighbors as one run, and a final flush lands every byte.
#[test]
fn eviction_writes_back_a_producer_past_the_frame_budget() {
    let v = new_volume()
        .enable_cache(VolumeCacheConfig::write_back(8))
        .unwrap();
    let f = v
        .create_file(
            FileSpec::new(
                "f",
                64,
                4,
                LayoutSpec::Striped {
                    devices: 4,
                    unit: 1,
                },
            )
            .initial_records(CAP_BYTES / 64),
        )
        .unwrap();

    // Block b lands on device b % 4, so the budget holds two adjacent
    // blocks per device and the first eviction finds its victim's
    // successor dirty.
    let nblocks = CAP_BYTES / BS as u64;
    for b in 0..nblocks {
        f.write_span(b * BS as u64, &vec![b as u8 + 1; BS]).unwrap();
    }
    let stats = v.cache_stats().unwrap();
    assert!(
        stats.base.writebacks > 0,
        "frame budget 8 with {nblocks} dirty blocks must write back on eviction: {stats:?}"
    );

    v.flush_cache().unwrap();
    let stats = v.cache_stats().unwrap();
    assert!(stats.coalesced_writes > 0, "{stats:?}");
    let mut media = vec![0u8; BS];
    for (b, &(dev, abs)) in phys_blocks(&f).iter().enumerate() {
        v.device(dev).read_block(abs, &mut media).unwrap();
        assert!(
            media.iter().all(|&x| x == b as u8 + 1),
            "block {b} is not on the media after the flush"
        );
    }
}

/// `flush_span` is a durability hook — "durable before the range lock
/// releases, exactly as on uncached volumes" — and on an uncached volume
/// a write is on the media *with its redundancy*. So a flushed span's
/// mirror copies and parity blocks leave the write-back cache with its
/// data: on the raw devices every touched stripe's parity is the XOR of
/// its data and every touched block's mirror equals its primary. And
/// `invalidate_span` drops the same set: nothing of a dropped write —
/// data, mirror or parity — reaches the media afterwards.
#[test]
fn flush_span_and_invalidate_span_cover_the_redundancy_blocks() {
    let shadowed = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 2,
    }));
    let parity = |rotated| LayoutSpec::Parity {
        data_devices: 3,
        rotated,
    };
    // Ragged at both ends: blocks 3..=10, three whole stripes of 3 + 1.
    let (off, len) = (3 * BS + 17, 7 * BS + 100);
    let touched = off / BS..=(off + len - 1) / BS;
    for layout in [parity(true), parity(false), shadowed] {
        let v = new_volume()
            .enable_cache(VolumeCacheConfig::write_back(64))
            .unwrap();
        let spec = FileSpec::new("f", 64, 4, layout.clone()).initial_records(CAP_BYTES / 64);
        let f = v.create_file(spec).unwrap();
        let mut model: Vec<u8> = (0..CAP_BYTES as usize).map(|i| (i / 3) as u8).collect();
        f.write_span(0, &model).unwrap();
        v.flush_cache().unwrap();

        let meta = f.meta_snapshot();
        let raw = |slot: usize, dblock: u64| {
            let mut block = vec![0u8; BS];
            let abs = resolve(&meta.extents[slot], dblock);
            v.device(meta.device_map[slot])
                .read_block(abs, &mut block)
                .unwrap();
            block
        };
        let media_holds = |model: &[u8], when: &str| {
            for l in touched.clone() {
                let p = f.layout().map(l as u64);
                let want = &model[l * BS..(l + 1) * BS];
                assert_eq!(raw(p.device, p.block), want, "{layout:?} {when}: block {l}");
                match &layout {
                    LayoutSpec::Shadowed(inner) => {
                        let mirror = raw(p.device + inner.devices_required(), p.block);
                        assert_eq!(mirror, want, "{layout:?} {when}: mirror of block {l}");
                    }
                    _ => {
                        let mut acc = vec![0u8; BS];
                        for slot in 0..f.layout().devices() {
                            let row = raw(slot, p.block);
                            acc.iter_mut().zip(&row).for_each(|(a, b)| *a ^= b);
                        }
                        assert!(
                            acc.iter().all(|&b| b == 0),
                            "{layout:?} {when}: stripe {} parity is not the XOR of its data",
                            p.block
                        );
                    }
                }
            }
        };

        let data: Vec<u8> = (0..len).map(|i| 0x80 | (i / 5) as u8).collect();
        f.write_span(off as u64, &data).unwrap();
        model[off..off + len].copy_from_slice(&data);
        f.flush_span(off as u64, len as u64).unwrap();
        media_holds(&model, "after flush_span");

        // A second write, dropped: the media keeps the first one whole.
        f.write_span(off as u64, &vec![0x55u8; len]).unwrap();
        f.invalidate_span(off as u64, len as u64);
        v.flush_cache().unwrap();
        media_holds(&model, "after invalidate_span");
        let mut got = vec![0u8; len];
        f.read_span(off as u64, &mut got).unwrap();
        assert_eq!(got, data, "{layout:?}: the dropped write is gone");
    }
}
