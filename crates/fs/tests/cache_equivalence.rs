//! Property tests: the volume cache tier is semantically invisible.
//! Concurrent multi-threaded writers and readers through a cached
//! volume must produce bytes — both through span reads and on the raw
//! media after a flush — identical to the same workload on an uncached
//! volume, whether the frames hold the working set or two frames evict
//! on nearly every write. A separate torn-write schedule pins the fault
//! invariant: once a flush has followed the torn write-backs, the media
//! holds exactly what the cache serves, and every acknowledged byte.

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
    /// parity blocks; on the shadowed one it covers the mirror copies.
    #[test]
    fn cached_volume_matches_uncached(
        layout in prop_oneof![
            Just(LayoutSpec::Striped { devices: 4, unit: 2 }),
            any::<bool>().prop_map(|rotated| LayoutSpec::Parity { data_devices: 3, rotated }),
            Just(LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped { devices: 2, unit: 2 }))),
        ],
        // Two frames half the time: eviction write-back runs under the
        // concurrent writers.
        frames in prop_oneof![Just(2usize), 2usize..24],
        per_thread in proptest::collection::vec(
            proptest::collection::vec((0u64..REGION, 1usize..900, any::<u8>()), 1..6),
            THREADS as usize..=THREADS as usize,
        ),
        reads in proptest::collection::vec((0u64..CAP_BYTES, 1usize..1200), 1..8),
    ) {
        let spec = || {
            FileSpec::new("f", 64, 4, layout.clone()).initial_records(CAP_BYTES / 64)
        };
        let cached_vol = new_volume()
            .enable_cache(VolumeCacheConfig::write_back(frames))
            .unwrap();
        let cached = cached_vol.create_file(spec()).unwrap();
        let plain_vol = new_volume();
        let plain = plain_vol.create_file(spec()).unwrap();

        // Concurrent writers (and racing readers) on the cached volume.
        std::thread::scope(|s| {
            for (t, writes) in per_thread.iter().enumerate() {
                let f = cached.clone();
                s.spawn(move || {
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
            s.spawn(move || {
                let mut buf = vec![0u8; 1200];
                for &(off, len) in reads {
                    let len = len.min((CAP_BYTES - off) as usize);
                    // Unsynchronised racing read: bytes are unspecified,
                    // it just must not fail or deadlock.
                    f.read_span(off, &mut buf[..len]).unwrap();
                }
            });
        });

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

    /// Write-back under a torn-write schedule: two frames, so nearly
    /// every write evicts and its victim's run goes home under the
    /// fault plan. A torn run leaves a prefix on the media and its
    /// frames dirty; once the plan is disarmed and the cache flushed,
    /// the media holds exactly what span reads serve, block for block,
    /// and no acknowledged byte is lost: each holds its last
    /// acknowledged write's value, or that of a failed write after it.
    #[test]
    fn torn_write_backs_leave_media_agreeing_with_the_cache(
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
            .enable_cache(VolumeCacheConfig::write_back(2))
            .unwrap();
        // Unit 2: a device's adjacent rows hold adjacent logical blocks,
        // so a victim's run is often two blocks long — the only kind a
        // fault plan tears.
        let f = v
            .create_file(
                FileSpec::new("f", 64, 4, LayoutSpec::Striped { devices: 4, unit: 2 })
                    .initial_records(CAP_BYTES / 64),
            )
            .unwrap();

        // Per byte: the last acknowledged value, and the values of the
        // failed writes since, any part of which may have landed.
        let mut acked = vec![0u8; CAP_BYTES as usize];
        let mut maybe: Vec<Vec<u8>> = vec![Vec::new(); CAP_BYTES as usize];
        fault.set_armed(true);
        for &(off, len, tag) in &writes {
            let len = len.min((CAP_BYTES - off) as usize);
            let data: Vec<u8> = (0..len).map(|i| tag.wrapping_add(i as u8)).collect();
            let span = off as usize..off as usize + len;
            // A write-back whose tears outlast the executor's retries
            // fails the write that evicted it.
            match f.write_span(off, &data) {
                Ok(()) => {
                    acked[span.clone()].copy_from_slice(&data);
                    maybe[span].iter_mut().for_each(Vec::clear);
                }
                Err(_) => maybe[span].iter_mut().zip(&data).for_each(|(m, &b)| m.push(b)),
            }
        }
        fault.set_armed(false);
        v.flush_cache().unwrap();

        for (l, &(dev, abs)) in phys_blocks(&f).iter().enumerate() {
            let mut media = vec![0u8; BS];
            v.device(dev).read_block(abs, &mut media).unwrap();
            let mut through_cache = vec![0u8; BS];
            f.read_span(l as u64 * BS as u64, &mut through_cache).unwrap();
            prop_assert_eq!(
                &through_cache,
                &media,
                "media disagrees with the cache at logical block {} (torn_writes={})",
                l,
                fault.counts().torn_writes
            );
            let lost = (l * BS..(l + 1) * BS)
                .find(|&i| media[i % BS] != acked[i] && !maybe[i].contains(&media[i % BS]));
            prop_assert!(lost.is_none(), "byte {:?} lost its acknowledged write", lost);
        }
    }
}

/// A cached volume with one file of 64-byte records, four to a block,
/// written whole (`fill`, then flushed to the media) and with no frame
/// resident.
fn cached_file(layout: LayoutSpec, fill: u8) -> (Volume, pario_fs::RawFile) {
    let v = new_volume()
        .enable_cache(VolumeCacheConfig::write_back(16))
        .unwrap();
    let spec = FileSpec::new("f", 64, 4, layout).initial_records(CAP_BYTES / 64);
    let f = v.create_file(spec).unwrap();
    f.write_span(0, &vec![fill; CAP_BYTES as usize]).unwrap();
    v.flush_cache().unwrap();
    f.invalidate_span(0, CAP_BYTES);
    (v, f)
}

/// Requests device `d`'s executor has serviced.
fn served(v: &Volume, d: usize) -> u64 {
    v.io_device(d).ionode_stats().unwrap().serviced
}

fn read_block(f: &pario_fs::RawFile, l: u64) -> Vec<u8> {
    let mut got = vec![0u8; BS];
    f.read_span(l * BS as u64, &mut got).unwrap();
    got
}

/// A one-block read is one call on the tier: a dirty frame newer than
/// the media serves it, and no device does.
#[test]
fn a_one_block_read_is_served_by_a_dirty_frame_newer_than_the_media() {
    let striped = LayoutSpec::Striped {
        devices: 4,
        unit: 1,
    };
    let (v, f) = cached_file(striped, 1);
    f.write_span(2 * BS as u64, &[2u8; BS]).unwrap();
    let total = || (0..4).map(|d| served(&v, d)).sum::<u64>();
    let before = total();
    assert_eq!(read_block(&f, 2), vec![2u8; BS]);
    assert_eq!(total(), before, "the executor served a hit");
    let p = f.layout().map(2);
    let meta = f.meta_snapshot();
    let mut media = vec![0u8; BS];
    let abs = resolve(&meta.extents[p.device], p.block);
    v.device(meta.device_map[p.device])
        .read_block(abs, &mut media)
        .unwrap();
    assert_eq!(media, vec![1u8; BS], "the frame is newer than the media");
}

/// A one-block read of a shadowed file whose home device fails: the
/// failure reaches the health board once, and the mirror serves this
/// read and, the home now `Failed`, the next one without a probe.
#[test]
fn a_one_block_read_of_a_failed_home_is_served_by_the_mirror() {
    let shadowed = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 2,
    }));
    let (v, f) = cached_file(shadowed, 3);
    let map = f.meta_snapshot().device_map;
    let (home, mirror) = (map[0], map[2]);
    assert_eq!(f.layout().map(1).device, 0, "block 1 lives on slot 0");
    v.device(home).fail();
    let before = served(&v, mirror);
    assert_eq!(read_block(&f, 1), vec![3u8; BS]);
    assert_eq!(served(&v, mirror), before + 1, "the mirror served it");
    let told = v.health().snapshot()[home].clone();
    assert_eq!(told.state, pario_fs::HealthState::Failed);
    assert_eq!(told.permanent_errors, 1, "the board is told once");

    f.invalidate_span(0, CAP_BYTES);
    let (h0, m0) = (served(&v, home), served(&v, mirror));
    assert_eq!(read_block(&f, 1), vec![3u8; BS]);
    assert_eq!((served(&v, home), served(&v, mirror)), (h0, m0 + 1));
    assert_eq!(v.health().snapshot()[home].permanent_errors, 1);
}

/// A one-block read of a parity column whose device is down is not one
/// transfer: it reconstructs the column from the survivors.
#[test]
fn a_one_block_read_of_a_down_parity_column_reconstructs_it() {
    let parity = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let (v, f) = cached_file(parity, 0);
    let model: Vec<u8> = (0..CAP_BYTES as usize).map(|i| (i / 7) as u8).collect();
    f.write_span(0, &model).unwrap();
    let l = 4u64;
    let down = f.meta_snapshot().device_map[f.layout().map(l).device];
    v.device(down).fail();
    v.health().mark_failed(down);
    let want = &model[l as usize * BS..(l as usize + 1) * BS];
    assert_eq!(read_block(&f, l), want, "reconstructed from the survivors");
    assert_eq!(v.device_health(down), pario_fs::HealthState::Failed);
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
