//! Model checks for the volume-wide cache tier (`VolumeCache`): with
//! the cache fronting every span path, concurrent sub-block writers,
//! readers, and an explicit flusher must preserve the uncached byte
//! semantics in every schedule, and the cache lock (rank
//! `buffer.volume_cache` = 75) must never invert against the fs locks
//! below it or the health board above it.
#![cfg(pario_check)]

use std::sync::Arc;

use pario_check::{spawn, Config, Explorer, LockLevel, Mutex};
use pario_disk::{BlockDevice, DeviceRef, IoCounters, MemDisk};
use pario_fs::{FileSpec, Volume, VolumeCache, VolumeCacheConfig, VolumeConfig};
use pario_layout::LayoutSpec;

const BS: usize = 64;

fn cached_volume(cfg: VolumeCacheConfig) -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 2,
        device_blocks: 128,
        block_size: BS,
    })
    .expect("in-memory volume")
    .enable_cache(cfg)
    .expect("attach cache")
}

fn striped_file(v: &Volume) -> pario_fs::RawFile {
    v.create_file(
        FileSpec::new(
            "m",
            16,
            4,
            LayoutSpec::Striped {
                devices: 2,
                unit: 1,
            },
        )
        .initial_records(16),
    )
    .expect("create file")
}

/// Two sub-block writers to disjoint ranges of block 0 racing a reader
/// and a flusher, all through the write-back cache tier. Every schedule
/// must end with both writers' bytes on the devices after a final
/// flush, and no schedule may acquire the cache lock out of rank order.
/// The explorer must cover at least 1000 distinct interleavings, so the
/// lock-order claim rests on real coverage rather than a lucky seed.
#[test]
fn cached_sub_block_writers_keep_uncached_semantics() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let v = cached_volume(VolumeCacheConfig::write_back(8));
        let f = striped_file(&v);
        f.write_span(0, &[0u8; BS]).expect("zero block 0");

        let f1 = f.clone();
        let h1 = spawn(move || {
            f1.write_span(0, &[0xAA; 16]).expect("sub-block write");
        });
        let f2 = f.clone();
        let h2 = spawn(move || {
            f2.write_span(32, &[0xBB; 16]).expect("sub-block write");
        });
        let f3 = f.clone();
        let h3 = spawn(move || {
            let mut out = [0u8; 16];
            // GDA-style unsynchronised read: any interleaving is legal,
            // it just must not deadlock or see torn frame state.
            f3.read_span(16, &mut out).expect("concurrent read");
        });
        let v4 = v.clone();
        let h4 = spawn(move || {
            v4.flush_cache().expect("concurrent flush");
        });
        h1.join();
        h2.join();
        h3.join();
        h4.join();

        v.flush_cache().expect("final flush");
        let mut out = [0u8; BS];
        f.read_span(0, &mut out).expect("read back");
        assert!(
            out[..16].iter().all(|&b| b == 0xAA),
            "writer 1's bytes lost: {:?}",
            &out[..16]
        );
        assert!(
            out[32..48].iter().all(|&b| b == 0xBB),
            "writer 2's bytes lost: {:?}",
            &out[32..48]
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 1000,
        "coverage too thin: {} distinct schedules",
        report.distinct
    );
}

/// A writer overflowing the frame budget races a grow: every eviction
/// writes its dirty victim back home, growth must take the alloc lock
/// strictly below the cache lock, and a final flush must land every
/// block on its home device.
#[test]
fn eviction_writeback_races_growth_without_inversion() {
    let report = Explorer::new(Config::new(300)).run(|| {
        // 2 frames force eviction on nearly every write.
        let v = cached_volume(VolumeCacheConfig::write_back(2));
        let f = striped_file(&v);

        let f1 = f.clone();
        let h1 = spawn(move || {
            for b in 0..4u64 {
                f1.write_span(b * BS as u64, &[b as u8 + 1; BS])
                    .expect("write");
            }
        });
        let f2 = f.clone();
        let h2 = spawn(move || {
            // Grows the file: allocator lock (50) under span writes.
            f2.ensure_capacity_records(64).expect("grow");
        });
        h1.join();
        h2.join();

        v.flush_cache().expect("flush");
        let mut out = [0u8; BS];
        for b in 0..4u64 {
            f.read_span(b * BS as u64, &mut out).expect("read back");
            assert!(
                out.iter().all(|&x| x == b as u8 + 1),
                "block {b} lost after eviction + flush"
            );
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A `MemDisk` whose every transfer takes a lock ranked *below* the
/// cache's (rank 70 < 75), so the checker reports any device call made
/// with the cache lock held as a lock-order inversion.
struct RankProbe {
    inner: MemDisk,
    below_cache: Mutex<()>,
}

impl BlockDevice for RankProbe {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        let _probe = self.below_cache.lock();
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        let _probe = self.below_cache.lock();
        self.inner.write_blocks_at(block, data)
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn fail(&self) {}
    fn heal(&self) {}
    fn is_failed(&self) -> bool {
        false
    }
}

/// The frame protocol under the explorer: a flusher, a writer that
/// overwrites its own block, and a reader whose misses evict, on a
/// 2-frame write-back cache. Write-backs run with the table unlocked,
/// so the flusher's copy of block 0 can be in flight while the writer
/// replaces it and while the reader's eviction wants the frame. In
/// every schedule the media ends on the last write after a final flush
/// (the version rule: a raced write-back leaves the frame dirty), the
/// reader sees the media's bytes, and no transfer is made under the
/// rank-75 lock.
#[test]
fn flush_writer_and_evictor_agree_with_the_media() {
    let report = Explorer::new(Config::new(6000)).run(|| {
        let dev: DeviceRef = Arc::new(RankProbe {
            inner: MemDisk::new(8, BS),
            below_cache: Mutex::new_named((), LockLevel::FsStripe),
        });
        for b in 2..4u64 {
            dev.write_block(b, &[b as u8; BS]).expect("seed the media");
        }
        let cache = Arc::new(VolumeCache::new(
            vec![Arc::clone(&dev)],
            VolumeCacheConfig::write_back(2),
        ));
        cache.write_block(0, 0, &[1u8; BS]).expect("first write");

        let c = Arc::clone(&cache);
        let flusher = spawn(move || {
            c.flush_ranges(&[(0, 0, 1)]).expect("range flush");
            c.flush().expect("full flush");
        });
        let c = Arc::clone(&cache);
        let writer = spawn(move || {
            c.write_block(0, 0, &[2u8; BS]).expect("overwrite");
            c.write_block(0, 0, &[3u8; BS]).expect("overwrite");
        });
        let c = Arc::clone(&cache);
        let reader = spawn(move || {
            let mut out = [0u8; BS];
            for b in 2..4u64 {
                c.read_block(0, b, &mut out).expect("evicting read");
                assert!(out.iter().all(|&x| x == b as u8), "block {b} read {out:?}");
            }
        });
        flusher.join();
        writer.join();
        reader.join();

        cache.flush().expect("final flush");
        let mut out = [0u8; BS];
        dev.read_block(0, &mut out).expect("read the media");
        assert!(out.iter().all(|&x| x == 3), "media holds {:?}", &out[..4]);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 1000,
        "coverage too thin: {} distinct schedules",
        report.distinct
    );
}
