//! Global direct access (type GDA).
//!
//! "The most general case. Any process may potentially access any block
//! or record in the file in any order" (§3.2). The handle is `Clone` and
//! `Send`; every clone addresses the whole record space. The paper's
//! observation that "buffer caching techniques would be helpful when
//! there is some locality of reference" is served by the volume's cache
//! tier ([`pario_fs::Volume::enable_cache`]), which every handle of
//! every file goes through.

use pario_fs::RawFile;

use crate::error::Result;

/// A direct-access handle over every record of a GDA file.
#[derive(Clone)]
pub struct DirectHandle {
    raw: RawFile,
}

impl DirectHandle {
    pub(crate) fn new(raw: RawFile) -> DirectHandle {
        DirectHandle { raw }
    }

    /// Records currently in the file.
    pub fn len_records(&self) -> u64 {
        self.raw.len_records()
    }

    /// Read record `r`.
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        self.raw.read_record(r, out)?;
        Ok(())
    }

    /// Write record `r` (extends the file).
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        self.raw.write_record(r, data)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::organization::Organization;
    use crate::pfile::ParallelFile;
    use pario_fs::{Volume, VolumeCacheConfig, VolumeConfig};

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 512,
            block_size: 256,
        })
        .unwrap()
    }

    /// [`vol`] behind a write-back cache tier of `frames` frames.
    fn cached_vol(frames: usize) -> Volume {
        vol()
            .enable_cache(VolumeCacheConfig::write_back(frames))
            .unwrap()
    }

    fn rec(tag: u64, size: usize) -> Vec<u8> {
        (0..size).map(|i| (tag as usize * 29 + i) as u8).collect()
    }

    #[test]
    fn random_access_any_order() {
        let v = vol();
        let pf = ParallelFile::create(&v, "g", Organization::GlobalDirect, 64, 4).unwrap();
        let h = pf.direct_handle().unwrap();
        let order = [13u64, 2, 47, 0, 31, 8, 47];
        for &i in &order {
            h.write_record(i, &rec(i, 64)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for &i in &order {
            h.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 64));
        }
        assert_eq!(h.len_records(), 48);
    }

    #[test]
    fn concurrent_clones_write_disjoint_records() {
        let v = vol();
        let pf = ParallelFile::create(&v, "g", Organization::GlobalDirect, 64, 4).unwrap();
        let h = pf.direct_handle().unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    for k in 0..16u64 {
                        let i = t * 16 + k;
                        h.write_record(i, &rec(i, 64)).unwrap();
                    }
                });
            }
        });
        let mut buf = vec![0u8; 64];
        for i in 0..128u64 {
            h.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 64), "record {i}");
        }
    }

    #[test]
    fn cached_handle_round_trips_and_counts_hits() {
        let v = cached_vol(16);
        let pf = ParallelFile::create(&v, "g", Organization::GlobalDirect, 64, 4).unwrap();
        // 4 records per 256-byte block: re-reading neighbours hits cache.
        let h = pf.direct_handle().unwrap();
        for i in 0..32u64 {
            h.write_record(i, &rec(i, 64)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for i in 0..32u64 {
            h.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 64));
        }
        let stats = v.cache_stats().unwrap().base;
        assert!(stats.hits > 0, "locality must produce hits: {stats:?}");
        // After a flush the media hold everything: drop every frame
        // unwritten and read again from the devices.
        v.flush_cache().unwrap();
        let cache = v.cache().unwrap();
        for d in 0..v.num_devices() {
            cache.drop_device(d);
        }
        assert!(cache.is_empty());
        for i in 0..32u64 {
            h.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 64));
        }
    }

    #[test]
    fn cached_read_past_end_rejected() {
        let v = cached_vol(4);
        let pf = ParallelFile::create(&v, "g", Organization::GlobalDirect, 64, 4).unwrap();
        let h = pf.direct_handle().unwrap();
        h.write_record(0, &rec(0, 64)).unwrap();
        let mut buf = vec![0u8; 64];
        assert!(h.read_record(5, &mut buf).is_err());
    }

    #[test]
    fn straddling_records_atomic_under_concurrency() {
        let v = cached_vol(8);
        // 96-byte records straddle 256-byte blocks.
        let pf = ParallelFile::create(&v, "g", Organization::GlobalDirect, 96, 8).unwrap();
        let h = pf.direct_handle().unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                s.spawn(move || {
                    for k in 0..24u64 {
                        let i = t * 24 + k;
                        h.write_record(i, &rec(i, 96)).unwrap();
                    }
                });
            }
        });
        v.flush_cache().unwrap();
        let mut buf = vec![0u8; 96];
        for i in 0..96u64 {
            h.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 96), "record {i}");
        }
    }
}
