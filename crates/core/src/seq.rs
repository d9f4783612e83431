//! High-rate sequential streaming (type S) over striped devices.
//!
//! "For file types S and SS, disk striping can be used to spread the file
//! across multiple drives, resulting in higher transfer rates… Buffers
//! would be used when reading and writing to format the data into logical
//! records" (§4). [`StripedReader`] runs one read-ahead pipeline per
//! device and merges their streams back into logical order;
//! [`StripedWriter`] splits a record stream across per-device write-behind
//! pipelines. This is exactly the paper's "merge and split data streams"
//! buffering role, with the pipeline depth as the multiple-buffering knob.

use pario_buffer::{ReadAhead, WriteBehind};
use pario_fs::{resolve, RawFile};
use pario_layout::LayoutSpec;

use crate::error::{CoreError, Result};

/// The pipelines map blocks with `layout.map()` and submit straight to
/// the volume's devices, beside the span planner and the cache: parity
/// and mirror copies would go unwritten, and dirty frames unseen. Refuse
/// the files and volumes where that shows.
fn check_streamable(raw: &RawFile) -> Result<()> {
    if matches!(
        raw.meta_snapshot().layout,
        LayoutSpec::Parity { .. } | LayoutSpec::Shadowed(_)
    ) {
        return Err(CoreError::BadGeometry(format!(
            "'{}' has a redundant layout; striped streaming maintains neither parity nor mirrors",
            raw.name()
        )));
    }
    if raw.volume().cache().is_some() {
        return Err(CoreError::BadGeometry(
            "striped streaming bypasses the volume cache; use the global view on a cached volume"
                .into(),
        ));
    }
    Ok(())
}

/// Per-device prefetching reader that yields logical blocks in file order.
pub struct StripedReader {
    pipelines: Vec<ReadAhead>,
    /// Device slot of each logical block, in logical order.
    order: Vec<usize>,
    next: usize,
    block_size: usize,
    // Record framing state for read_records.
    raw: RawFile,
}

impl StripedReader {
    /// Open a streaming reader over the whole file with `nbufs` buffers
    /// per device (1 = synchronous, 2 = double buffering, …).
    ///
    /// Fails with [`CoreError::BadGeometry`] on a file with a redundant
    /// layout or a volume with a cache attached.
    pub fn new(raw: &RawFile, nbufs: usize) -> Result<StripedReader> {
        check_streamable(raw)?;
        let meta = raw.meta_snapshot();
        let layout = raw.layout();
        let bs = raw.block_size() as u64;
        let used_blocks = (raw.len_records() * raw.record_size() as u64).div_ceil(bs);
        let nslots = layout.devices();
        let mut per_slot: Vec<Vec<u64>> = vec![Vec::new(); nslots];
        let mut order = Vec::with_capacity(used_blocks as usize);
        for l in 0..used_blocks {
            let p = layout.map(l);
            let abs = resolve(&meta.extents[p.device], p.block);
            per_slot[p.device].push(abs);
            order.push(p.device);
        }
        let vol = raw.volume();
        let pipelines = per_slot
            .into_iter()
            .enumerate()
            .map(|(slot, blocks)| {
                ReadAhead::new(vol.io_device(meta.device_map[slot]), blocks, nbufs)
            })
            .collect();
        Ok(StripedReader {
            pipelines,
            order,
            next: 0,
            block_size: raw.block_size(),
            raw: raw.clone(),
        })
    }

    /// Copy the next logical block into `out`. Returns `false` at end of
    /// file. `out` must be one volume block.
    pub fn read_block(&mut self, out: &mut [u8]) -> Result<bool> {
        assert_eq!(out.len(), self.block_size, "block buffer size");
        if self.next >= self.order.len() {
            return Ok(false);
        }
        let slot = self.order[self.next];
        let res = self.pipelines[slot]
            .next()
            // invariant: the schedule enqueues exactly one item per scheduled block.
            .expect("pipeline yields one item per scheduled block");
        let (_, buf) = res.map_err(|e| CoreError::Fs(e.into()))?;
        out.copy_from_slice(&buf);
        self.pipelines[slot].recycle(buf);
        self.next += 1;
        Ok(true)
    }

    /// Stream every record, in order, to `f(record_index, bytes)`.
    /// Records straddling block boundaries are reassembled.
    pub fn read_records(mut self, mut f: impl FnMut(u64, &[u8])) -> Result<u64> {
        let rs = self.raw.record_size();
        let total = self.raw.len_records();
        let mut rec = vec![0u8; rs];
        let mut rec_fill = 0usize;
        let mut block = vec![0u8; self.block_size];
        let mut emitted = 0u64;
        while emitted < total && self.read_block(&mut block)? {
            let mut off = 0usize;
            while off < block.len() && emitted < total {
                let take = (rs - rec_fill).min(block.len() - off);
                rec[rec_fill..rec_fill + take].copy_from_slice(&block[off..off + take]);
                rec_fill += take;
                off += take;
                if rec_fill == rs {
                    f(emitted, &rec);
                    emitted += 1;
                    rec_fill = 0;
                }
            }
        }
        Ok(emitted)
    }
}

/// Per-device write-behind writer that accepts records in logical order.
pub struct StripedWriter {
    raw: RawFile,
    pipelines: Vec<WriteBehind>,
    block: Vec<u8>,
    block_fill: usize,
    /// Next logical block index to emit.
    next_lblock: u64,
    /// Blocks available (from the preallocation at creation).
    cap_blocks: u64,
    records_written: u64,
}

impl StripedWriter {
    /// Open a streaming writer that overwrites the file from record 0,
    /// with capacity for `total_records` (preallocated so the placement
    /// is known up front) and `nbufs` buffers per device.
    ///
    /// Fails with [`CoreError::BadGeometry`] on a file with a redundant
    /// layout or a volume with a cache attached.
    pub fn create(raw: &RawFile, total_records: u64, nbufs: usize) -> Result<StripedWriter> {
        check_streamable(raw)?;
        raw.ensure_capacity_records(total_records)?;
        let meta = raw.meta_snapshot();
        let vol = raw.volume();
        let pipelines = (0..raw.layout().devices())
            .map(|slot| WriteBehind::new(vol.io_device(meta.device_map[slot]), nbufs))
            .collect();
        Ok(StripedWriter {
            cap_blocks: raw.nblocks(),
            raw: raw.clone(),
            pipelines,
            block: vec![0u8; raw.block_size()],
            block_fill: 0,
            next_lblock: 0,
            records_written: 0,
        })
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block_fill == 0 {
            return Ok(());
        }
        if self.next_lblock >= self.cap_blocks {
            return Err(CoreError::Fs(pario_fs::FsError::CapacityExceeded {
                requested: self.next_lblock + 1,
                capacity: self.cap_blocks,
            }));
        }
        // Zero-pad a short tail block.
        self.block[self.block_fill..].fill(0);
        let meta = self.raw.meta_snapshot();
        let p = self.raw.layout().map(self.next_lblock);
        let abs = resolve(&meta.extents[p.device], p.block);
        let pipe = &self.pipelines[p.device];
        let mut buf = pipe.buffer();
        buf.copy_from_slice(&self.block);
        pipe.submit(abs, buf);
        self.next_lblock += 1;
        self.block_fill = 0;
        Ok(())
    }

    /// Append one record.
    pub fn write_record(&mut self, data: &[u8]) -> Result<()> {
        assert_eq!(data.len(), self.raw.record_size(), "record buffer size");
        let mut off = 0;
        while off < data.len() {
            let space = self.block.len() - self.block_fill;
            let take = space.min(data.len() - off);
            self.block[self.block_fill..self.block_fill + take]
                .copy_from_slice(&data[off..off + take]);
            self.block_fill += take;
            off += take;
            if self.block_fill == self.block.len() {
                self.flush_block()?;
            }
        }
        self.records_written += 1;
        Ok(())
    }

    /// Drain the pipelines and publish the file length.
    pub fn finish(mut self) -> Result<u64> {
        self.flush_block()?;
        for p in self.pipelines.drain(..) {
            p.finish().map_err(|e| CoreError::Fs(e.into()))?;
        }
        self.raw.extend_len_records(self.records_written);
        Ok(self.records_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use crate::pfile::ParallelFile;
    use pario_fs::{Volume, VolumeConfig};

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 1024,
            block_size: 256,
        })
        .unwrap()
    }

    fn rec(tag: u64, size: usize) -> Vec<u8> {
        (0..size).map(|i| (tag as usize * 37 + i) as u8).collect()
    }

    #[test]
    fn stream_write_then_stream_read() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 100, 4).unwrap();
        let mut w = StripedWriter::create(pf.raw(), 200, 2).unwrap();
        for i in 0..200u64 {
            w.write_record(&rec(i, 100)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 200);
        assert_eq!(pf.len_records(), 200);

        let r = StripedReader::new(pf.raw(), 2).unwrap();
        let mut count = 0u64;
        let n = r
            .read_records(|idx, bytes| {
                assert_eq!(bytes, rec(idx, 100).as_slice(), "record {idx}");
                count += 1;
            })
            .unwrap();
        assert_eq!(n, 200);
        assert_eq!(count, 200);
    }

    #[test]
    fn streams_agree_with_global_view() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 64, 4).unwrap();
        let mut w = StripedWriter::create(pf.raw(), 64, 3).unwrap();
        for i in 0..64u64 {
            w.write_record(&rec(i, 64)).unwrap();
        }
        w.finish().unwrap();
        // A conventional sequential program sees the same bytes.
        let mut g = pf.global_reader();
        let mut buf = vec![0u8; 64];
        let mut i = 0u64;
        while g.read_record(&mut buf).unwrap() {
            assert_eq!(buf, rec(i, 64));
            i += 1;
        }
        assert_eq!(i, 64);
    }

    #[test]
    fn reader_pulls_from_all_devices() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 256, 1).unwrap();
        let mut w = StripedWriter::create(pf.raw(), 40, 2).unwrap();
        for i in 0..40u64 {
            w.write_record(&rec(i, 256)).unwrap();
        }
        w.finish().unwrap();
        let before: Vec<u64> = (0..4).map(|d| v.device(d).counters().reads).collect();
        let r = StripedReader::new(pf.raw(), 2).unwrap();
        r.read_records(|_, _| {}).unwrap();
        for (d, prior) in before.iter().enumerate() {
            let delta = v.device(d).counters().reads - prior;
            assert_eq!(delta, 10, "device {d} should serve a quarter of the blocks");
        }
    }

    #[test]
    fn single_buffer_reader_still_correct() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 64, 4).unwrap();
        let mut w = StripedWriter::create(pf.raw(), 30, 1).unwrap();
        for i in 0..30u64 {
            w.write_record(&rec(i, 64)).unwrap();
        }
        w.finish().unwrap();
        let r = StripedReader::new(pf.raw(), 1).unwrap();
        let n = r
            .read_records(|idx, bytes| assert_eq!(bytes, rec(idx, 64).as_slice()))
            .unwrap();
        assert_eq!(n, 30);
    }

    /// At the parent commit the writer accepted a parity file and left
    /// its parity blocks stale: with a data device failed, the degraded
    /// read below returned wrong bytes.
    #[test]
    fn redundant_layouts_and_cached_volumes_are_refused() {
        let v = vol();
        for (name, layout) in [
            (
                "p",
                LayoutSpec::Parity {
                    data_devices: 3,
                    rotated: true,
                },
            ),
            (
                "m",
                LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                })),
            ),
        ] {
            let pf = ParallelFile::create_with_layout(
                &v,
                name,
                Organization::Sequential,
                256,
                1,
                layout,
                None,
            )
            .unwrap();
            let refused = |r: Result<()>| matches!(r, Err(CoreError::BadGeometry(_)));
            assert!(refused(StripedWriter::create(pf.raw(), 12, 2).map(drop)));
            assert!(refused(StripedReader::new(pf.raw(), 2).map(drop)));
            // What the writer may not do, the global view does: every
            // record survives the loss of a data device.
            let mut w = pf.global_writer();
            for i in 0..12u64 {
                w.write_record(&rec(i, 256)).unwrap();
            }
            w.finish().unwrap();
            let dead = pf.raw().meta_snapshot().device_map[0];
            v.device(dead).fail();
            let mut buf = vec![0u8; 256];
            for i in 0..12u64 {
                pf.raw().read_record(i, &mut buf).unwrap();
                assert_eq!(buf, rec(i, 256), "{name}: degraded record {i}");
            }
            v.device(dead).heal();
        }

        let cached = vol()
            .enable_cache(pario_fs::VolumeCacheConfig::write_back(8))
            .unwrap();
        let pf = ParallelFile::create(&cached, "s", Organization::Sequential, 256, 1).unwrap();
        assert!(matches!(
            StripedWriter::create(pf.raw(), 4, 2),
            Err(CoreError::BadGeometry(_))
        ));
        assert!(matches!(
            StripedReader::new(pf.raw(), 2),
            Err(CoreError::BadGeometry(_))
        ));
    }

    #[test]
    fn empty_file_reads_nothing() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 64, 4).unwrap();
        let r = StripedReader::new(pf.raw(), 2).unwrap();
        assert_eq!(r.read_records(|_, _| panic!("no records")).unwrap(), 0);
    }
}
