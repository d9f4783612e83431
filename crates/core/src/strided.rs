//! A process's view of a PS, PDA or IS file: one strided cursor.
//!
//! The paper's PS and IS organizations differ only in where a process's
//! blocks lie. PS: "the file is partitioned into contiguous blocks, one
//! block per process" (§3.1); PDA is the same partition addressed
//! randomly, "blocks can be thought of as pages of virtual memory". IS:
//! "processes use non-contiguous blocks of the file separated by a
//! constant stride. The stride would typically be the number of
//! processes accessing the file… This organization would be useful for
//! wrapped storage of a matrix".
//!
//! Both are one strided view: the process's local record *i* is global
//! record `first + (i / piece) * stride + i % piece`, for *i* below the
//! view's `limit`. A partition is one piece with a limit; an IS slot is
//! pieces of one file block, `P` blocks apart, without one — with as
//! many devices as processes, each slot's blocks land on a private
//! device.

use pario_fs::RawFile;

use crate::error::{CoreError, Result};

/// A process's cursor over its records of a file: a PS/PDA partition or
/// an IS slot. Records are addressed by their global index; the view
/// refuses every record outside it.
pub struct ProcessView {
    raw: RawFile,
    /// Global index of local record 0.
    first: u64,
    /// Records per contiguous piece: the partition, or one file block.
    piece: u64,
    /// Global distance between the starts of consecutive pieces.
    stride: u64,
    /// Local records in the view; `u64::MAX` for a view without end.
    limit: u64,
    /// Sequential cursor, as a local record index.
    cursor: u64,
}

impl ProcessView {
    /// The partition of global records `[lo, hi)`: one piece.
    pub(crate) fn partition(raw: RawFile, lo: u64, hi: u64) -> ProcessView {
        let piece = (hi - lo).max(1);
        ProcessView::new(raw, lo, piece, piece, hi - lo)
    }

    /// Slot `p` of `processes`: file blocks `p, p + P, p + 2P, …`.
    pub(crate) fn interleaved(raw: RawFile, p: u32, processes: u32) -> Result<ProcessView> {
        if p >= processes {
            return Err(CoreError::BadProcess {
                process: p,
                of: processes,
            });
        }
        let rpb = raw.records_per_block() as u64;
        let (first, stride) = (u64::from(p) * rpb, u64::from(processes) * rpb);
        Ok(ProcessView::new(raw, first, rpb, stride, u64::MAX))
    }

    fn new(raw: RawFile, first: u64, piece: u64, stride: u64, limit: u64) -> ProcessView {
        ProcessView {
            raw,
            first,
            piece,
            stride,
            limit,
            cursor: 0,
        }
    }

    /// Global index of local record `i`, past the limit too; `None`
    /// where no index holds it.
    fn global(&self, i: u64) -> Option<u64> {
        (i / self.piece)
            .checked_mul(self.stride)?
            .checked_add(i % self.piece)?
            .checked_add(self.first)
    }

    /// Global index of local record `i` of the view.
    fn record(&self, i: u64) -> Option<u64> {
        self.global(i).filter(|_| i < self.limit)
    }

    /// Local index of global record `r`, if the view holds it.
    fn local(&self, r: u64) -> Option<u64> {
        let d = r.checked_sub(self.first)?;
        let off = d % self.stride;
        let i = d / self.stride * self.piece + off;
        (off < self.piece && i < self.limit).then_some(i)
    }

    /// Refuse global record `r` unless it lies in the view.
    pub fn inside(&self, r: u64) -> Result<()> {
        self.local(r).map(drop).ok_or_else(|| self.outside(r))
    }

    /// The global records `[start, end)` the view spans: the partition,
    /// or from the slot's first record on.
    pub fn range(&self) -> (u64, u64) {
        (self.first, self.first.saturating_add(self.limit))
    }

    /// Local index of the sequential cursor.
    pub fn position(&self) -> u64 {
        self.cursor
    }

    /// The global index the cursor names: past the view's end once it
    /// has left the view, `u64::MAX` once it has passed every index.
    pub fn next_record(&self) -> u64 {
        self.global(self.cursor).unwrap_or(u64::MAX)
    }

    /// Move the sequential cursor to local record `i`.
    pub fn seek(&mut self, i: u64) {
        self.cursor = i;
    }

    /// Move the sequential cursor back to the view's first record.
    pub fn rewind(&mut self) {
        self.seek(0);
    }

    fn outside(&self, r: u64) -> CoreError {
        let (start, end) = self.range();
        CoreError::OutsideView {
            record: r,
            start,
            end,
            piece: self.piece,
            stride: self.stride,
        }
    }

    /// The cursor's global record, provided the file holds it.
    fn readable(&self) -> Option<u64> {
        self.record(self.cursor)
            .filter(|&r| r < self.raw.len_records())
    }

    /// Read the view's next record into `out`: its global index, or
    /// `None` at the view's end or past the records written so far.
    pub fn read_next(&mut self, out: &mut [u8]) -> Result<Option<u64>> {
        let Some(r) = self.readable() else {
            return Ok(None);
        };
        self.raw.read_record(r, out)?;
        self.cursor += 1;
        Ok(Some(r))
    }

    /// Write the view's next record, extending the file as needed, and
    /// return its global index. Past the view's end the write is
    /// refused: a process cannot spill into its neighbour's blocks.
    pub fn write_next(&mut self, data: &[u8]) -> Result<u64> {
        let r = self
            .record(self.cursor)
            .ok_or_else(|| self.outside(self.next_record()))?;
        self.raw.write_record(r, data)?;
        self.cursor += 1;
        Ok(r)
    }

    /// Records in the view's file block at the cursor: up to a block,
    /// fewer where the view ends inside it. The cursor must stand at a
    /// block start; `read_next` / `write_next` may have left it inside.
    fn block_here(&self) -> Result<u64> {
        let rpb = self.raw.records_per_block() as u64;
        match self.cursor % rpb {
            0 => Ok(rpb.min(self.limit - self.cursor)),
            k => Err(CoreError::BadGeometry(format!(
                "cursor at record {k} of block {}, not at a block start",
                self.cursor / rpb
            ))),
        }
    }

    /// Read the view's next file block into `out`, which holds one file
    /// block: its first record's global index and the records read —
    /// fewer than a block where the view or the file ends inside it —
    /// or `None` at the end. Refused with the cursor inside a block.
    pub fn read_next_block(&mut self, out: &mut [u8]) -> Result<Option<(u64, usize)>> {
        assert_eq!(out.len(), self.raw.file_block_bytes(), "block buffer size");
        let Some(first) = self.readable() else {
            return Ok(None);
        };
        let n = self.block_here()?.min(self.raw.len_records() - first);
        self.raw
            .read_records(first, &mut out[..n as usize * self.raw.record_size()])?;
        self.cursor += n;
        Ok(Some((first, n as usize)))
    }

    /// Write the view's next file block from `data`, extending the file,
    /// and return its first record's global index. `data` holds the
    /// block's records: a whole block, or the view's short tail.
    /// Refused, like [`read_next_block`](Self::read_next_block), with
    /// the cursor inside a block.
    pub fn write_next_block(&mut self, data: &[u8]) -> Result<u64> {
        let first = self
            .record(self.cursor)
            .ok_or_else(|| self.outside(self.next_record()))?;
        let n = self.block_here()?;
        let want = n as usize * self.raw.record_size();
        if data.len() != want {
            return Err(CoreError::BadGeometry(format!(
                "block write of {} bytes where the view's block holds {want}",
                data.len()
            )));
        }
        self.raw.write_records(first, data)?;
        self.cursor += n;
        Ok(first)
    }

    /// Read global record `r`, which must lie in the view.
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        self.inside(r)?;
        Ok(self.raw.read_record(r, out)?)
    }

    /// Write global record `r`, which must lie in the view.
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        self.inside(r)?;
        Ok(self.raw.write_record(r, data)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::organization::Organization;
    use crate::pfile::ParallelFile;
    use crate::CoreError;
    use pario_fs::{FsError, Volume, VolumeConfig};

    fn vol(devices: usize) -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices,
            device_blocks: 512,
            block_size: 256,
        })
        .unwrap()
    }

    fn rec(tag: u64, size: usize) -> Vec<u8> {
        (0..size).map(|i| (tag as usize * 13 + i) as u8).collect()
    }

    fn refused<T>(r: crate::Result<T>) -> bool {
        matches!(r, Err(CoreError::OutsideView { .. }))
    }

    // ------------------------------------------------------------------
    // Partitions (PS, PDA)
    // ------------------------------------------------------------------

    #[test]
    fn processes_fill_their_partitions_independently() {
        let v = vol(4);
        let org = Organization::PartitionedSeq { partitions: 4 };
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 128).unwrap();
        std::thread::scope(|s| {
            for p in 0..4u32 {
                let mut h = pf.partition_handle(p).unwrap();
                s.spawn(move || {
                    let (lo, hi) = h.range();
                    for g in lo..hi {
                        assert_eq!(h.write_next(&rec(g, 64)).unwrap(), g);
                    }
                    // Partition full: further writes rejected.
                    assert!(refused(h.write_next(&rec(0, 64))));
                });
            }
        });
        // Global view sees the partitions in order — a coherent file.
        let mut r = pf.global_reader();
        let mut buf = vec![0u8; 64];
        let mut idx = 0u64;
        while r.read_record(&mut buf).unwrap() {
            assert_eq!(buf, rec(idx, 64), "record {idx}");
            idx += 1;
        }
        assert_eq!(idx, 128);
    }

    #[test]
    fn sequential_read_stops_at_partition_end() {
        let v = vol(4);
        let org = Organization::PartitionedSeq { partitions: 2 };
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 64).unwrap();
        let mut w = pf.partition_handle(1).unwrap();
        assert_eq!(w.range(), (32, 64));
        for i in 0..32 {
            w.write_next(&rec(i, 64)).unwrap();
        }
        let mut h = pf.partition_handle(1).unwrap();
        let mut buf = vec![0u8; 64];
        let mut n = 0;
        while let Some(r) = h.read_next(&mut buf).unwrap() {
            assert_eq!((r, &buf), (32 + n, &rec(n, 64)));
            n += 1;
        }
        assert_eq!(n, 32);
        h.rewind();
        assert_eq!(h.read_next(&mut buf).unwrap(), Some(32));
        assert_eq!(h.position(), 1);
    }

    #[test]
    fn direct_access_within_partition() {
        let v = vol(4);
        let org = Organization::PartitionedDirect { partitions: 2 };
        let pf = ParallelFile::create_sized(&v, "pda", org, 64, 4, 64).unwrap();
        let h = pf.partition_handle(1).unwrap();
        // Random writes then reads, multiple passes (the out-of-core use).
        let order = [39u64, 32, 47, 35, 63, 40];
        for &i in &order {
            h.write_record(i, &rec(i, 64)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for _pass in 0..2 {
            for &i in &order {
                h.read_record(i, &mut buf).unwrap();
                assert_eq!(buf, rec(i, 64));
            }
        }
        // Out-of-partition indices, either side, rejected as outside
        // the view, not the file.
        assert!(refused(h.read_record(64, &mut buf)));
        let err = h.read_record(31, &mut buf).unwrap_err();
        assert_eq!(err.to_string(), "record 31 lies outside the view [32, 64)");
        assert!(refused(h.write_record(31, &rec(0, 64))));
        let inside = |r| h.inside(r).is_ok();
        assert!(!inside(31) && inside(32) && inside(63) && !inside(64));
    }

    #[test]
    fn block_verbs_visit_a_partition_in_any_order() {
        let v = vol(4);
        let org = Organization::PartitionedDirect { partitions: 2 };
        // 30 records, 4 per block, 2 partitions -> partition 1 has a
        // short tail block.
        let pf = ParallelFile::create_sized(&v, "pda", org, 64, 4, 30).unwrap();
        let mut h = pf.partition_handle(1).unwrap();
        assert_eq!(h.range(), (16, 30)); // 4+4+4+2
        let block =
            |blk: u64, n: u64| -> Vec<u8> { (0..n).flat_map(|k| rec(blk * 10 + k, 64)).collect() };
        // Blocks may be visited in any order; records within go in order.
        for blk in [2u64, 0, 3, 1] {
            let n = if blk == 3 { 2 } else { 4 };
            h.seek(blk * 4);
            assert_eq!(h.write_next_block(&block(blk, n)).unwrap(), 16 + blk * 4);
            if blk == 3 {
                // The tail block ends the partition: nothing follows it.
                assert!(refused(h.write_next_block(&block(0, 4))));
            }
        }
        let mut buf = vec![0u8; 256];
        for blk in [3u64, 1, 0, 2] {
            h.seek(blk * 4);
            let n = if blk == 3 { 2 } else { 4 };
            let got = h.read_next_block(&mut buf).unwrap();
            assert_eq!(got, Some((16 + blk * 4, n as usize)));
            assert_eq!(buf[..n as usize * 64], block(blk, n)[..], "block {blk}");
            if blk == 3 {
                assert_eq!(h.read_next_block(&mut buf).unwrap(), None);
            }
        }
        // A short block of the wrong size is refused.
        h.seek(12);
        assert!(matches!(
            h.write_next_block(&block(3, 4)),
            Err(CoreError::BadGeometry(_))
        ));
    }

    #[test]
    fn partition_isolation() {
        // A handle can never touch records outside its range.
        let v = vol(4);
        let org = Organization::PartitionedDirect { partitions: 4 };
        let pf = ParallelFile::create_sized(&v, "pda", org, 64, 4, 128).unwrap();
        let h1 = pf.partition_handle(1).unwrap();
        let (lo, _) = h1.range();
        h1.write_record(lo, &rec(42, 64)).unwrap();
        // Partition 0 sees none of it.
        let h0 = pf.partition_handle(0).unwrap();
        let mut buf = vec![0u8; 64];
        h0.read_record(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        assert!(refused(h0.read_record(lo, &mut buf)));
        pf.raw().read_record(lo, &mut buf).unwrap();
        assert_eq!(buf, rec(42, 64));
    }

    // ------------------------------------------------------------------
    // Interleaved slots (IS)
    // ------------------------------------------------------------------

    #[test]
    fn wrapped_matrix_rows_land_in_row_order_globally() {
        // 3 processes write a 12-row matrix wrapped row-wise: process p
        // writes rows p, p+3, p+6, p+9. One row = one file block (4
        // records of 64 B = 256 B = 1 volume block).
        let v = vol(3);
        let org = Organization::InterleavedSeq { processes: 3 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        std::thread::scope(|s| {
            for p in 0..3u32 {
                let mut h = pf.interleaved_handle(p).unwrap();
                s.spawn(move || {
                    for local_row in 0..4u64 {
                        let row = u64::from(p) + local_row * 3;
                        for col in 0..4u64 {
                            let r = row * 4 + col;
                            assert_eq!(h.write_next(&rec(r, 64)).unwrap(), r);
                        }
                    }
                });
            }
        });
        assert_eq!(pf.len_records(), 48);
        // The global view sees rows 0,1,2,...,11 in order.
        let mut r = pf.global_reader();
        let mut buf = vec![0u8; 64];
        let mut idx = 0u64;
        while r.read_record(&mut buf).unwrap() {
            assert_eq!(buf, rec(idx, 64), "record {idx}");
            idx += 1;
        }
        assert_eq!(idx, 48);
    }

    #[test]
    fn read_back_is_strided() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        // Fill 6 file blocks (24 records) through the global view.
        let mut w = pf.global_writer();
        for i in 0..24u64 {
            w.write_record(&rec(i, 64)).unwrap();
        }
        w.finish().unwrap();
        // Process 1 must see blocks 1, 3, 5 → records 4..8, 12..16, 20..24.
        let mut h = pf.interleaved_handle(1).unwrap();
        let mut got = Vec::new();
        let mut buf = vec![0u8; 64];
        while let Some(idx) = h.read_next(&mut buf).unwrap() {
            assert_eq!(buf, rec(idx, 64), "record {idx}");
            got.push(idx);
        }
        let expected: Vec<u64> = (0..24).filter(|r| (r / 4) % 2 == 1).collect();
        assert_eq!(got, expected);
        let inside = |r| h.inside(r).is_ok();
        assert!(inside(5) && !inside(8) && !inside(3));
    }

    #[test]
    fn each_process_gets_private_device_when_counts_match() {
        let v = vol(3);
        let org = Organization::InterleavedSeq { processes: 3 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        // Write 9 file blocks from the 3 processes.
        for p in 0..3u32 {
            let mut h = pf.interleaved_handle(p).unwrap();
            for _ in 0..12 {
                h.write_next(&rec(u64::from(p), 64)).unwrap();
            }
        }
        // Process p's file blocks are p, p+3, ... -> layout unit=1 vblock
        // per file block, striped over 3 devices -> device p.
        let layout = pf.raw().layout();
        for fb in 0..9u64 {
            assert_eq!(layout.map(fb).device, (fb % 3) as usize);
        }
    }

    #[test]
    fn block_at_a_time_round_trip() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        // Writers emit whole blocks; readers consume whole blocks.
        for p in 0..2u32 {
            let mut h = pf.interleaved_handle(p).unwrap();
            for k in 0..5u64 {
                let first = (u64::from(p) + k * 2) * 4;
                let block: Vec<u8> = (0..4).flat_map(|c| rec(first + c, 64)).collect();
                assert_eq!(h.write_next_block(&block).unwrap(), first);
            }
        }
        assert_eq!(pf.len_records(), 40);
        for p in 0..2u32 {
            let mut h = pf.interleaved_handle(p).unwrap();
            let mut block = vec![0u8; 256];
            let mut k = 0u64;
            while let Some((first, n)) = h.read_next_block(&mut block).unwrap() {
                assert_eq!((first, n), ((u64::from(p) + k * 2) * 4, 4));
                for c in 0..4u64 {
                    assert_eq!(
                        &block[c as usize * 64..(c as usize + 1) * 64],
                        rec(first + c, 64).as_slice()
                    );
                }
                k += 1;
            }
            assert_eq!(k, 5);
        }
    }

    /// 10 records, 4 to a block, 2 slots: slot 0 owns records 0..4 and
    /// the short tail 8..10, and reads all six by block as by record.
    #[test]
    fn a_block_reader_sees_the_short_tail_block() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut w = pf.global_writer();
        for i in 0..10u64 {
            w.write_record(&rec(i, 64)).unwrap();
        }
        w.finish().unwrap();
        let mut h = pf.interleaved_handle(0).unwrap();
        let mut block = vec![0u8; 256];
        assert_eq!(h.read_next_block(&mut block).unwrap(), Some((0, 4)));
        assert_eq!(h.read_next_block(&mut block).unwrap(), Some((8, 2)));
        assert_eq!(block[..128], [rec(8, 64), rec(9, 64)].concat()[..]);
        assert_eq!(h.read_next_block(&mut block).unwrap(), None);
        let mut h = pf.interleaved_handle(0).unwrap();
        let mut buf = [0u8; 64];
        let by_record = std::iter::from_fn(|| h.read_next(&mut buf).unwrap()).count();
        assert_eq!(by_record, 6);
    }

    #[test]
    fn a_block_transfer_mid_block_is_refused_and_moves_nothing() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut h = pf.interleaved_handle(0).unwrap();
        h.write_next(&rec(0, 64)).unwrap();
        h.write_next(&rec(1, 64)).unwrap();
        h.seek(1);
        let refused = |e| matches!(e, Err(CoreError::BadGeometry(_)));
        assert!(refused(h.write_next_block(&[1; 256]).map(|_| ())));
        assert!(refused(h.read_next_block(&mut [0; 256]).map(|_| ())));
        assert_eq!((h.next_record(), pf.len_records()), (1, 2));
    }

    #[test]
    fn a_record_of_another_slot_is_refused_as_outside_the_view() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let h = pf.interleaved_handle(1).unwrap();
        let err = h.write_record(9, &rec(9, 64)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "record 9 lies outside the view [4, …), 4 records in every 8"
        );
        assert_eq!(pf.len_records(), 0);
    }

    #[test]
    fn a_cursor_past_every_index_reads_as_eof_and_refuses_writes() {
        let v = vol(4);
        let org = Organization::InterleavedSeq { processes: 4 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut h = pf.interleaved_handle(1).unwrap();
        h.seek(u64::MAX / 2);
        assert_eq!(h.next_record(), u64::MAX);
        let (mut one, mut block) = ([0u8; 64], [0u8; 256]);
        assert_eq!(h.read_next(&mut one).unwrap(), None);
        assert_eq!(h.read_next_block(&mut block).unwrap(), None);
        assert!(refused(h.write_next(&[1; 64])));
        assert!(refused(h.write_next_block(&[1; 256])));
        assert_eq!(pf.len_records(), 0);
    }

    #[test]
    fn a_block_whose_bytes_no_offset_addresses_is_refused() {
        let v = vol(4);
        let org = Organization::InterleavedSeq { processes: 4 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut h = pf.interleaved_handle(0).unwrap();
        let block: Vec<u8> = (0..4).flat_map(|r| rec(r, 64)).collect();
        assert_eq!(h.write_next_block(&block).unwrap(), 0);
        // Process 0's block 2^54 is file block 2^56: record 2^58, whose
        // byte offset 2^58 * 64 is 2^64.
        h.seek(1 << 56);
        assert_eq!(h.next_record(), 1 << 58);
        assert!(matches!(
            h.write_next_block(&[0xAA; 256]),
            Err(CoreError::Fs(FsError::OutOfBounds { .. }))
        ));
        assert_eq!(pf.len_records(), 4);
        let mut back = [0u8; 64];
        for r in 0..4 {
            pf.raw().read_record(r, &mut back).unwrap();
            assert_eq!(back[..], rec(r, 64)[..], "record {r}");
        }
    }

    #[test]
    fn seek_repositions() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut w = pf.global_writer();
        for i in 0..32u64 {
            w.write_record(&rec(i, 64)).unwrap();
        }
        w.finish().unwrap();
        let mut h = pf.interleaved_handle(0).unwrap();
        h.seek(8); // process 0's 3rd block = file block 4 = record 16
        assert_eq!(h.next_record(), 16);
        let mut buf = vec![0u8; 64];
        assert_eq!(h.read_next(&mut buf).unwrap(), Some(16));
        assert_eq!(buf, rec(16, 64));
    }
}
