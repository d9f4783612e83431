//! Interleaved sequential access (type IS).
//!
//! "Processes use non-contiguous blocks of the file separated by a
//! constant stride. The stride would typically be the number of processes
//! accessing the file… This organization would be useful for wrapped
//! storage of a matrix" (§3.1). Process `p` of `P` owns file blocks
//! `p, p+P, p+2P, …`; with as many devices as processes, each process's
//! blocks land on a private device.

use pario_fs::RawFile;

use crate::error::{CoreError, Result};

/// Process `p`'s strided window onto an IS file.
pub struct InterleavedHandle {
    raw: RawFile,
    process: u32,
    stride: u32,
    /// Current file block (global index; always ≡ process mod stride).
    fb: u64,
    /// Record offset within the current file block.
    within: usize,
}

impl InterleavedHandle {
    pub(crate) fn new(raw: RawFile, process: u32, stride: u32) -> InterleavedHandle {
        InterleavedHandle {
            raw,
            process,
            stride,
            fb: u64::from(process),
            within: 0,
        }
    }

    /// This handle's process index.
    pub fn process(&self) -> u32 {
        self.process
    }

    /// The stride (number of cooperating processes).
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// Global record index the cursor points at: `u64::MAX`, which no
    /// record's bytes can occupy, once the cursor has passed every index.
    /// Such a cursor reads as end of file and refuses writes.
    pub fn current_record(&self) -> u64 {
        let rpb = self.raw.records_per_block() as u64;
        self.fb
            .saturating_mul(rpb)
            .saturating_add(self.within as u64)
    }

    /// Jump to the `k`-th block of *this process's* sequence (its local
    /// block index), record 0.
    pub fn seek_block(&mut self, k: u64) {
        let fb = k.saturating_mul(u64::from(self.stride));
        self.fb = fb.saturating_add(u64::from(self.process));
        self.within = 0;
    }

    fn next_block(&mut self) {
        self.fb = self.fb.saturating_add(u64::from(self.stride));
        self.within = 0;
    }

    fn advance(&mut self) {
        self.within += 1;
        if self.within == self.raw.records_per_block() {
            self.next_block();
        }
    }

    /// Refuse a block transfer while `read_next` / `write_next` have
    /// left the cursor inside a block.
    fn block_aligned(&self) -> Result<()> {
        match self.within {
            0 => Ok(()),
            k => Err(CoreError::BadGeometry(format!(
                "cursor at record {k} of block {}, not at a block start",
                self.fb
            ))),
        }
    }

    /// Read this process's next whole file block (all
    /// `records_per_block` records at once) into `out`. Returns the
    /// global file-block index, or `None` past end of file. The cursor
    /// must be block-aligned (it is unless `read_next` stopped
    /// mid-block); otherwise the read is refused.
    pub fn read_next_block(&mut self, out: &mut [u8]) -> Result<Option<u64>> {
        assert_eq!(out.len(), self.raw.file_block_bytes(), "block buffer size");
        self.block_aligned()?;
        let first = self.current_record();
        let rpb = self.raw.records_per_block() as u64;
        if first.saturating_add(rpb) > self.raw.len_records() {
            return Ok(None);
        }
        self.raw.read_records(first, out)?;
        let fb = self.fb;
        self.next_block();
        Ok(Some(fb))
    }

    /// Write this process's next whole file block from `out`, extending
    /// the file. Returns the global file-block index written. Refused,
    /// like [`read_next_block`](Self::read_next_block), with the cursor
    /// mid-block.
    pub fn write_next_block(&mut self, data: &[u8]) -> Result<u64> {
        assert_eq!(data.len(), self.raw.file_block_bytes(), "block buffer size");
        self.block_aligned()?;
        self.raw.write_records(self.current_record(), data)?;
        let fb = self.fb;
        self.next_block();
        Ok(fb)
    }

    /// Read the next record of this process's strided sequence. Returns
    /// `false` when the sequence passes the end of the file.
    pub fn read_next(&mut self, out: &mut [u8]) -> Result<bool> {
        let r = self.current_record();
        if r >= self.raw.len_records() {
            return Ok(false);
        }
        self.raw.read_record(r, out)?;
        self.advance();
        Ok(true)
    }

    /// Write the next record of this process's strided sequence,
    /// extending the file as needed.
    pub fn write_next(&mut self, data: &[u8]) -> Result<u64> {
        let r = self.current_record();
        self.raw.write_record(r, data)?;
        self.advance();
        Ok(r)
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
        (0..size).map(|i| (tag as usize * 17 + i) as u8).collect()
    }

    #[test]
    fn wrapped_matrix_rows_land_in_row_order_globally() {
        // 3 processes write a 12-row matrix wrapped row-wise: process p
        // writes rows p, p+3, p+6, p+9. One row = one file block (4
        // records of 64 B = 256 B = 1 volume block).
        let v = vol(3);
        let org = Organization::InterleavedSeq { processes: 3 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        crossbeam::thread::scope(|s| {
            for p in 0..3u32 {
                let mut h = pf.interleaved_handle(p).unwrap();
                s.spawn(move |_| {
                    for local_row in 0..4u64 {
                        let row = u64::from(p) + local_row * 3;
                        for col in 0..4u64 {
                            h.write_next(&rec(row * 4 + col, 64)).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
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
        loop {
            let idx = h.current_record();
            if !h.read_next(&mut buf).unwrap() {
                break;
            }
            assert_eq!(buf, rec(idx, 64), "record {idx}");
            got.push(idx);
        }
        let expected: Vec<u64> = (0..24).filter(|r| (r / 4) % 2 == 1).collect();
        assert_eq!(got, expected);
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
        // Device counters: each process's blocks went to one device only.
        // (Process p's file blocks are p, p+3, ... -> layout unit=1 vblock
        // per file block, striped over 3 devices -> device p.)
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
                let fb = u64::from(p) + k * 2;
                let mut block = Vec::new();
                for c in 0..4u64 {
                    block.extend_from_slice(&rec(fb * 4 + c, 64));
                }
                assert_eq!(h.write_next_block(&block).unwrap(), fb);
            }
        }
        assert_eq!(pf.len_records(), 40);
        for p in 0..2u32 {
            let mut h = pf.interleaved_handle(p).unwrap();
            let mut block = vec![0u8; 256];
            let mut k = 0u64;
            while let Some(fb) = h.read_next_block(&mut block).unwrap() {
                assert_eq!(fb, u64::from(p) + k * 2);
                for c in 0..4u64 {
                    assert_eq!(
                        &block[c as usize * 64..(c as usize + 1) * 64],
                        rec(fb * 4 + c, 64).as_slice()
                    );
                }
                k += 1;
            }
            assert_eq!(k, 5);
        }
    }

    #[test]
    fn a_block_transfer_mid_block_is_refused_and_moves_nothing() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut h = pf.interleaved_handle(0).unwrap();
        h.write_next(&rec(0, 64)).unwrap();
        let refused = |e| matches!(e, Err(CoreError::BadGeometry(_)));
        assert!(refused(h.write_next_block(&[1; 256]).map(|_| ())));
        assert!(refused(h.read_next_block(&mut [0; 256]).map(|_| ())));
        assert_eq!((h.current_record(), pf.len_records()), (1, 1));
    }

    #[test]
    fn a_cursor_past_every_index_reads_as_eof_and_refuses_writes() {
        let v = vol(4);
        let org = Organization::InterleavedSeq { processes: 4 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut h = pf.interleaved_handle(1).unwrap();
        h.seek_block(u64::MAX / 2);
        assert_eq!(h.current_record(), u64::MAX);
        let (mut rec, mut block) = ([0u8; 64], [0u8; 256]);
        assert!(!h.read_next(&mut rec).unwrap());
        assert_eq!(h.read_next_block(&mut block).unwrap(), None);
        let refused = |e| matches!(e, Err(CoreError::Fs(FsError::OutOfBounds { .. })));
        assert!(refused(h.write_next(&[1; 64]).map(|_| ())));
        assert!(refused(h.write_next_block(&[1; 256]).map(|_| ())));
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
        h.seek_block(1 << 54);
        assert_eq!(h.current_record(), 1 << 58);
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
    fn seek_block_repositions() {
        let v = vol(2);
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "m", org, 64, 4).unwrap();
        let mut w = pf.global_writer();
        for i in 0..32u64 {
            w.write_record(&rec(i, 64)).unwrap();
        }
        w.finish().unwrap();
        let mut h = pf.interleaved_handle(0).unwrap();
        h.seek_block(2); // process 0's 3rd block = file block 4 = record 16
        assert_eq!(h.current_record(), 16);
        let mut buf = vec![0u8; 64];
        assert!(h.read_next(&mut buf).unwrap());
        assert_eq!(buf, rec(16, 64));
    }
}
