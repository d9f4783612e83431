//! Self-scheduled sequential access (type SS).
//!
//! "Each I/O request (from whatever process) is guaranteed to reference
//! the next record in the file so that each request accesses a different
//! record and no record gets skipped" (§3.1). The implementation is the
//! paper's §4 two-phase design: the file pointer is adjusted *early in
//! the I/O call* with an atomic reservation, "thereby allowing the next
//! call from another process to proceed before the actual data transfer
//! from the first call has completed". The transfer happens outside any
//! lock. (Experiment E3 measures that against a lock held across the
//! whole call, built in `crates/bench` from public pieces.)

use std::sync::atomic::Ordering;

use pario_check::AtomicU64;

use crate::error::Result;
use crate::pfile::ParallelFile;

/// The shared self-scheduling cursor: the paper's §3 "file pointer"
/// that hands each request the globally next index, extracted as a
/// standalone primitive so other layers (in-process readers here, the
/// `pario-server` service layer across client sessions) reuse the same
/// two-phase reservation protocol.
///
/// Phase 1 is the atomic claim (`claim*`); phase 2 — the data transfer —
/// happens entirely outside the cursor, so claims from other parties
/// proceed concurrently with transfers.
pub struct SharedCursor {
    pos: AtomicU64,
}

impl SharedCursor {
    /// A cursor starting at `start`.
    pub fn new(start: u64) -> SharedCursor {
        SharedCursor {
            pos: AtomicU64::new(start),
        }
    }

    /// Indices claimed so far.
    pub fn position(&self) -> u64 {
        self.pos.load(Ordering::Acquire)
    }

    /// Two-phase reservation: claim the next index, provided it is below
    /// `limit`. CAS (not `fetch_add`) so the cursor never runs past the
    /// end of file. `None` once exhausted.
    pub fn claim(&self, limit: u64) -> Option<u64> {
        loop {
            let cur = self.pos.load(Ordering::Acquire);
            if cur >= limit {
                return None;
            }
            if self
                .pos
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(cur);
            }
        }
    }

    /// Claim every index from the current position to the end of its
    /// `stride`-aligned block (capped at `limit`) in one reservation —
    /// the paper's "self-scheduling by block". Returns the first index
    /// claimed and the count (`1..=stride`), or `None` once exhausted.
    /// Claims stay block-aligned even after single-index claims.
    pub fn claim_through_block(&self, stride: u64, limit: u64) -> Option<(u64, u64)> {
        assert!(stride > 0, "stride must be positive");
        loop {
            let cur = self.pos.load(Ordering::Acquire);
            if cur >= limit {
                return None;
            }
            let next = (((cur / stride) + 1) * stride).min(limit);
            if self
                .pos
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((cur, next - cur));
            }
        }
    }

    /// Claim the next index unconditionally (writers can always extend).
    pub fn claim_unbounded(&self) -> u64 {
        self.pos.fetch_add(1, Ordering::AcqRel)
    }
}

/// A shared-cursor reader; clones (and clones of the owning
/// [`ParallelFile`]) share the cursor.
#[derive(Clone)]
pub struct SelfSchedReader {
    owner: ParallelFile,
}

impl SelfSchedReader {
    pub(crate) fn new(owner: ParallelFile) -> SelfSchedReader {
        SelfSchedReader { owner }
    }

    /// Claim and read the next unread record. Returns the record index
    /// served, or `None` once the file is exhausted.
    pub fn read_next(&self, out: &mut [u8]) -> Result<Option<u64>> {
        let ss = self.owner.ss_state();
        // Phase 1: reserve the record index.
        let Some(cur) = ss.read_cursor.claim(self.owner.raw().len_records()) else {
            return Ok(None);
        };
        // Phase 2: transfer, concurrently with other readers.
        self.owner.raw().read_record(cur, out)?;
        Ok(Some(cur))
    }

    /// Claim and read the next *file block* of records — the paper's
    /// "self-scheduling by block for multi-record blocks". Claims up to
    /// `records_per_block` records in one cursor operation (fewer at the
    /// end of file) and reads them into `out`, which must hold one file
    /// block. Returns the global index of the first record claimed and
    /// the count, or `None` at end of file.
    pub fn read_next_block(&self, out: &mut [u8]) -> Result<Option<(u64, usize)>> {
        let rs = self.owner.raw().record_size();
        let rpb = self.owner.raw().records_per_block() as u64;
        assert_eq!(out.len(), rs * rpb as usize, "block buffer size");
        let ss = self.owner.ss_state();
        // Claim to the end of the current file block (keeps block claims
        // aligned even after single-record claims).
        let Some((cur, n)) = ss
            .read_cursor
            .claim_through_block(rpb, self.owner.raw().len_records())
        else {
            return Ok(None);
        };
        let n = n as usize;
        self.owner
            .raw()
            .read_span(cur * rs as u64, &mut out[..n * rs])?;
        Ok(Some((cur, n)))
    }

    /// Records already claimed.
    pub fn claimed(&self) -> u64 {
        self.owner.ss_state().read_cursor.position()
    }
}

/// A shared-cursor writer: "self-scheduled output can be used when the
/// order of the results is not important".
#[derive(Clone)]
pub struct SelfSchedWriter {
    owner: ParallelFile,
}

impl SelfSchedWriter {
    pub(crate) fn new(owner: ParallelFile) -> SelfSchedWriter {
        SelfSchedWriter { owner }
    }

    /// Claim the next record slot and write `data` there. Returns the
    /// slot index.
    pub fn write_next(&self, data: &[u8]) -> Result<u64> {
        // Phase 1: reserve the slot (writers can always extend).
        let idx = self.owner.ss_state().write_cursor.claim_unbounded();
        // Phase 2: transfer outside any lock. write_record extends
        // the published length to cover the slot.
        self.owner.raw().write_record(idx, data)?;
        Ok(idx)
    }

    /// Slots claimed so far (the file length once all writers finish).
    pub fn claimed(&self) -> u64 {
        self.owner.ss_state().write_cursor.position()
    }

    /// Publish the final length (all claimed slots) — call after every
    /// writer is done.
    pub fn finish(&self) -> Result<u64> {
        let n = self.claimed();
        self.owner.raw().extend_len_records(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use pario_fs::{Volume, VolumeConfig};
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    fn ss_file(v: &Volume, n: u64) -> ParallelFile {
        let pf = ParallelFile::create(v, "ss", Organization::SelfScheduledSeq, 64, 4).unwrap();
        let w = pf.self_sched_writer().unwrap();
        for i in 0..n {
            w.write_next(&[i as u8; 64]).unwrap();
        }
        w.finish().unwrap();
        pf
    }

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 512,
            block_size: 256,
        })
        .unwrap()
    }

    #[test]
    fn single_reader_sees_everything_in_order() {
        let v = vol();
        let pf = ss_file(&v, 20);
        let r = pf.self_sched_reader().unwrap();
        let mut buf = vec![0u8; 64];
        for i in 0..20u64 {
            assert_eq!(r.read_next(&mut buf).unwrap(), Some(i));
            assert!(buf.iter().all(|&b| b == i as u8));
        }
        assert_eq!(r.read_next(&mut buf).unwrap(), None);
        assert_eq!(r.claimed(), 20);
    }

    #[test]
    fn concurrent_readers_cover_exactly_once() {
        let v = vol();
        let pf = ss_file(&v, 200);
        let seen = StdMutex::new(HashSet::new());
        crossbeam::thread::scope(|s| {
            for _ in 0..8 {
                let r = pf.self_sched_reader().unwrap();
                let seen = &seen;
                s.spawn(move |_| {
                    let mut buf = vec![0u8; 64];
                    while let Some(idx) = r.read_next(&mut buf).unwrap() {
                        // Record content matches its index.
                        assert!(buf.iter().all(|&b| b == idx as u8));
                        assert!(
                            seen.lock().unwrap().insert(idx),
                            "record {idx} served twice"
                        );
                    }
                });
            }
        })
        .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 200, "every record served");
    }

    #[test]
    fn concurrent_writers_fill_distinct_slots() {
        let v = vol();
        let pf = ParallelFile::create(&v, "out", Organization::SelfScheduledSeq, 64, 4).unwrap();
        crossbeam::thread::scope(|s| {
            for t in 0..6u8 {
                let w = pf.self_sched_writer().unwrap();
                s.spawn(move |_| {
                    for _ in 0..25 {
                        // Slot content is the writer id: uniqueness of
                        // slots is what we assert below.
                        w.write_next(&[t + 1; 64]).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let w = pf.self_sched_writer().unwrap();
        assert_eq!(w.finish().unwrap(), 150);
        assert_eq!(pf.len_records(), 150);
        // Every slot was written by exactly one writer: all bytes of a
        // record agree and no record is zero (unwritten).
        let mut r = pf.global_reader();
        let mut rec = vec![0u8; 64];
        let mut count_per_writer = [0u64; 7];
        while r.read_record(&mut rec).unwrap() {
            let tag = rec[0];
            assert!((1..=6).contains(&tag), "hole or torn record");
            assert!(rec.iter().all(|&b| b == tag), "torn record");
            count_per_writer[tag as usize] += 1;
        }
        assert_eq!(count_per_writer[1..].iter().sum::<u64>(), 150);
        assert!(count_per_writer[1..].iter().all(|&c| c == 25));
    }

    #[test]
    fn block_claims_cover_exactly_once() {
        let v = vol();
        let pf = ss_file(&v, 42); // 42 records, 4 per block: short tail
        let seen = StdMutex::new(HashSet::new());
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let r = pf.self_sched_reader().unwrap();
                let seen = &seen;
                s.spawn(move |_| {
                    let mut block = vec![0u8; 64 * 4];
                    while let Some((first, n)) = r.read_next_block(&mut block).unwrap() {
                        assert!((1..=4).contains(&n));
                        for k in 0..n {
                            let rec = &block[k * 64..(k + 1) * 64];
                            let idx = first + k as u64;
                            assert!(rec.iter().all(|&b| b == idx as u8), "record {idx}");
                            assert!(seen.lock().unwrap().insert(idx), "dup {idx}");
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(seen.into_inner().unwrap().len(), 42);
    }

    #[test]
    fn record_and_block_claims_interleave() {
        let v = vol();
        let pf = ss_file(&v, 10); // blocks of 4: records 0..10
        let r = pf.self_sched_reader().unwrap();
        let mut rec = vec![0u8; 64];
        let mut block = vec![0u8; 256];
        // Single claim takes record 0; block claim then takes 1..4 (to
        // the block boundary), then 4..8, then 8..10 (short tail).
        assert_eq!(r.read_next(&mut rec).unwrap(), Some(0));
        assert_eq!(r.read_next_block(&mut block).unwrap(), Some((1, 3)));
        assert_eq!(r.read_next_block(&mut block).unwrap(), Some((4, 4)));
        assert_eq!(r.read_next_block(&mut block).unwrap(), Some((8, 2)));
        assert_eq!(r.read_next_block(&mut block).unwrap(), None);
        assert_eq!(r.read_next(&mut rec).unwrap(), None);
    }

    #[test]
    fn cursor_shared_across_clones() {
        let v = vol();
        let pf = ss_file(&v, 10);
        let r1 = pf.self_sched_reader().unwrap();
        let pf2 = pf.clone();
        let r2 = pf2.self_sched_reader().unwrap();
        let mut buf = vec![0u8; 64];
        assert_eq!(r1.read_next(&mut buf).unwrap(), Some(0));
        assert_eq!(r2.read_next(&mut buf).unwrap(), Some(1));
        assert_eq!(r1.read_next(&mut buf).unwrap(), Some(2));
    }

    #[test]
    fn reopened_file_restarts_cursor() {
        let v = vol();
        let pf = ss_file(&v, 5);
        let r = pf.self_sched_reader().unwrap();
        let mut buf = vec![0u8; 64];
        r.read_next(&mut buf).unwrap();
        // A separately opened handle is a new "program run": fresh cursor.
        let pf2 = ParallelFile::open(&v, "ss").unwrap();
        let r2 = pf2.self_sched_reader().unwrap();
        assert_eq!(r2.read_next(&mut buf).unwrap(), Some(0));
    }
}
