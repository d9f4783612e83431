//! Forcing alternate internal views (the paper's §5 "problem areas").
//!
//! "A serious mismatch occurs, for example, if a file created with a PS
//! organization needs to be read later with an IS format. One alternative
//! would be to … provide a software interface to present the alternate
//! view when needed, but with degraded performance." These functions are
//! that software interface: they construct any organization's handle over
//! any file, bypassing the organization check. Correctness is preserved
//! (all handles go through record-index arithmetic and the file's real
//! layout); what degrades is access *locality* — an IS view over a PS
//! placement hops around inside partitions instead of streaming.

use crate::direct::DirectHandle;
use crate::error::{CoreError, Result};
use crate::interleaved::InterleavedHandle;
use crate::partitioned::PartitionHandle;
use crate::pfile::{uniform_bounds, ParallelFile};
use crate::selfsched::SelfSchedReader;

/// View any file through an interleaved (IS) access pattern for process
/// `p` of `processes`, regardless of its organization.
pub fn force_interleaved(pf: &ParallelFile, p: u32, processes: u32) -> Result<InterleavedHandle> {
    if p >= processes || processes == 0 {
        return Err(CoreError::BadProcess {
            process: p,
            of: processes,
        });
    }
    Ok(InterleavedHandle::new(pf.raw().clone(), p, processes))
}

/// View any file through a partitioned (PS) access pattern: near-equal
/// contiguous record ranges over the *current* file length.
pub fn force_partition(pf: &ParallelFile, p: u32, partitions: u32) -> Result<PartitionHandle> {
    if p >= partitions || partitions == 0 {
        return Err(CoreError::BadProcess {
            process: p,
            of: partitions,
        });
    }
    let rpb = pf.records_per_block() as u64;
    let total = pf.len_records();
    let file_blocks = total.div_ceil(rpb);
    let bounds = uniform_bounds(file_blocks, partitions);
    let lo = (bounds[p as usize] * rpb).min(total);
    let hi = (bounds[p as usize + 1] * rpb).min(total);
    Ok(PartitionHandle::new(pf.raw().clone(), p, lo, hi))
}

/// View any file through a self-scheduled reader: cooperating handles
/// (clones of `pf` and of the returned reader) share one cursor and
/// consume the records exhaustively, exactly once, in arrival order —
/// regardless of how the file was organized when written.
pub fn force_self_sched(pf: &ParallelFile) -> SelfSchedReader {
    SelfSchedReader::new(pf.clone())
}

/// View any file through unrestricted direct access (a GDA handle).
pub fn force_direct(pf: &ParallelFile) -> DirectHandle {
    DirectHandle::new(pf.raw().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Organization;
    use pario_fs::{Volume, VolumeConfig};

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 512,
            block_size: 256,
        })
        .unwrap()
    }

    fn rec(tag: u64) -> Vec<u8> {
        (0..64).map(|i| (tag as usize * 11 + i) as u8).collect()
    }

    /// Write a PS file, read it back with an IS view — the §5 mismatch.
    #[test]
    fn is_view_over_ps_file_sees_every_record_once() {
        let v = vol();
        let org = Organization::PartitionedSeq { partitions: 4 };
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 128).unwrap();
        for p in 0..4 {
            let mut h = pf.partition_handle(p).unwrap();
            let (lo, hi) = h.range();
            for g in lo..hi {
                h.write_next(&rec(g)).unwrap();
            }
        }
        // Now three "IS processes" read it with stride 3.
        let mut seen = [false; 128];
        for p in 0..3 {
            let mut h = force_interleaved(&pf, p, 3).unwrap();
            let mut buf = vec![0u8; 64];
            loop {
                let idx = h.current_record();
                if !h.read_next(&mut buf).unwrap() {
                    break;
                }
                assert_eq!(buf, rec(idx), "record {idx}");
                assert!(!seen[idx as usize], "record {idx} seen twice");
                seen[idx as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every record seen");
    }

    /// Write through IS, read back with a PS view.
    #[test]
    fn ps_view_over_is_file() {
        let v = vol();
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "is", org, 64, 4).unwrap();
        for p in 0..2 {
            let mut h = pf.interleaved_handle(p).unwrap();
            for k in 0..8u64 {
                let base = (u64::from(p) + k * 2) * 4;
                for c in 0..4u64 {
                    h.write_next(&rec(base + c)).unwrap();
                }
            }
        }
        assert_eq!(pf.len_records(), 64);
        let mut seen = 0u64;
        for p in 0..2 {
            let mut h = force_partition(&pf, p, 2).unwrap();
            assert_eq!(h.len(), 32);
            let mut buf = vec![0u8; 64];
            let (lo, _) = h.range();
            let mut local = 0u64;
            while h.read_next(&mut buf).unwrap() {
                assert_eq!(buf, rec(lo + local));
                local += 1;
                seen += 1;
            }
        }
        assert_eq!(seen, 64);
    }

    #[test]
    fn ss_view_over_ps_file_drains_exactly_once() {
        let v = vol();
        let org = Organization::PartitionedSeq { partitions: 4 };
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 64).unwrap();
        for p in 0..4 {
            let mut h = pf.partition_handle(p).unwrap();
            let (lo, hi) = h.range();
            for g in lo..hi {
                h.write_next(&rec(g)).unwrap();
            }
        }
        // A later program phase consumes it as a work queue.
        let readers: Vec<_> = (0..3).map(|_| force_self_sched(&pf)).collect();
        let mut seen = [false; 64];
        let mut buf = vec![0u8; 64];
        let mut turn = 0;
        while let Some(idx) = readers[turn % 3].read_next(&mut buf).unwrap() {
            assert_eq!(buf, rec(idx));
            assert!(!std::mem::replace(&mut seen[idx as usize], true));
            turn += 1;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn direct_view_over_is_file() {
        let v = vol();
        let org = Organization::InterleavedSeq { processes: 2 };
        let pf = ParallelFile::create(&v, "is", org, 64, 4).unwrap();
        let mut w = pf.global_writer();
        for i in 0..32u64 {
            w.write_record(&rec(i)).unwrap();
        }
        w.finish().unwrap();
        let h = force_direct(&pf);
        let mut buf = vec![0u8; 64];
        for idx in [31u64, 0, 17, 8] {
            h.read_record(idx, &mut buf).unwrap();
            assert_eq!(buf, rec(idx));
        }
        h.write_record(40, &rec(40)).unwrap();
        assert_eq!(pf.len_records(), 41);
    }

    #[test]
    fn forced_view_validates_process_index() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 64, 4).unwrap();
        assert!(force_interleaved(&pf, 3, 3).is_err());
        assert!(force_partition(&pf, 9, 4).is_err());
    }
}
