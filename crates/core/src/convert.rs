//! Format conversion between organizations.
//!
//! The paper's third answer to view mismatch (§5): "supply conversion
//! utilities to copy from one format to the other, but this could be
//! expensive for large files." Both a sequential converter (through the
//! global views) and a parallel one (each thread copies a record range)
//! are provided, so experiment E9 can price the copy against the degraded
//! adapter view.

use pario_fs::{copy_global, Volume};

use crate::error::Result;
use crate::organization::Organization;
use crate::pfile::{for_each_run, partition_records, ParallelFile};

/// A new file `name` organized as `org`, with `src`'s records, record
/// size and block shape.
fn create_like(
    vol: &Volume,
    src: &ParallelFile,
    name: &str,
    org: Organization,
) -> Result<ParallelFile> {
    let (rs, rpb) = (src.record_size(), src.records_per_block());
    ParallelFile::create_sized(vol, name, org, rs, rpb, src.len_records())
}

/// Copy `src` into a brand-new file `dst_name` organized as `dst_org`,
/// sequentially through the global views. Returns the new file.
pub fn convert(
    vol: &Volume,
    src: &ParallelFile,
    dst_name: &str,
    dst_org: Organization,
) -> Result<ParallelFile> {
    let dst = create_like(vol, src, dst_name, dst_org)?;
    copy_global(src.raw(), dst.raw())?;
    Ok(dst)
}

/// Parallel conversion: `threads` workers each copy a contiguous range
/// of whole file blocks, a bounded run per call. Faster than
/// [`convert`] when source and destination placements give the workers
/// independent devices.
pub fn convert_parallel(
    vol: &Volume,
    src: &ParallelFile,
    dst_name: &str,
    dst_org: Organization,
    threads: u32,
) -> Result<ParallelFile> {
    assert!(threads >= 1);
    let total = src.len_records();
    let dst = create_like(vol, src, dst_name, dst_org)?;
    let rpb = src.records_per_block() as u64;
    let (from, to) = (src.raw(), dst.raw());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let (lo, hi) = partition_records(total, rpb, threads, t)?;
                    for_each_run(from, lo, hi, |r, run| Ok(to.write_records(r, run)?))
                })
            })
            .collect();
        workers
            .into_iter()
            // invariant: a worker panic is a bug in the converter itself; propagate it.
            .try_for_each(|w| w.join().expect("worker panicked"))
    })?;
    Ok(dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::{Volume, VolumeConfig};

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 1024,
            block_size: 256,
        })
        .unwrap()
    }

    fn rec(tag: u64) -> Vec<u8> {
        (0..64).map(|i| (tag as usize * 23 + i) as u8).collect()
    }

    fn ps_source(v: &Volume, n: u64) -> ParallelFile {
        let org = Organization::PartitionedSeq { partitions: 4 };
        let pf = ParallelFile::create_sized(v, "src", org, 64, 4, n).unwrap();
        for p in 0..4 {
            let mut h = pf.partition_handle(p).unwrap();
            let (lo, hi) = h.range();
            for g in lo..hi {
                h.write_next(&rec(g)).unwrap();
            }
        }
        pf
    }

    fn check(pf: &ParallelFile, n: u64) {
        let mut r = pf.global_reader();
        let mut buf = vec![0u8; 64];
        let mut i = 0u64;
        while r.read_record(&mut buf).unwrap() {
            assert_eq!(buf, rec(i), "record {i}");
            i += 1;
        }
        assert_eq!(i, n);
    }

    #[test]
    fn sequential_conversion_ps_to_is() {
        let v = vol();
        let src = ps_source(&v, 128);
        let dst = convert(
            &v,
            &src,
            "dst",
            Organization::InterleavedSeq { processes: 4 },
        )
        .unwrap();
        assert_eq!(
            dst.organization(),
            Organization::InterleavedSeq { processes: 4 }
        );
        check(&dst, 128);
        // Source untouched.
        check(&src, 128);
    }

    #[test]
    fn parallel_conversion_matches() {
        let v = vol();
        let src = ps_source(&v, 128);
        let dst = convert_parallel(
            &v,
            &src,
            "dst",
            Organization::PartitionedSeq { partitions: 4 },
            4,
        )
        .unwrap();
        check(&dst, 128);
        assert_eq!(dst.len_records(), 128);
    }

    /// Workers copy bounded runs: ranges many runs long convert exactly.
    #[test]
    fn parallel_conversion_spans_many_runs() {
        let v = vol();
        let src = ps_source(&v, 1101);
        let dst = convert_parallel(&v, &src, "dst", Organization::SelfScheduledSeq, 3).unwrap();
        check(&dst, 1101);
    }

    #[test]
    fn conversion_to_every_organization() {
        let v = vol();
        let src = ps_source(&v, 64);
        for (i, org) in [
            Organization::Sequential,
            Organization::SelfScheduledSeq,
            Organization::GlobalDirect,
            Organization::InterleavedSeq { processes: 2 },
            Organization::PartitionedSeq { partitions: 2 },
            Organization::PartitionedDirect { partitions: 2 },
        ]
        .into_iter()
        .enumerate()
        {
            let name = format!("dst{i}");
            let dst = convert(&v, &src, &name, org).unwrap();
            check(&dst, 64);
        }
    }
}
