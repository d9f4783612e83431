//! Partition-boundary (halo) data handling.
//!
//! "In many algorithms, data along partition boundaries is needed by
//! processes on both sides of the boundary" (§5). The paper sketches two
//! mechanisms, both provided here:
//!
//! * **Cache boundary data in memory** — [`read_partition_with_halo`]
//!   loads a process's partition *plus* `halo` records from each
//!   neighbour into one in-memory region, "helpful if more than one pass
//!   is made through the file".
//! * **Replicate boundary data in the file** — [`create_replicated`]
//!   builds a PS file in which each partition physically stores its halo
//!   records too, so every process's reads are purely local. The paper
//!   warns "this will cause difficulties for the global view … since
//!   there will be redundant data records"; [`ReplicatedBoundary::for_each_global`]
//!   is the de-duplicating global reader that restores a coherent view.

use pario_fs::{RawFile, Volume};
use pario_layout::LayoutSpec;

use crate::error::{CoreError, Result};
use crate::organization::Organization;
use crate::pfile::{file_block_vblocks, for_each_run, partition_records, ParallelFile};

/// An in-memory window: a partition's records plus halo from neighbours.
pub struct HaloRegion {
    data: Vec<u8>,
    record_size: usize,
    /// Global (source) index of the first record in `data`.
    first: u64,
    /// The partition's own global record range.
    own: (u64, u64),
}

impl HaloRegion {
    /// Read the window holding source records `held`, stored in `raw`
    /// from record `at` on, around the owned range `own`: one call.
    fn read(raw: &RawFile, at: u64, held: (u64, u64), own: (u64, u64)) -> Result<HaloRegion> {
        let record_size = raw.record_size();
        let mut data = vec![0u8; (held.1 - held.0) as usize * record_size];
        raw.read_records(at, &mut data)?;
        Ok(HaloRegion {
            data,
            record_size,
            first: held.0,
            own,
        })
    }

    /// Records held (own + halo).
    pub fn len_records(&self) -> u64 {
        (self.data.len() / self.record_size) as u64
    }

    /// Global index of the first held record.
    pub fn first_record(&self) -> u64 {
        self.first
    }

    /// The partition's own range (exclusive of halo).
    pub fn own_range(&self) -> (u64, u64) {
        self.own
    }

    /// Borrow the record with *global* index `idx` (must be held).
    pub fn record(&self, idx: u64) -> &[u8] {
        assert!(
            idx >= self.first && idx < self.first + self.len_records(),
            "record {idx} outside held range"
        );
        let off = (idx - self.first) as usize * self.record_size;
        &self.data[off..off + self.record_size]
    }
}

/// The owned range `own` widened by `halo` records each side, clamped to
/// the `total` records of the file.
fn with_halo(own: (u64, u64), halo: u64, total: u64) -> (u64, u64) {
    (own.0.saturating_sub(halo), (own.1 + halo).min(total))
}

/// Load partition `p` of a PS/PDA file into memory together with up to
/// `halo` records from each neighbouring partition.
pub fn read_partition_with_halo(pf: &ParallelFile, p: u32, halo: u64) -> Result<HaloRegion> {
    let own = pf.partition_record_range(p)?;
    let held = with_halo(own, halo, pf.len_records());
    HaloRegion::read(pf.raw(), held.0, held, own)
}

struct PartInfo {
    /// Stored source range (ownership extended by halo), clamped.
    held: (u64, u64),
    /// Owned source range.
    own: (u64, u64),
    /// Record index in the replicated file where this partition starts.
    stored_start: u64,
}

/// A PS file in which every partition physically stores its halo.
pub struct ReplicatedBoundary {
    pf: ParallelFile,
    parts: Vec<PartInfo>,
    src_total: u64,
}

/// Build a boundary-replicated PS copy of `src` with `partitions`
/// partitions and `halo` records replicated across each internal
/// boundary.
pub fn create_replicated(
    vol: &Volume,
    name: &str,
    src: &ParallelFile,
    partitions: u32,
    halo: u64,
) -> Result<ReplicatedBoundary> {
    let total = src.len_records();
    let rs = src.record_size();
    let rpb = src.records_per_block() as u64;
    let fbv = file_block_vblocks(rs, src.records_per_block(), vol.block_size())?;

    let mut parts = Vec::with_capacity(partitions as usize);
    let mut stored_start = 0u64;
    let mut vblock_bounds = vec![0u64];
    for p in 0..partitions {
        // Ownership: the split of a plain PS file.
        let own = partition_records(total, rpb, partitions, p)?;
        let held = with_halo(own, halo, total);
        parts.push(PartInfo {
            held,
            own,
            stored_start,
        });
        // Each partition starts on a file block of its own.
        stored_start += (held.1 - held.0).div_ceil(rpb) * rpb;
        vblock_bounds.push(stored_start / rpb * fbv);
    }
    let capacity = stored_start;

    let pf = ParallelFile::create_with_layout(
        vol,
        name,
        Organization::PartitionedSeq { partitions },
        rs,
        src.records_per_block(),
        LayoutSpec::Partitioned {
            bounds: vblock_bounds,
            devices: (partitions as usize).min(vol.num_devices()),
        },
        Some(capacity),
    )?;

    // Copy, halo records included (they are written twice — once per
    // neighbouring partition — which is the point).
    for part in &parts {
        for_each_run(src.raw(), part.held.0, part.held.1, |first, run| {
            let at = part.stored_start + (first - part.held.0);
            Ok(pf.raw().write_records(at, run)?)
        })?;
    }
    pf.raw().extend_len_records(capacity);

    Ok(ReplicatedBoundary {
        pf,
        parts,
        src_total: total,
    })
}

impl ReplicatedBoundary {
    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.parts.len() as u32
    }

    /// The underlying parallel file.
    pub fn inner(&self) -> &ParallelFile {
        &self.pf
    }

    /// Extra records stored relative to the source (replication +
    /// padding overhead).
    pub fn overhead_records(&self) -> u64 {
        self.pf.len_records() - self.src_total
    }

    /// Read partition `p`'s stored region — own records *and* halo — as
    /// one contiguous local read (no cross-partition traffic).
    pub fn read_partition(&self, p: u32) -> Result<HaloRegion> {
        let part = self.parts.get(p as usize).ok_or(CoreError::BadProcess {
            process: p,
            of: self.parts.len() as u32,
        })?;
        HaloRegion::read(self.pf.raw(), part.stored_start, part.held, part.own)
    }

    /// The de-duplicating global view: emits each *source* record exactly
    /// once, in source order, skipping halo replicas and padding.
    pub fn for_each_global(&self, mut f: impl FnMut(u64, &[u8])) -> Result<u64> {
        let rs = self.pf.record_size();
        for part in &self.parts {
            // Skip the left halo: source record `own.0` is stored at `from`.
            let from = part.stored_start + (part.own.0 - part.held.0);
            let to = from + (part.own.1 - part.own.0);
            for_each_run(self.pf.raw(), from, to, |at, run| {
                let src = part.own.0 + (at - from);
                for (i, rec) in run.chunks_exact(rs).enumerate() {
                    f(src + i as u64, rec);
                }
                Ok(())
            })?;
        }
        Ok(self.src_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::VolumeConfig;

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 1024,
            block_size: 256,
        })
        .unwrap()
    }

    fn rec(tag: u64) -> Vec<u8> {
        (0..64).map(|i| (tag as usize * 19 + i) as u8).collect()
    }

    fn ps_source(v: &Volume, n: u64, parts: u32) -> ParallelFile {
        let org = Organization::PartitionedSeq { partitions: parts };
        let pf = ParallelFile::create_sized(v, "src", org, 64, 4, n).unwrap();
        for p in 0..parts {
            let mut h = pf.partition_handle(p).unwrap();
            let (lo, hi) = h.range();
            for g in lo..hi {
                h.write_next(&rec(g)).unwrap();
            }
        }
        pf
    }

    #[test]
    fn halo_region_covers_neighbours() {
        let v = vol();
        let pf = ps_source(&v, 128, 4); // partitions of 32
        let region = read_partition_with_halo(&pf, 1, 3).unwrap();
        assert_eq!(region.own_range(), (32, 64));
        assert_eq!(region.first_record(), 29);
        assert_eq!(region.len_records(), 32 + 6);
        for idx in 29..67 {
            assert_eq!(region.record(idx), rec(idx).as_slice(), "record {idx}");
        }
    }

    #[test]
    fn halo_clamps_at_file_edges() {
        let v = vol();
        let pf = ps_source(&v, 128, 4);
        let first = read_partition_with_halo(&pf, 0, 5).unwrap();
        assert_eq!(first.first_record(), 0);
        assert_eq!(first.len_records(), 32 + 5);
        let last = read_partition_with_halo(&pf, 3, 5).unwrap();
        assert_eq!(last.first_record(), 96 - 5);
        assert_eq!(last.len_records(), 32 + 5);
    }

    #[test]
    fn stencil_via_halo_matches_sequential() {
        // 3-point mean over a partitioned file equals the sequential
        // computation — the correctness bar for any halo mechanism.
        let v = vol();
        let n = 128u64;
        let pf = ps_source(&v, n, 4);
        // Sequential reference over the global view.
        let mut vals = Vec::new();
        let mut r = pf.global_reader();
        let mut buf = vec![0u8; 64];
        while r.read_record(&mut buf).unwrap() {
            vals.push(u64::from(buf[0]));
        }
        let reference: Vec<u64> = (0..n as usize)
            .map(|i| {
                let l = if i == 0 { vals[0] } else { vals[i - 1] };
                let rr = if i + 1 == n as usize {
                    vals[i]
                } else {
                    vals[i + 1]
                };
                (l + vals[i] + rr) / 3
            })
            .collect();
        // Parallel: each partition computes with halo = 1.
        let mut parallel = vec![0u64; n as usize];
        for p in 0..4 {
            let region = read_partition_with_halo(&pf, p, 1).unwrap();
            let (lo, hi) = region.own_range();
            for i in lo..hi {
                let at = |j: u64| u64::from(region.record(j)[0]);
                let l = if i == 0 { at(0) } else { at(i - 1) };
                let rr = if i + 1 == n { at(i) } else { at(i + 1) };
                parallel[i as usize] = (l + at(i) + rr) / 3;
            }
        }
        assert_eq!(parallel, reference);
    }

    #[test]
    fn replicated_file_serves_local_halos() {
        let v = vol();
        let pf = ps_source(&v, 128, 4);
        let rep = create_replicated(&v, "rep", &pf, 4, 4).unwrap();
        assert_eq!(rep.partitions(), 4);
        // Middle partition: full halo on both sides, read locally.
        let region = rep.read_partition(2).unwrap();
        assert_eq!(region.own_range(), (64, 96));
        assert_eq!(region.first_record(), 60);
        for idx in 60..100 {
            assert_eq!(region.record(idx), rec(idx).as_slice(), "record {idx}");
        }
        // Replication costs extra storage.
        assert!(rep.overhead_records() >= 2 * 4 * 3 / 2);
    }

    #[test]
    fn dedup_global_view_restores_source_order() {
        let v = vol();
        let pf = ps_source(&v, 120, 3);
        let rep = create_replicated(&v, "rep", &pf, 3, 2).unwrap();
        let mut next = 0u64;
        let n = rep
            .for_each_global(|idx, bytes| {
                assert_eq!(idx, next, "order");
                assert_eq!(bytes, rec(idx).as_slice(), "record {idx}");
                next += 1;
            })
            .unwrap();
        assert_eq!(n, 120);
    }

    /// Copies and the global view move bounded runs: a file many runs
    /// long still replicates and replays exactly.
    #[test]
    fn replication_spans_many_runs() {
        let v = vol();
        let pf = ps_source(&v, 1101, 3);
        let rep = create_replicated(&v, "rep", &pf, 3, 5).unwrap();
        let region = rep.read_partition(1).unwrap();
        for idx in region.first_record()..region.first_record() + region.len_records() {
            assert_eq!(region.record(idx), rec(idx).as_slice(), "record {idx}");
        }
        let mut next = 0u64;
        let n = rep
            .for_each_global(|idx, bytes| {
                assert_eq!((idx, bytes), (next, rec(idx).as_slice()));
                next += 1;
            })
            .unwrap();
        assert_eq!(n, 1101);
    }

    #[test]
    fn zero_halo_replication_is_plain_ps() {
        let v = vol();
        let pf = ps_source(&v, 128, 4);
        let rep = create_replicated(&v, "rep", &pf, 4, 0).unwrap();
        assert_eq!(rep.overhead_records(), 0);
        let mut count = 0;
        rep.for_each_global(|_, _| count += 1).unwrap();
        assert_eq!(count, 128);
    }
}
