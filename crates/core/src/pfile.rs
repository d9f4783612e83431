//! `ParallelFile`: a file plus its organization, and the factory for
//! internal-view handles.

use std::sync::Arc;

use pario_fs::{FileSpec, GlobalReader, GlobalWriter, RawFile, Volume};
use pario_layout::{uniform_bounds, LayoutSpec};

use crate::direct::DirectHandle;
use crate::error::{CoreError, Result};
use crate::organization::Organization;
use crate::selfsched::{SelfSchedReader, SelfSchedWriter, SharedCursor};
use crate::strided::ProcessView;

/// Shared self-scheduling state: one read cursor, one write cursor.
pub(crate) struct SsState {
    pub(crate) read_cursor: SharedCursor,
    pub(crate) write_cursor: SharedCursor,
}

/// A parallel file: underlying storage plus the organization that governs
/// its internal views. Cheap to clone; clones share self-scheduling state.
#[derive(Clone)]
pub struct ParallelFile {
    raw: RawFile,
    org: Organization,
    ss: Arc<SsState>,
}

/// File-block geometry: volume blocks per file block, enforcing the
/// alignment contract (`record_size * records_per_block` must be a
/// positive multiple of the volume block size for the partitioned and
/// interleaved organizations, so partition boundaries land on device
/// boundaries).
pub(crate) fn file_block_vblocks(
    record_size: usize,
    records_per_block: usize,
    block_size: usize,
) -> Result<u64> {
    let fb = record_size * records_per_block;
    if fb == 0 || !fb.is_multiple_of(block_size) {
        return Err(CoreError::BadGeometry(format!(
            "file block ({record_size} B x {records_per_block} records = {fb} B) \
             must be a positive multiple of the {block_size}-byte volume block"
        )));
    }
    Ok((fb / block_size) as u64)
}

/// Partition `p`'s record range `[lo, hi)` when `total` records, in
/// file blocks of `rpb`, are split into `parts` near-equal runs of whole
/// file blocks. Both ends clamp to `total`: with more partitions than
/// file blocks the trailing ones are empty, and the partition holding a
/// short tail block ends at `total`.
pub(crate) fn partition_records(total: u64, rpb: u64, parts: u32, p: u32) -> Result<(u64, u64)> {
    if p >= parts {
        return Err(CoreError::BadProcess {
            process: p,
            of: parts,
        });
    }
    let bounds = uniform_bounds(total.div_ceil(rpb), parts as usize);
    let at = |i: u32| (bounds[i as usize] * rpb).min(total);
    Ok((at(p), at(p + 1)))
}

/// Bulk transfers move at most this many file blocks per call, so a copy
/// of any size holds a bounded buffer.
const RUN_BLOCKS: u64 = 64;

/// Read records `[lo, hi)` of `raw` in runs of at most [`RUN_BLOCKS`]
/// file blocks, one [`RawFile::read_records`] each, handing `f` each
/// run's first record and bytes.
pub(crate) fn for_each_run(
    raw: &RawFile,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, &[u8]) -> Result<()>,
) -> Result<()> {
    let run = RUN_BLOCKS * raw.records_per_block() as u64;
    let mut buf = vec![0u8; (hi - lo).min(run) as usize * raw.record_size()];
    for first in (lo..hi).step_by(run as usize) {
        let n = (hi - first).min(run) as usize;
        let bytes = &mut buf[..n * raw.record_size()];
        raw.read_records(first, bytes)?;
        f(first, bytes)?;
    }
    Ok(())
}

impl ParallelFile {
    fn wrap(raw: RawFile, org: Organization) -> ParallelFile {
        let write_cursor = SharedCursor::new(raw.len_records());
        ParallelFile {
            raw,
            org,
            ss: Arc::new(SsState {
                read_cursor: SharedCursor::new(0),
                write_cursor,
            }),
        }
    }

    /// The default placement for an organization, per the paper's §4
    /// implementation strategies.
    fn default_layout(
        vol: &Volume,
        org: Organization,
        record_size: usize,
        records_per_block: usize,
        total_records: Option<u64>,
    ) -> Result<LayoutSpec> {
        let devices = vol.num_devices();
        let bs = vol.block_size();
        match org {
            // S and SS stream bytes: plain striping maximises transfer
            // rate. GDA favours declustering (unit 1) for non-uniform
            // access, per Livny et al.
            Organization::Sequential
            | Organization::SelfScheduledSeq
            | Organization::GlobalDirect => Ok(LayoutSpec::Striped { devices, unit: 1 }),
            // IS interleaves whole file blocks across the devices.
            Organization::InterleavedSeq { .. } => {
                let unit = file_block_vblocks(record_size, records_per_block, bs)?;
                Ok(LayoutSpec::Striped { devices, unit })
            }
            // PS/PDA: contiguous partitions, device per partition when
            // possible, stacked round-robin otherwise.
            Organization::PartitionedSeq { partitions }
            | Organization::PartitionedDirect { partitions } => {
                let total = total_records.ok_or_else(|| {
                    CoreError::BadGeometry(
                        "partitioned organizations need a total size at creation".into(),
                    )
                })?;
                let fbv = file_block_vblocks(record_size, records_per_block, bs)?;
                let rpb = records_per_block as u64;
                let mut bounds = vec![0];
                for p in 0..partitions {
                    let (_, hi) = partition_records(total, rpb, partitions, p)?;
                    bounds.push(hi.div_ceil(rpb) * fbv);
                }
                Ok(LayoutSpec::Partitioned {
                    bounds,
                    devices: (partitions as usize).min(devices),
                })
            }
        }
    }

    /// Create a growable parallel file. Partitioned organizations (PS,
    /// PDA) must use [`ParallelFile::create_sized`] instead.
    pub fn create(
        vol: &Volume,
        name: &str,
        org: Organization,
        record_size: usize,
        records_per_block: usize,
    ) -> Result<ParallelFile> {
        if org.is_fixed_size() {
            return Err(CoreError::BadGeometry(format!(
                "{org} files are sized at creation; use create_sized"
            )));
        }
        let layout = Self::default_layout(vol, org, record_size, records_per_block, None)?;
        let spec = FileSpec::new(name, record_size, records_per_block, layout).org(&org.tag());
        Ok(Self::wrap(vol.create_file(spec)?, org))
    }

    /// Create a parallel file holding exactly `total_records` records
    /// (preallocated; mandatory for PS and PDA).
    pub fn create_sized(
        vol: &Volume,
        name: &str,
        org: Organization,
        record_size: usize,
        records_per_block: usize,
        total_records: u64,
    ) -> Result<ParallelFile> {
        let layout = Self::default_layout(
            vol,
            org,
            record_size,
            records_per_block,
            Some(total_records),
        )?;
        let mut spec = FileSpec::new(name, record_size, records_per_block, layout).org(&org.tag());
        if org.is_fixed_size() {
            spec = spec.fixed_capacity(total_records);
        } else {
            spec = spec.initial_records(total_records);
        }
        Ok(Self::wrap(vol.create_file(spec)?, org))
    }

    /// Create with an explicit placement (parity protection, shadowing,
    /// custom stripe units, hand-built partition bounds).
    pub fn create_with_layout(
        vol: &Volume,
        name: &str,
        org: Organization,
        record_size: usize,
        records_per_block: usize,
        layout: LayoutSpec,
        fixed_capacity: Option<u64>,
    ) -> Result<ParallelFile> {
        let mut spec = FileSpec::new(name, record_size, records_per_block, layout).org(&org.tag());
        if let Some(cap) = fixed_capacity {
            spec = spec.fixed_capacity(cap);
        }
        Ok(Self::wrap(vol.create_file(spec)?, org))
    }

    /// Open an existing parallel file, recovering its organization from
    /// the metadata tag.
    pub fn open(vol: &Volume, name: &str) -> Result<ParallelFile> {
        let raw = vol.open(name)?;
        let tag = raw.org();
        let org = Organization::from_tag(&tag).ok_or(CoreError::BadTag(tag))?;
        Ok(Self::wrap(raw, org))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The organization.
    pub fn organization(&self) -> Organization {
        self.org
    }

    /// The underlying file (for global-view utilities and experiments).
    pub fn raw(&self) -> &RawFile {
        &self.raw
    }

    /// Current length in records.
    pub fn len_records(&self) -> u64 {
        self.raw.len_records()
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.raw.record_size()
    }

    /// Records per file block.
    pub fn records_per_block(&self) -> usize {
        self.raw.records_per_block()
    }

    pub(crate) fn ss_state(&self) -> &Arc<SsState> {
        &self.ss
    }

    /// The record range `[start, end)` owned by partition `p`: the
    /// near-equal split of whole file blocks used at creation.
    pub fn partition_record_range(&self, p: u32) -> Result<(u64, u64)> {
        let partitions = match self.org {
            Organization::PartitionedSeq { partitions }
            | Organization::PartitionedDirect { partitions } => partitions,
            _ => {
                return Err(CoreError::WrongOrganization {
                    expected: "PS or PDA",
                    actual: self.org,
                })
            }
        };
        let total = self
            .raw
            .fixed_capacity_records()
            // invariant: partitioned specs are validated fixed-size at creation.
            .expect("partitioned files are fixed-size");
        let rpb = self.records_per_block() as u64;
        partition_records(total, rpb, partitions, p)
    }

    // ------------------------------------------------------------------
    // Internal and global views
    // ------------------------------------------------------------------

    /// The global view, for sequential consumers (always available,
    /// regardless of organization — the paper's "standard file" property),
    /// and the internal view of a type-S file: one process streams,
    /// striping provides the rate, and the stream reads ahead.
    pub fn global_reader(&self) -> GlobalReader {
        GlobalReader::new(self.raw.clone())
    }

    /// Append through the global view, writing behind.
    pub fn global_writer(&self) -> GlobalWriter {
        GlobalWriter::append(self.raw.clone())
    }

    /// Partition `p`'s view of a PS or PDA file.
    pub fn partition_handle(&self, p: u32) -> Result<ProcessView> {
        let (lo, hi) = self.partition_record_range(p)?;
        Ok(ProcessView::partition(self.raw.clone(), lo, hi))
    }

    /// Slot `p`'s view of an IS file.
    pub fn interleaved_handle(&self, p: u32) -> Result<ProcessView> {
        match self.org {
            Organization::InterleavedSeq { processes } => {
                ProcessView::interleaved(self.raw.clone(), p, processes)
            }
            _ => Err(CoreError::WrongOrganization {
                expected: "IS",
                actual: self.org,
            }),
        }
    }

    fn require_ss(&self) -> Result<()> {
        if self.org != Organization::SelfScheduledSeq {
            return Err(CoreError::WrongOrganization {
                expected: "SS",
                actual: self.org,
            });
        }
        Ok(())
    }

    /// A two-phase self-scheduled reader (reserve the cursor atomically,
    /// transfer outside any lock). Clones of this file share the cursor.
    pub fn self_sched_reader(&self) -> Result<SelfSchedReader> {
        self.require_ss()?;
        Ok(SelfSchedReader::new(self.clone()))
    }

    /// A two-phase self-scheduled writer.
    pub fn self_sched_writer(&self) -> Result<SelfSchedWriter> {
        self.require_ss()?;
        Ok(SelfSchedWriter::new(self.clone()))
    }

    /// Direct-access handle for a GDA file (any record, any order, any
    /// process — handles are `Clone + Send`).
    pub fn direct_handle(&self) -> Result<DirectHandle> {
        if self.org != Organization::GlobalDirect {
            return Err(CoreError::WrongOrganization {
                expected: "GDA",
                actual: self.org,
            });
        }
        Ok(DirectHandle::new(self.raw.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_fs::VolumeConfig;

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: 256,
        })
        .unwrap()
    }

    #[test]
    fn file_block_alignment_enforced() {
        assert_eq!(file_block_vblocks(64, 4, 256).unwrap(), 1);
        assert_eq!(file_block_vblocks(64, 8, 256).unwrap(), 2);
        assert!(file_block_vblocks(100, 4, 256).is_err());
        assert!(file_block_vblocks(64, 0, 256).is_err());
    }

    #[test]
    fn create_and_reopen_preserves_organization() {
        let v = vol();
        for org in [
            Organization::Sequential,
            Organization::SelfScheduledSeq,
            Organization::GlobalDirect,
            Organization::InterleavedSeq { processes: 4 },
        ] {
            let name = format!("f-{}", org.tag());
            let pf = ParallelFile::create(&v, &name, org, 64, 4).unwrap();
            assert_eq!(pf.organization(), org);
            let again = ParallelFile::open(&v, &name).unwrap();
            assert_eq!(again.organization(), org);
        }
    }

    #[test]
    fn partitioned_requires_sizing() {
        let v = vol();
        let org = Organization::PartitionedSeq { partitions: 4 };
        assert!(matches!(
            ParallelFile::create(&v, "ps", org, 64, 4),
            Err(CoreError::BadGeometry(_))
        ));
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 160).unwrap();
        assert_eq!(pf.raw().fixed_capacity_records(), Some(160));
    }

    #[test]
    fn partition_ranges_cover_file_exactly() {
        let v = vol();
        let org = Organization::PartitionedSeq { partitions: 3 };
        // 160 records of 64 B, 4 per file block => 40 file blocks over 3
        // partitions: 14/13/13 blocks = 56/52/52 records.
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 160).unwrap();
        let ranges: Vec<(u64, u64)> = (0..3)
            .map(|p| pf.partition_record_range(p).unwrap())
            .collect();
        assert_eq!(ranges, vec![(0, 56), (56, 108), (108, 160)]);
        assert!(matches!(
            pf.partition_record_range(3),
            Err(CoreError::BadProcess { process: 3, of: 3 })
        ));
    }

    #[test]
    fn short_tail_partition_range_clamped() {
        let v = vol();
        let org = Organization::PartitionedSeq { partitions: 2 };
        // 30 records, 4 per block -> 8 blocks (last block half-full).
        let pf = ParallelFile::create_sized(&v, "ps", org, 64, 4, 30).unwrap();
        assert_eq!(pf.partition_record_range(0).unwrap(), (0, 16));
        assert_eq!(pf.partition_record_range(1).unwrap(), (16, 30));
    }

    #[test]
    fn handle_org_checks() {
        let v = vol();
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, 64, 4).unwrap();
        assert!(matches!(
            pf.self_sched_reader(),
            Err(CoreError::WrongOrganization { .. })
        ));
        assert!(matches!(
            pf.interleaved_handle(0),
            Err(CoreError::WrongOrganization { .. })
        ));
        assert!(matches!(
            pf.partition_handle(0),
            Err(CoreError::WrongOrganization { .. })
        ));
        assert!(matches!(
            pf.direct_handle(),
            Err(CoreError::WrongOrganization { .. })
        ));
        // Global views are always available.
        let _ = pf.global_reader();
        let _ = pf.global_writer();
    }

    #[test]
    fn interleaved_handle_bounds() {
        let v = vol();
        let pf = ParallelFile::create(
            &v,
            "is",
            Organization::InterleavedSeq { processes: 3 },
            64,
            4,
        )
        .unwrap();
        assert!(pf.interleaved_handle(2).is_ok());
        assert!(matches!(
            pf.interleaved_handle(3),
            Err(CoreError::BadProcess { .. })
        ));
    }

    #[test]
    fn bad_tag_on_open() {
        let v = vol();
        // A file created directly through the fs layer with a junk tag.
        let spec = pario_fs::FileSpec::new(
            "weird",
            64,
            1,
            LayoutSpec::Striped {
                devices: 1,
                unit: 1,
            },
        )
        .org("JUNK");
        v.create_file(spec).unwrap();
        assert!(matches!(
            ParallelFile::open(&v, "weird"),
            Err(CoreError::BadTag(_))
        ));
    }
}
