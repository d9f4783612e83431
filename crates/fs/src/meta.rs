//! File metadata.
//!
//! A file's durable identity: its record geometry, its placement
//! ([`LayoutSpec`]), which volume devices it occupies, and the extents it
//! has been allocated. The `org` field carries the parallel-file
//! organization tag owned by `pario-core`; the file system itself is
//! organization-agnostic — exactly the paper's split between file
//! *structures* (here) and *access methods* on them (core).

use pario_layout::LayoutSpec;

use crate::alloc::Extent;

/// Durable per-file metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileMeta {
    /// Unique id within the volume.
    pub id: u64,
    /// File name (directory key).
    pub name: String,
    /// Fixed record size in bytes (the paper assumes equal-size records).
    pub record_size: usize,
    /// Records per logical file block — the paper's partitioning grain.
    pub records_per_block: usize,
    /// Current length in records.
    pub len_records: u64,
    /// Data placement.
    pub layout: LayoutSpec,
    /// Opaque organization tag (set and interpreted by `pario-core`).
    pub org: String,
    /// Layout device slot -> volume device index.
    pub device_map: Vec<usize>,
    /// Capacity ceiling for fixed-size organizations (PS/PDA), in records.
    pub fixed_capacity_records: Option<u64>,
    /// Logical volume blocks currently allocated.
    pub nblocks: u64,
    /// Allocated extents, indexed by layout device slot.
    pub extents: Vec<Vec<Extent>>,
}

impl FileMeta {
    /// File length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_records * self.record_size as u64
    }

    /// Bytes per logical file block (the paper's block).
    pub fn file_block_bytes(&self) -> usize {
        self.record_size * self.records_per_block
    }

    /// Logical blocks of `block_size` bytes a fixed-capacity file
    /// holds — a partitioned one its bounds, any other its records —
    /// or `None` for a growable file.
    pub(crate) fn capacity_blocks(&self, block_size: usize) -> Option<u64> {
        let cap = self.fixed_capacity_records?;
        Some(match self.partition_bounds() {
            // invariant: `check_placement` refused bounds naming no partition.
            Some(bounds) => *bounds.last().expect("checked non-empty"),
            None => (cap * self.record_size as u64).div_ceil(block_size as u64),
        })
    }

    /// The bounds of a partitioned placement, shadowed or not: its
    /// mapping is sized by them, so it holds all their blocks or none.
    pub(crate) fn partition_bounds(&self) -> Option<&[u64]> {
        let plain = match &self.layout {
            LayoutSpec::Shadowed(plain) => plain,
            layout => layout,
        };
        match plain {
            LayoutSpec::Partitioned { bounds, .. } => Some(bounds),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> FileMeta {
        FileMeta {
            id: 1,
            name: "t".into(),
            record_size: 100,
            records_per_block: 4,
            len_records: 10,
            layout: LayoutSpec::Striped {
                devices: 2,
                unit: 1,
            },
            org: "S".into(),
            device_map: vec![0, 1],
            fixed_capacity_records: None,
            nblocks: 0,
            extents: vec![Vec::new(), Vec::new()],
        }
    }

    #[test]
    fn derived_geometry() {
        let m = meta();
        assert_eq!(m.len_bytes(), 1000);
        assert_eq!(m.file_block_bytes(), 400);
    }
}
