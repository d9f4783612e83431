//! The standard parallel file organizations of Crockett (1989), §3.

use std::fmt;

/// The six proposed organizations.
///
/// Sequential family (global view = a standard sequential file):
/// * **S** — read or written in order by a single process.
/// * **PS** — partitioned into contiguous blocks, one per process.
/// * **IS** — processes take blocks separated by a constant stride.
/// * **SS** — each request (from any process) gets the globally next
///   record; no record skipped or duplicated.
///
/// Direct-access family (global view = a direct access file):
/// * **GDA** — any process, any record, any order.
/// * **PDA** — random access within per-process partitions.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Organization {
    /// Type S: sequential access by a single process.
    Sequential,
    /// Type PS: contiguous blocks, one partition per process.
    PartitionedSeq {
        /// Number of partitions (processes).
        partitions: u32,
    },
    /// Type IS: blocks dealt round-robin to `processes` processes.
    InterleavedSeq {
        /// Number of processes (the stride).
        processes: u32,
    },
    /// Type SS: a shared cursor hands each request the next record.
    SelfScheduledSeq,
    /// Type GDA: unrestricted direct access.
    GlobalDirect,
    /// Type PDA: direct access within per-process partitions.
    PartitionedDirect {
        /// Number of partitions (processes).
        partitions: u32,
    },
}

impl Organization {
    /// Short tag recorded in file metadata, e.g. `"PS:8"`.
    pub fn tag(&self) -> String {
        match self {
            Organization::Sequential => "S".to_string(),
            Organization::PartitionedSeq { partitions } => format!("PS:{partitions}"),
            Organization::InterleavedSeq { processes } => format!("IS:{processes}"),
            Organization::SelfScheduledSeq => "SS".to_string(),
            Organization::GlobalDirect => "GDA".to_string(),
            Organization::PartitionedDirect { partitions } => format!("PDA:{partitions}"),
        }
    }

    /// Parse a tag written by [`Organization::tag`].
    pub fn from_tag(tag: &str) -> Option<Organization> {
        match tag {
            "S" => return Some(Organization::Sequential),
            "SS" => return Some(Organization::SelfScheduledSeq),
            "GDA" => return Some(Organization::GlobalDirect),
            _ => {}
        }
        let (kind, n) = tag.split_once(':')?;
        let n: u32 = n.parse().ok()?;
        if n == 0 {
            return None;
        }
        match kind {
            "PS" => Some(Organization::PartitionedSeq { partitions: n }),
            "IS" => Some(Organization::InterleavedSeq { processes: n }),
            "PDA" => Some(Organization::PartitionedDirect { partitions: n }),
            _ => None,
        }
    }

    /// Partitioned organizations need their size fixed at creation: the
    /// partition boundaries are part of the placement.
    pub fn is_fixed_size(&self) -> bool {
        matches!(
            self,
            Organization::PartitionedSeq { .. } | Organization::PartitionedDirect { .. }
        )
    }

    /// Number of cooperating processes the internal view expects, if the
    /// organization pins one.
    pub fn processes(&self) -> Option<u32> {
        match self {
            Organization::PartitionedSeq { partitions }
            | Organization::PartitionedDirect { partitions } => Some(*partitions),
            Organization::InterleavedSeq { processes } => Some(*processes),
            _ => None,
        }
    }
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trips() {
        let all = [
            Organization::Sequential,
            Organization::PartitionedSeq { partitions: 8 },
            Organization::InterleavedSeq { processes: 3 },
            Organization::SelfScheduledSeq,
            Organization::GlobalDirect,
            Organization::PartitionedDirect { partitions: 16 },
        ];
        for org in all {
            assert_eq!(Organization::from_tag(&org.tag()), Some(org));
        }
    }

    #[test]
    fn bad_tags_rejected() {
        for bad in ["", "X", "PS", "PS:", "PS:0", "PS:x", "IS:-1", "QQ:3"] {
            assert_eq!(Organization::from_tag(bad), None, "{bad}");
        }
    }

    #[test]
    fn fixed_size_classification() {
        assert!(Organization::PartitionedSeq { partitions: 2 }.is_fixed_size());
        assert!(Organization::PartitionedDirect { partitions: 2 }.is_fixed_size());
        assert!(!Organization::Sequential.is_fixed_size());
        assert!(!Organization::SelfScheduledSeq.is_fixed_size());
        assert!(!Organization::InterleavedSeq { processes: 4 }.is_fixed_size());
        assert!(!Organization::GlobalDirect.is_fixed_size());
    }

    #[test]
    fn processes_accessor() {
        assert_eq!(
            Organization::InterleavedSeq { processes: 5 }.processes(),
            Some(5)
        );
        assert_eq!(Organization::GlobalDirect.processes(), None);
    }
}
