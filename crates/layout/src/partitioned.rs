//! Partitioned (type PS) placement: contiguous block ranges, one per
//! process, each range kept together on a device.
//!
//! With one device per partition this is the paper's "obvious
//! implementation" of PS. With fewer devices than partitions, partitions are
//! assigned round-robin and stacked one after another on their device —
//! exactly the situation where the paper predicts seek-time degradation as
//! a drive services interleaved requests from several processes.

use serde::{Deserialize, Serialize};

use crate::traits::{Layout, PhysBlock};

/// The near-equal split of `total` items into `parts` (at least one)
/// contiguous ranges: `parts + 1` bounds from 0 to `total`, the first
/// `total % parts` ranges one item longer than the rest.
pub fn uniform_bounds(total: u64, parts: usize) -> Vec<u64> {
    assert!(parts >= 1, "at least one partition required");
    let (base, extra) = (total / parts as u64, total % parts as u64);
    (0..=parts as u64)
        .map(|p| p * base + p.min(extra))
        .collect()
}

/// Contiguous per-partition placement across a device array.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partitioned {
    /// `bounds[p]..bounds[p+1]` is partition `p`'s logical block range.
    bounds: Vec<u64>,
    devices: usize,
}

impl Partitioned {
    /// Build from explicit partition boundaries.
    ///
    /// `bounds` must start at 0, be non-decreasing, and have at least two
    /// entries; its last entry is the file's total block count.
    ///
    /// # Panics
    ///
    /// Panics on malformed bounds or `devices == 0`.
    pub fn from_bounds(bounds: Vec<u64>, devices: usize) -> Partitioned {
        assert!(devices >= 1, "at least one device required");
        assert!(bounds.len() >= 2, "need at least one partition");
        assert_eq!(bounds[0], 0, "bounds must start at 0");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be non-decreasing"
        );
        Partitioned { bounds, devices }
    }

    /// Split `total` blocks into `partitions` near-equal contiguous ranges
    /// ([`uniform_bounds`]), assigned round-robin over `devices`.
    pub fn uniform(total: u64, partitions: usize, devices: usize) -> Partitioned {
        Partitioned::from_bounds(uniform_bounds(total, partitions), devices)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total logical blocks covered.
    pub fn total_blocks(&self) -> u64 {
        // invariant: bounds is validated non-empty at construction.
        *self.bounds.last().unwrap()
    }

    /// The partition boundaries (length `partitions + 1`, starting at 0).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Logical block range `[start, end)` of partition `p`.
    pub fn partition_range(&self, p: usize) -> (u64, u64) {
        (self.bounds[p], self.bounds[p + 1])
    }

    /// Device assigned to partition `p`.
    pub fn partition_device(&self, p: usize) -> usize {
        p % self.devices
    }

    /// Partition containing logical block `lblock`.
    pub fn partition_of(&self, lblock: u64) -> usize {
        // bounds is sorted; find the last bound <= lblock. partition_point
        // returns the count of bounds <= lblock, so subtract one. Empty
        // partitions share a bound value; skip them by construction of the
        // search (an empty partition can contain no block).
        debug_assert!(lblock < self.total_blocks());
        self.bounds.partition_point(|&b| b <= lblock) - 1
    }

    /// Device-local block at which partition `p` begins (partitions mapped
    /// to one device are stacked in partition order).
    fn partition_base(&self, p: usize) -> u64 {
        let dev = self.partition_device(p);
        (0..p)
            .filter(|&q| self.partition_device(q) == dev)
            .map(|q| self.bounds[q + 1] - self.bounds[q])
            .sum()
    }
}

impl Layout for Partitioned {
    fn devices(&self) -> usize {
        self.devices
    }

    fn map(&self, lblock: u64) -> PhysBlock {
        assert!(
            lblock < self.total_blocks(),
            "block {lblock} beyond partitioned file of {} blocks",
            self.total_blocks()
        );
        let p = self.partition_of(lblock);
        PhysBlock {
            device: self.partition_device(p),
            block: self.partition_base(p) + (lblock - self.bounds[p]),
        }
    }

    fn invert(&self, device: usize, dblock: u64) -> Option<u64> {
        if device >= self.devices {
            return None;
        }
        let mut base = 0;
        for p in 0..self.partitions() {
            if self.partition_device(p) != device {
                continue;
            }
            let size = self.bounds[p + 1] - self.bounds[p];
            if dblock < base + size {
                return Some(self.bounds[p] + (dblock - base));
            }
            base += size;
        }
        None
    }

    fn blocks_on_device(&self, total: u64, device: usize) -> u64 {
        debug_assert_eq!(
            total,
            self.total_blocks(),
            "Partitioned layouts are sized at construction"
        );
        if device >= self.devices {
            return 0;
        }
        (0..self.partitions())
            .filter(|&p| self.partition_device(p) == device)
            .map(|p| self.bounds[p + 1] - self.bounds[p])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_bijection, plan};
    use proptest::prelude::*;

    #[test]
    fn near_equal_split_bounds() {
        assert_eq!(uniform_bounds(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(uniform_bounds(9, 3), vec![0, 3, 6, 9]);
        assert_eq!(uniform_bounds(2, 4), vec![0, 1, 2, 2, 2]);
    }

    #[test]
    fn uniform_split_sizes() {
        let l = Partitioned::uniform(10, 3, 3);
        assert_eq!(l.partition_range(0), (0, 4));
        assert_eq!(l.partition_range(1), (4, 7));
        assert_eq!(l.partition_range(2), (7, 10));
        assert_eq!(l.total_blocks(), 10);
    }

    #[test]
    fn device_per_partition() {
        let l = Partitioned::uniform(12, 3, 3);
        assert_eq!(l.map(0).device, 0);
        assert_eq!(l.map(4).device, 1);
        assert_eq!(l.map(8).device, 2);
        // Each partition starts at device block 0 on its own device.
        assert_eq!(l.map(4).block, 0);
        assert_eq!(l.map(8).block, 0);
    }

    #[test]
    fn stacked_partitions_share_device() {
        // 4 partitions of 3 blocks over 2 devices: partitions 0,2 on dev 0.
        let l = Partitioned::uniform(12, 4, 2);
        assert_eq!(
            l.map(0),
            PhysBlock {
                device: 0,
                block: 0
            }
        );
        // Partition 2 (blocks 6..9) stacks after partition 0 on device 0.
        assert_eq!(
            l.map(6),
            PhysBlock {
                device: 0,
                block: 3
            }
        );
        assert_eq!(
            l.map(3),
            PhysBlock {
                device: 1,
                block: 0
            }
        );
        assert_eq!(
            l.map(9),
            PhysBlock {
                device: 1,
                block: 3
            }
        );
        assert_eq!(l.blocks_on_device(12, 0), 6);
        assert_eq!(l.blocks_on_device(12, 1), 6);
    }

    #[test]
    fn global_view_of_ps_gives_one_run_per_partition() {
        // The paper's observation: the global view of a PS file reads all of
        // device 0, then all of device 1, ... — no overlap possible.
        let l = Partitioned::uniform(12, 3, 3);
        let p = plan(&l, &[(0, 12)], |_, _| false);
        let transfers: Vec<_> = p.iter().flatten().map(|m| (m.device, m.count)).collect();
        assert_eq!(transfers, [(0, 4), (1, 4), (2, 4)]);
    }

    #[test]
    fn empty_partitions_are_skipped() {
        let l = Partitioned::from_bounds(vec![0, 0, 5, 5, 8], 2);
        check_bijection(&l, 8);
        assert_eq!(l.partition_of(0), 1);
        assert_eq!(l.partition_of(5), 3);
    }

    #[test]
    #[should_panic(expected = "beyond partitioned file")]
    fn map_past_end_panics() {
        Partitioned::uniform(4, 2, 2).map(4);
    }

    proptest! {
        #[test]
        fn bijection(total in 0u64..400, parts in 1usize..9, devices in 1usize..5) {
            let l = Partitioned::uniform(total, parts, devices);
            check_bijection(&l, total);
        }

        #[test]
        fn partition_of_matches_ranges(total in 1u64..400, parts in 1usize..9) {
            let l = Partitioned::uniform(total, parts, 2);
            for b in 0..total {
                let p = l.partition_of(b);
                let (s, e) = l.partition_range(p);
                prop_assert!(s <= b && b < e);
            }
        }

        #[test]
        fn capacities_sum_to_total(total in 0u64..400, parts in 1usize..9, devices in 1usize..5) {
            let l = Partitioned::uniform(total, parts, devices);
            let sum: u64 = (0..devices).map(|d| l.blocks_on_device(total, d)).sum();
            prop_assert_eq!(sum, total);
        }
    }
}
