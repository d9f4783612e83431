//! Parity-protected striping (RAID-4 / RAID-5 style).
//!
//! The paper (§5, citing Kim's synchronized disk interleaving) notes that
//! for striped files "parity information is stored on each drive, and
//! checking codes are stored on one or more additional drives", handling a
//! single-bit error or the complete failure of one drive. This module
//! provides the placement half: `data_devices` drives of data plus one
//! drive's worth of parity, either on a dedicated device (RAID-4) or
//! rotated across all devices (RAID-5). The XOR arithmetic and rebuild
//! machinery live in `pario-reliability`.

use crate::traits::{Layout, PhysBlock};

/// Where parity blocks live.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ParityPlacement {
    /// All parity on the last device (RAID-4). Simple, but the parity
    /// device is a write bottleneck.
    Dedicated,
    /// Parity rotated across devices (RAID-5), spreading the write load.
    Rotated,
}

/// Striped placement over `data_devices + 1` devices with one parity block
/// per stripe.
///
/// Logical data blocks are striped one block at a time; stripe `s` occupies
/// device row `s` on every device, with one of the `data_devices + 1`
/// devices holding parity for that row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityStriped {
    data_devices: usize,
    placement: ParityPlacement,
}

impl ParityStriped {
    /// `data_devices` data drives plus one drive's worth of parity.
    ///
    /// # Panics
    ///
    /// Panics if `data_devices == 0`.
    pub fn new(data_devices: usize, placement: ParityPlacement) -> ParityStriped {
        assert!(data_devices >= 1, "parity needs at least one data device");
        ParityStriped {
            data_devices,
            placement,
        }
    }

    /// Number of data blocks per stripe.
    pub fn stripe_width(&self) -> usize {
        self.data_devices
    }

    /// Stripe containing logical block `lblock`.
    pub fn stripe_of(&self, lblock: u64) -> u64 {
        lblock / self.data_devices as u64
    }

    /// Number of stripes needed for `total` logical blocks.
    pub fn stripes(&self, total: u64) -> u64 {
        total.div_ceil(self.data_devices as u64)
    }

    /// Device holding stripe `s`'s parity block.
    pub fn parity_device(&self, s: u64) -> usize {
        let n = self.data_devices + 1;
        match self.placement {
            ParityPlacement::Dedicated => self.data_devices,
            ParityPlacement::Rotated => (n as u64 - 1 - (s % n as u64)) as usize,
        }
    }

    /// Physical location of stripe `s`'s parity block.
    pub fn parity_location(&self, s: u64) -> PhysBlock {
        PhysBlock {
            device: self.parity_device(s),
            block: s,
        }
    }

    /// The logical data blocks of stripe `s` that exist in a file of
    /// `total` blocks, with their physical locations.
    pub fn stripe_data(&self, s: u64, total: u64) -> Vec<(u64, PhysBlock)> {
        let w = self.data_devices as u64;
        (s * w..((s + 1) * w).min(total))
            .map(|b| (b, self.map(b)))
            .collect()
    }
}

impl Layout for ParityStriped {
    fn devices(&self) -> usize {
        self.data_devices + 1
    }

    fn map(&self, lblock: u64) -> PhysBlock {
        let s = self.stripe_of(lblock);
        let pos = (lblock % self.data_devices as u64) as usize;
        let pdev = self.parity_device(s);
        let device = if pos < pdev { pos } else { pos + 1 };
        PhysBlock { device, block: s }
    }

    fn invert(&self, device: usize, dblock: u64) -> Option<u64> {
        if device >= self.devices() {
            return None;
        }
        let s = dblock;
        let pdev = self.parity_device(s);
        if device == pdev {
            return None; // parity block, not a logical data block
        }
        let pos = if device < pdev { device } else { device - 1 };
        Some(s * self.data_devices as u64 + pos as u64)
    }

    fn blocks_on_device(&self, total: u64, device: usize) -> u64 {
        if device >= self.devices() || total == 0 {
            return 0;
        }
        // Every device holds exactly one block (data or parity) per stripe
        // row it participates in. Full stripes use every device; the final
        // partial stripe uses the parity device plus the first `tail` data
        // positions.
        let w = self.data_devices as u64;
        let full = total / w;
        let tail = total % w;
        let mut blocks = full;
        if tail > 0 {
            let s = full;
            let pdev = self.parity_device(s);
            let used = device == pdev || {
                let pos = if device < pdev { device } else { device - 1 };
                device != pdev && (pos as u64) < tail
            };
            if used {
                blocks += 1;
            }
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_bijection;
    use proptest::prelude::*;

    #[test]
    fn raid4_parity_stays_on_last_device() {
        let l = ParityStriped::new(3, ParityPlacement::Dedicated);
        assert_eq!(l.devices(), 4);
        for s in 0..10 {
            assert_eq!(l.parity_device(s), 3);
        }
        assert_eq!(
            l.map(0),
            PhysBlock {
                device: 0,
                block: 0
            }
        );
        assert_eq!(
            l.map(3),
            PhysBlock {
                device: 0,
                block: 1
            }
        );
        assert_eq!(l.invert(3, 0), None);
    }

    #[test]
    fn raid5_parity_rotates() {
        let l = ParityStriped::new(3, ParityPlacement::Rotated);
        let pdevs: Vec<usize> = (0..8).map(|s| l.parity_device(s)).collect();
        assert_eq!(pdevs, vec![3, 2, 1, 0, 3, 2, 1, 0]);
        // Stripe 1: parity on device 2, data positions 0,1,2 on 0,1,3.
        assert_eq!(
            l.map(3),
            PhysBlock {
                device: 0,
                block: 1
            }
        );
        assert_eq!(
            l.map(4),
            PhysBlock {
                device: 1,
                block: 1
            }
        );
        assert_eq!(
            l.map(5),
            PhysBlock {
                device: 3,
                block: 1
            }
        );
        assert_eq!(l.invert(2, 1), None);
        assert_eq!(l.invert(3, 1), Some(5));
    }

    #[test]
    fn stripe_data_lists_members() {
        let l = ParityStriped::new(2, ParityPlacement::Dedicated);
        let members = l.stripe_data(1, 3); // file of 3 blocks: stripe 1 holds only block 2
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].0, 2);
        assert_eq!(l.stripes(3), 2);
        assert_eq!(l.stripes(4), 2);
        assert_eq!(l.stripes(5), 3);
    }

    #[test]
    fn capacity_includes_parity() {
        let l = ParityStriped::new(2, ParityPlacement::Dedicated);
        // 4 data blocks = 2 full stripes; each of the 3 devices holds 2.
        for d in 0..3 {
            assert_eq!(l.blocks_on_device(4, d), 2);
        }
        // 5 data blocks: stripe 2 holds data pos 0 (dev 0) + parity (dev 2).
        assert_eq!(l.blocks_on_device(5, 0), 3);
        assert_eq!(l.blocks_on_device(5, 1), 2);
        assert_eq!(l.blocks_on_device(5, 2), 3);
    }

    proptest! {
        #[test]
        fn bijection_dedicated(w in 1usize..7, total in 0u64..300) {
            check_bijection(&ParityStriped::new(w, ParityPlacement::Dedicated), total);
        }

        #[test]
        fn bijection_rotated(w in 1usize..7, total in 0u64..300) {
            check_bijection(&ParityStriped::new(w, ParityPlacement::Rotated), total);
        }

        #[test]
        fn parity_never_collides_with_data(w in 1usize..7, total in 1u64..300) {
            let l = ParityStriped::new(w, ParityPlacement::Rotated);
            for s in 0..l.stripes(total) {
                let p = l.parity_location(s);
                for (_, d) in l.stripe_data(s, total) {
                    prop_assert_ne!(p, d);
                }
                // Parity of row s inverts to no logical block.
                prop_assert_eq!(l.invert(p.device, p.block), None);
            }
        }

        #[test]
        fn stripe_members_share_row(w in 1usize..7, total in 1u64..300) {
            let l = ParityStriped::new(w, ParityPlacement::Rotated);
            for s in 0..l.stripes(total) {
                for (_, d) in l.stripe_data(s, total) {
                    prop_assert_eq!(d.block, s);
                }
            }
        }
    }
}
