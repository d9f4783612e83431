//! Round-robin (striped / interleaved / declustered) placement.
//!
//! One piece of mathematics serves four of the paper's placement policies.
//! Logical blocks are grouped into *units* of `unit` consecutive blocks and
//! units are dealt round-robin across the devices:
//!
//! * **striping** (type S and SS files): `unit` is chosen for device
//!   efficiency, independent of record structure;
//! * **interleaved** (type IS files): `unit` is the file's logical block
//!   (one process's cluster), so that process *p* of *P* finds its blocks by
//!   stride — with `devices == P`, each process gets a private device;
//! * **declustering** (Livny et al.): a multi-volume-block file block is
//!   split across drives — exactly `unit == 1`;
//! * **whole-block placement** (the declustering baseline): each file block
//!   entirely on one drive — `unit ==` file-block size in volume blocks.

use crate::traits::{Layout, PhysBlock};

/// Round-robin placement of fixed-size units across devices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Striped {
    devices: usize,
    unit: u64,
}

impl Striped {
    /// Stripe `unit` consecutive logical blocks at a time over `devices`.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `unit == 0`.
    pub fn new(devices: usize, unit: u64) -> Striped {
        assert!(devices >= 1, "striping requires at least one device");
        assert!(unit >= 1, "stripe unit must be at least one block");
        Striped { devices, unit }
    }

    /// Interleaved placement (type IS): one file cluster per unit.
    pub fn interleaved(devices: usize, cluster_blocks: u64) -> Striped {
        Striped::new(devices, cluster_blocks)
    }

    /// Declustered placement: every file block's volume blocks spread over
    /// all devices (stripe unit of one volume block).
    pub fn declustered(devices: usize) -> Striped {
        Striped::new(devices, 1)
    }

    /// Whole-block placement: each `file_block_vblocks`-sized file block
    /// entirely on one device (the declustering baseline).
    pub fn whole_block(devices: usize, file_block_vblocks: u64) -> Striped {
        Striped::new(devices, file_block_vblocks)
    }

    /// The stripe unit in volume blocks.
    pub fn unit(&self) -> u64 {
        self.unit
    }
}

impl Layout for Striped {
    fn devices(&self) -> usize {
        self.devices
    }

    fn map(&self, lblock: u64) -> PhysBlock {
        let stripe = lblock / self.unit;
        let within = lblock % self.unit;
        let device = (stripe % self.devices as u64) as usize;
        let row = stripe / self.devices as u64;
        PhysBlock {
            device,
            block: row * self.unit + within,
        }
    }

    fn invert(&self, device: usize, dblock: u64) -> Option<u64> {
        if device >= self.devices {
            return None;
        }
        let row = dblock / self.unit;
        let within = dblock % self.unit;
        let stripe = row * self.devices as u64 + device as u64;
        Some(stripe * self.unit + within)
    }

    fn blocks_on_device(&self, total: u64, device: usize) -> u64 {
        if device >= self.devices || total == 0 {
            return 0;
        }
        let d = device as u64;
        let nd = self.devices as u64;
        let full_stripes = total / self.unit;
        let tail = total % self.unit;
        // Units dealt to device d among `full_stripes` complete units:
        let full_units_here = full_stripes / nd + u64::from(full_stripes % nd > d);
        let mut blocks = full_units_here * self.unit;
        // A partial final unit lands on device (full_stripes % nd).
        if tail > 0 && full_stripes % nd == d {
            blocks += tail;
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{check_bijection, plan};
    use proptest::prelude::*;

    #[test]
    fn unit_one_round_robin() {
        let l = Striped::declustered(3);
        assert_eq!(
            l.map(0),
            PhysBlock {
                device: 0,
                block: 0
            }
        );
        assert_eq!(
            l.map(1),
            PhysBlock {
                device: 1,
                block: 0
            }
        );
        assert_eq!(
            l.map(2),
            PhysBlock {
                device: 2,
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
        assert_eq!(
            l.map(7),
            PhysBlock {
                device: 1,
                block: 2
            }
        );
    }

    #[test]
    fn multi_block_units_stay_contiguous() {
        let l = Striped::new(2, 4);
        // Unit 0 (blocks 0..4) on device 0 at 0..4.
        for b in 0..4 {
            assert_eq!(
                l.map(b),
                PhysBlock {
                    device: 0,
                    block: b
                }
            );
        }
        // Unit 1 (blocks 4..8) on device 1 at 0..4.
        for b in 4..8 {
            assert_eq!(
                l.map(b),
                PhysBlock {
                    device: 1,
                    block: b - 4
                }
            );
        }
        // Unit 2 back on device 0 at 4..8.
        assert_eq!(
            l.map(8),
            PhysBlock {
                device: 0,
                block: 4
            }
        );
    }

    #[test]
    fn capacity_counts_short_tail() {
        let l = Striped::new(3, 2);
        // 7 blocks = units [0,1), [2,3) dev0/dev1, [4,5) dev2, [6] dev0.
        assert_eq!(l.blocks_on_device(7, 0), 3);
        assert_eq!(l.blocks_on_device(7, 1), 2);
        assert_eq!(l.blocks_on_device(7, 2), 2);
        assert_eq!(l.blocks_on_device(0, 0), 0);
        assert_eq!(l.blocks_on_device(7, 9), 0);
    }

    #[test]
    fn whole_file_runs_alternate_devices() {
        // Units [0,2) [4,6) on device 0 and [2,4) [6,8) on device 1: the
        // units alternate, and each device's two are one transfer.
        let l = Striped::new(2, 2);
        let devices: Vec<_> = (0..8).step_by(2).map(|b| l.map(b).device).collect();
        assert_eq!(devices, [0, 1, 0, 1]);
        assert_eq!(l.map(4).block, 2);
        let p = plan(&l, &[(0, 8)], |_, _| false);
        assert!(p
            .iter()
            .all(|g| g.len() == 1 && (g[0].dblock, g[0].count) == (0, 4)));
    }

    #[test]
    fn invert_rejects_bad_device() {
        let l = Striped::new(2, 1);
        assert_eq!(l.invert(5, 0), None);
    }

    proptest! {
        #[test]
        fn bijection(devices in 1usize..9, unit in 1u64..17, total in 0u64..600) {
            check_bijection(&Striped::new(devices, unit), total);
        }

        #[test]
        fn capacities_sum_to_total(devices in 1usize..9, unit in 1u64..17, total in 0u64..600) {
            let l = Striped::new(devices, unit);
            let sum: u64 = (0..devices).map(|d| l.blocks_on_device(total, d)).sum();
            prop_assert_eq!(sum, total);
        }

        #[test]
        fn balanced_within_one_unit(devices in 1usize..9, unit in 1u64..17, total in 0u64..600) {
            let l = Striped::new(devices, unit);
            let caps: Vec<u64> = (0..devices).map(|d| l.blocks_on_device(total, d)).collect();
            let min = *caps.iter().min().unwrap();
            let max = *caps.iter().max().unwrap();
            prop_assert!(max - min <= unit, "imbalance {} > unit {}", max - min, unit);
        }
    }
}
