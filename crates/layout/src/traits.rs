//! The layout abstraction: where does logical block *b* of a file live?
//!
//! A file is a sequence of *logical blocks* (the volume allocation grain).
//! A [`Layout`] is a bijection from logical block indices onto per-device
//! block indices, one device block per logical block. Every organization in
//! Crockett (1989) — striped, partitioned, interleaved, declustered — is a
//! different bijection; parity and shadowing wrap a bijection with extra
//! redundancy locations.

use std::fmt::Debug;

use serde::{Deserialize, Serialize};

/// A physical location: device index plus device-local block index.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct PhysBlock {
    /// Device index within the volume.
    pub device: usize,
    /// Block index local to that device (the file's extent mapping turns
    /// this into an absolute device address).
    pub block: u64,
}

/// A data-placement policy: a per-file bijection from logical blocks to
/// `(device, device block)` pairs.
///
/// Implementations must satisfy, for all `b < total` and all devices `d`:
///
/// * `invert(map(b)) == Some(b)` (round trip),
/// * `map` is injective (no two logical blocks share a physical block),
/// * `map(b).block < blocks_on_device(total, map(b).device)` (capacity).
///
/// These invariants are enforced by property tests on every concrete layout.
pub trait Layout: Send + Sync + Debug {
    /// Number of devices this layout spreads data over.
    fn devices(&self) -> usize;

    /// Physical location of logical block `lblock`.
    fn map(&self, lblock: u64) -> PhysBlock;

    /// Logical block stored at `(device, dblock)`, if any file block maps
    /// there (the location may be a hole for non-uniform layouts).
    fn invert(&self, device: usize, dblock: u64) -> Option<u64>;

    /// Device-local blocks needed on `device` to store a file of `total`
    /// logical blocks.
    fn blocks_on_device(&self, total: u64, device: usize) -> u64;

    /// The largest per-device footprint — what the allocator must reserve
    /// on every device for a file of `total` logical blocks.
    fn max_blocks_per_device(&self, total: u64) -> u64 {
        (0..self.devices())
            .map(|d| self.blocks_on_device(total, d))
            .max()
            .unwrap_or(0)
    }
}

/// One transfer of a plan: device-local blocks `[dblock, dblock +
/// count)` of `device`, the rows of the blocks it moves plus any holes
/// read through between them ([`plan`]). It names no blocks: which
/// logical block a row holds is the layout's to say ([`Layout::invert`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MergedRun {
    /// Device the transfer goes to.
    pub device: usize,
    /// First device-local block of the transfer.
    pub dblock: u64,
    /// Blocks in the transfer.
    pub count: u64,
}

/// The per-device transfers that move the logical `extents`, each a
/// `(first block, count)` pair, merged as the blocks are mapped: a
/// block joins its device's last transfer when it continues it. A
/// striped span is one transfer per device; a parity file's data blocks
/// on one device sit at consecutive stripe rows and merge the same way.
///
/// A gap made only of blocks `hole(device, dblock)` accepts is read
/// through, not split at (data sieving: a discarded block costs less
/// than a request). `|_, _| false` merges only blocks that abut.
pub fn plan(
    layout: &dyn Layout,
    extents: &[(u64, u64)],
    hole: impl Fn(usize, u64) -> bool,
) -> Vec<Vec<MergedRun>> {
    let mut groups: Vec<Vec<MergedRun>> = (0..layout.devices()).map(|_| Vec::new()).collect();
    let blocks = extents
        .iter()
        .flat_map(|&(first, count)| first..first + count);
    for p in blocks.map(|l| layout.map(l)) {
        let group = &mut groups[p.device];
        match group.last_mut() {
            Some(m)
                if m.dblock + m.count <= p.block
                    && (m.dblock + m.count..p.block).all(|row| hole(p.device, row)) =>
            {
                m.count = p.block + 1 - m.dblock;
            }
            _ => group.push(MergedRun {
                device: p.device,
                dblock: p.block,
                count: 1,
            }),
        }
    }
    groups
}

/// Exhaustively verify the [`Layout`] bijection invariants for a file of
/// `total` logical blocks. Intended for tests of concrete layouts (including
/// downstream crates'); panics with a descriptive message on violation.
pub fn check_bijection(layout: &dyn Layout, total: u64) {
    use std::collections::HashMap;
    let mut seen: HashMap<(usize, u64), u64> = HashMap::new();
    for b in 0..total {
        let p = layout.map(b);
        assert!(
            p.device < layout.devices(),
            "block {b} mapped to nonexistent device {}",
            p.device
        );
        let cap = layout.blocks_on_device(total, p.device);
        assert!(
            p.block < cap,
            "block {b} mapped to {:?} beyond device capacity {cap}",
            p
        );
        if let Some(prev) = seen.insert((p.device, p.block), b) {
            panic!("blocks {prev} and {b} both map to {p:?}");
        }
        assert_eq!(
            layout.invert(p.device, p.block),
            Some(b),
            "invert(map({b})) != {b}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy identity layout on one device, to test the helpers themselves.
    #[derive(Debug)]
    struct Identity;

    impl Layout for Identity {
        fn devices(&self) -> usize {
            1
        }
        fn map(&self, lblock: u64) -> PhysBlock {
            PhysBlock {
                device: 0,
                block: lblock,
            }
        }
        fn invert(&self, device: usize, dblock: u64) -> Option<u64> {
            (device == 0).then_some(dblock)
        }
        fn blocks_on_device(&self, total: u64, device: usize) -> u64 {
            if device == 0 {
                total
            } else {
                0
            }
        }
    }

    #[test]
    fn identity_is_a_bijection() {
        check_bijection(&Identity, 64);
    }

    #[test]
    fn runs_coalesce_contiguous() {
        let one = |device, dblock, count| MergedRun {
            device,
            dblock,
            count,
        };
        assert_eq!(plan(&Identity, &[(3, 5)], |_, _| false), [[one(0, 3, 5)]]);
        assert_eq!(
            plan(&Identity, &[(3, 2), (5, 3)], |_, _| false),
            [[one(0, 3, 5)]]
        );
        assert!(plan(&Identity, &[(0, 0)], |_, _| false)[0].is_empty());
    }

    #[test]
    fn plan_merges_a_devices_runs() {
        // Units of 16 over 4 devices: 8 units, one transfer per device.
        let l = crate::Striped::new(4, 16);
        let p = plan(&l, &[(0, 128)], |_, _| false);
        assert!(p.iter().all(|g| g.len() == 1 && g[0].count == 32));
        // Extents that skip a block on a device leave two transfers,
        // unless the skipped block is a hole.
        let p = plan(&Identity, &[(0, 2), (3, 2)], |_, _| false);
        assert_eq!(p[0].len(), 2);
        let p = plan(&Identity, &[(0, 2), (3, 2)], |_, row| row == 2);
        assert_eq!((p[0].len(), p[0][0].dblock, p[0][0].count), (1, 0, 5));
    }

    #[test]
    fn max_blocks_default() {
        assert_eq!(Identity.max_blocks_per_device(17), 17);
    }
}
