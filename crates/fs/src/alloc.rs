//! Per-device block allocation.
//!
//! Each device carries a free-block bitmap. Files allocate *extents*
//! (contiguous block runs) per device; keeping extents contiguous matters
//! on modelled rotating disks, where a file scattered across cylinders
//! pays seeks the paper's layouts are designed to avoid.

use serde::{Deserialize, Serialize};

use crate::error::{FsError, Result};

/// A contiguous run of blocks on one device, owned by one file.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Extent {
    /// First absolute device block.
    pub start: u64,
    /// Blocks in the run.
    pub len: u64,
}

impl Extent {
    /// One past the last block.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Free-block bitmap for one device.
#[derive(Clone, Debug)]
struct Bitmap {
    words: Vec<u64>,
    blocks: u64,
    free: u64,
}

impl Bitmap {
    fn new(blocks: u64) -> Bitmap {
        Bitmap {
            words: vec![0; blocks.div_ceil(64) as usize],
            blocks,
            free: blocks,
        }
    }

    fn is_set(&self, b: u64) -> bool {
        self.words[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    fn set(&mut self, b: u64) {
        debug_assert!(!self.is_set(b), "double allocation of block {b}");
        self.words[(b / 64) as usize] |= 1 << (b % 64);
        self.free -= 1;
    }

    fn clear(&mut self, b: u64) {
        debug_assert!(self.is_set(b), "freeing free block {b}");
        self.words[(b / 64) as usize] &= !(1 << (b % 64));
        self.free += 1;
    }

    /// First-fit search for `len` contiguous free blocks. Steps over a
    /// word's run of set (or clear) bits at a time, so a device whose
    /// front is allocated solid costs one iteration per 64 blocks.
    fn find_contiguous(&self, len: u64) -> Option<u64> {
        if len == 0 || len > self.blocks {
            return None;
        }
        let mut run_start = 0;
        let mut b = 0;
        while b < self.blocks {
            // The word from bit `b` up; the shift fills its top with
            // zeros, and bits past `blocks` are never set, so `rest`
            // bounds a clear run and nothing need bound a set one.
            let word = self.words[(b / 64) as usize] >> (b % 64);
            let rest = (64 - b % 64).min(self.blocks - b);
            if word & 1 == 1 {
                b += u64::from(word.trailing_ones());
                run_start = b;
            } else {
                b += u64::from(word.trailing_zeros()).min(rest);
                if b - run_start >= len {
                    return Some(run_start);
                }
            }
        }
        None
    }
}

/// The volume allocator: one bitmap per device.
#[derive(Clone, Debug)]
pub struct Allocator {
    maps: Vec<Bitmap>,
}

impl Allocator {
    /// An allocator for `devices` devices of `blocks_per_device` blocks.
    pub fn new(devices: usize, blocks_per_device: u64) -> Allocator {
        Allocator {
            maps: (0..devices)
                .map(|_| Bitmap::new(blocks_per_device))
                .collect(),
        }
    }

    /// An allocator for devices of differing sizes.
    pub fn with_sizes(sizes: &[u64]) -> Allocator {
        Allocator {
            maps: sizes.iter().map(|&n| Bitmap::new(n)).collect(),
        }
    }

    /// Free blocks remaining on `device`.
    pub fn free_blocks(&self, device: usize) -> u64 {
        self.maps[device].free
    }

    /// Allocate `len` blocks on `device`, contiguous if possible, falling
    /// back to the smallest number of fragments that fit. Returns the
    /// extents in address order.
    pub fn allocate(&mut self, device: usize, len: u64) -> Result<Vec<Extent>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let map = &mut self.maps[device];
        if map.free < len {
            return Err(FsError::NoSpace {
                device,
                requested: len,
            });
        }
        if let Some(start) = map.find_contiguous(len) {
            for b in start..start + len {
                map.set(b);
            }
            return Ok(vec![Extent { start, len }]);
        }
        // Fragmented fallback: greedy sweep collecting free runs.
        let mut extents = Vec::new();
        let mut remaining = len;
        let mut b = 0;
        while remaining > 0 && b < map.blocks {
            if map.is_set(b) {
                b += 1;
                continue;
            }
            let start = b;
            while b < map.blocks && !map.is_set(b) && (b - start) < remaining {
                map.set(b);
                b += 1;
            }
            extents.push(Extent {
                start,
                len: b - start,
            });
            remaining -= b - start;
        }
        debug_assert_eq!(remaining, 0, "free count said space existed");
        Ok(extents)
    }

    /// Mark `extent` on `device` as allocated (used when re-mounting a
    /// persisted volume).
    pub fn reserve(&mut self, device: usize, extent: Extent) {
        let map = &mut self.maps[device];
        for b in extent.start..extent.end() {
            map.set(b);
        }
    }

    /// Return `extent` on `device` to the free pool.
    pub fn release(&mut self, device: usize, extent: Extent) {
        let map = &mut self.maps[device];
        for b in extent.start..extent.end() {
            map.clear(b);
        }
    }
}

/// Translate a device-local *logical* block index (dense, 0-based within
/// the file's allocation on that device) into an absolute device block via
/// the file's extent list.
///
/// # Panics
///
/// Panics if `dblock` lies beyond the extents — callers grow the file
/// before writing past it.
pub fn resolve(extents: &[Extent], dblock: u64) -> u64 {
    let mut remaining = dblock;
    for e in extents {
        if remaining < e.len {
            return e.start + remaining;
        }
        remaining -= e.len;
    }
    panic!("device-local block {dblock} beyond allocated extents");
}

/// Device-local blocks `[dblock, dblock + count)` split at the extent
/// list's boundaries, as `(absolute first block, blocks)` pieces in
/// order. The pieces stop where the extents do.
pub(crate) fn segments(
    extents: &[Extent],
    dblock: u64,
    count: u64,
) -> impl Iterator<Item = (u64, u64)> + '_ {
    let (mut local, mut remaining) = (dblock, count);
    extents.iter().filter_map(move |e| {
        if local >= e.len {
            local -= e.len;
            return None;
        }
        let take = (e.len - local).min(remaining);
        let piece = (e.start + local, take);
        (local, remaining) = (0, remaining - take);
        (take > 0).then_some(piece)
    })
}

/// Append `e` to a slot's extent list, folding it into the last extent
/// when it continues it — so span I/O sees maximal contiguous device
/// runs however the file grew. Growth and journal replay both go
/// through here, which is what keeps a replayed extent list equal to
/// the one the crashed volume held in memory.
pub(crate) fn push_merged(extents: &mut Vec<Extent>, e: Extent) {
    match extents.last_mut() {
        Some(prev) if prev.end() == e.start => prev.len += e.len,
        _ => extents.push(e),
    }
}

/// Total blocks covered by an extent list.
pub fn extents_len(extents: &[Extent]) -> u64 {
    extents.iter().map(|e| e.len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contiguous_first_fit() {
        let mut a = Allocator::new(1, 64);
        let e1 = a.allocate(0, 10).unwrap();
        assert_eq!(e1, vec![Extent { start: 0, len: 10 }]);
        let e2 = a.allocate(0, 5).unwrap();
        assert_eq!(e2, vec![Extent { start: 10, len: 5 }]);
        assert_eq!(a.free_blocks(0), 49);
    }

    #[test]
    fn release_enables_reuse() {
        let mut a = Allocator::new(1, 16);
        let e = a.allocate(0, 16).unwrap();
        assert!(a.allocate(0, 1).is_err());
        a.release(0, e[0]);
        assert_eq!(a.free_blocks(0), 16);
        assert_eq!(a.allocate(0, 4).unwrap()[0], Extent { start: 0, len: 4 });
    }

    #[test]
    fn fragmented_fallback() {
        let mut a = Allocator::new(1, 16);
        let head = a.allocate(0, 6).unwrap(); // 0..6
        let _mid = a.allocate(0, 4).unwrap(); // 6..10
        a.release(0, head[0]); // free 0..6; free space is 0..6 and 10..16
        let e = a.allocate(0, 10).unwrap();
        assert_eq!(e.len(), 2, "must fragment: {e:?}");
        assert_eq!(extents_len(&e), 10);
        assert_eq!(a.free_blocks(0), 2);
    }

    #[test]
    fn no_space_error() {
        let mut a = Allocator::new(2, 8);
        assert!(a.allocate(1, 9).is_err());
        a.allocate(1, 8).unwrap();
        match a.allocate(1, 1) {
            Err(FsError::NoSpace { device, requested }) => {
                assert_eq!((device, requested), (1, 1));
            }
            other => panic!("expected NoSpace, got {other:?}"),
        }
        // Device 0 unaffected.
        assert_eq!(a.free_blocks(0), 8);
    }

    #[test]
    fn zero_len_allocation_is_empty() {
        let mut a = Allocator::new(1, 8);
        assert!(a.allocate(0, 0).unwrap().is_empty());
        assert_eq!(a.free_blocks(0), 8);
    }

    #[test]
    fn resolve_walks_extents() {
        let extents = vec![Extent { start: 100, len: 3 }, Extent { start: 7, len: 5 }];
        assert_eq!(resolve(&extents, 0), 100);
        assert_eq!(resolve(&extents, 2), 102);
        assert_eq!(resolve(&extents, 3), 7);
        assert_eq!(resolve(&extents, 7), 11);
        assert_eq!(extents_len(&extents), 8);
        let split = |dblock, count| segments(&extents, dblock, count).collect::<Vec<_>>();
        assert_eq!(split(1, 2), [(101, 2)]);
        assert_eq!(split(1, 4), [(101, 2), (7, 2)]);
        assert_eq!(split(4, 3), [(8, 3)]);
        assert_eq!(split(6, 9), [(10, 2)], "the pieces stop with the extents");
    }

    #[test]
    #[should_panic(expected = "beyond allocated")]
    fn resolve_past_end_panics() {
        resolve(&[Extent { start: 0, len: 2 }], 2);
    }

    /// The reference first fit: one bit per step from block 0.
    fn find_contiguous_bitwise(map: &Bitmap, len: u64) -> Option<u64> {
        let (mut run_start, mut run_len) = (0, 0);
        for b in 0..map.blocks {
            if map.is_set(b) {
                run_len = 0;
                run_start = b + 1;
            } else {
                run_len += 1;
                if run_len == len {
                    return Some(run_start);
                }
            }
        }
        None
    }

    #[test]
    fn word_scan_crosses_word_boundaries() {
        let mut map = Bitmap::new(200);
        (0..60).chain(70..128).for_each(|b| map.set(b));
        assert_eq!(map.find_contiguous(10), Some(60));
        assert_eq!(map.find_contiguous(11), Some(128));
        assert_eq!(map.find_contiguous(72), Some(128));
        assert_eq!(map.find_contiguous(73), None);
    }

    proptest! {
        #[test]
        fn word_scan_is_the_bitwise_first_fit(
            // Runs of alternating state, so whole words come out set
            // and clear as well as mixed.
            runs in proptest::collection::vec(1u64..150, 0..12),
            first_set in any::<bool>(),
            tail in 0u64..70,
            len in 1u64..200,
        ) {
            let blocks = runs.iter().sum::<u64>() + tail;
            let mut map = Bitmap::new(blocks);
            let (mut b, mut set) = (0, first_set);
            for r in runs {
                if set {
                    (b..b + r).for_each(|x| map.set(x));
                }
                b += r;
                set = !set;
            }
            prop_assert_eq!(map.find_contiguous(len), find_contiguous_bitwise(&map, len));
        }

        #[test]
        fn allocations_never_overlap(reqs in proptest::collection::vec(1u64..20, 1..20)) {
            let mut a = Allocator::new(1, 256);
            let mut owned: Vec<Extent> = Vec::new();
            for r in reqs {
                match a.allocate(0, r) {
                    Ok(es) => owned.extend(es),
                    Err(_) => break,
                }
            }
            // Pairwise disjoint.
            for (i, x) in owned.iter().enumerate() {
                for y in owned.iter().skip(i + 1) {
                    prop_assert!(x.end() <= y.start || y.end() <= x.start,
                        "overlap {x:?} {y:?}");
                }
            }
        }

        #[test]
        fn alloc_free_restores_free_count(reqs in proptest::collection::vec(1u64..20, 1..20)) {
            let mut a = Allocator::new(1, 256);
            let mut owned: Vec<Extent> = Vec::new();
            for r in reqs {
                if let Ok(es) = a.allocate(0, r) {
                    owned.extend(es);
                }
            }
            for e in owned {
                a.release(0, e);
            }
            prop_assert_eq!(a.free_blocks(0), 256);
        }
    }
}
