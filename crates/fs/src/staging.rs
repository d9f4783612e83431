//! The volume's staging buffers: one bounded free list, shared by every
//! file of the volume.
//!
//! A span that is more than one device transfer moves through staging —
//! the rows a run reads before they are scattered into the caller's
//! buffer, the bytes a run gathers before they are written, a parity
//! span's per-device runs — and every [`pario_disk::Ticket`] hands its
//! buffer back when the transfer is done. Those buffers come from here
//! and return here, so a steady stream of spans allocates nothing.
//!
//! The rule: a buffer is taken by its exact length; a miss allocates it
//! zeroed, which is what every caller did before the list existed; the
//! list never holds more than [`BOUND`] bytes, and past that the oldest
//! buffers go (a list that kept what it had would fill up with lengths
//! nobody asks for any more — a volume's prefill, the previous file's
//! span size — and miss for ever after). A taken buffer carries whatever
//! its last user left in it: every caller overwrites all of it — a read
//! that succeeds fills the whole buffer, a write gathers into the whole
//! buffer — before a byte of it is looked at.

use std::collections::VecDeque;

use pario_check::{LockLevel, Mutex};

/// Most bytes the list holds. Sized on the gated `span-parity`: two
/// clients moving 64-block spans of a rotated 3+1 file (runs of 21 to 23
/// rows) miss a third of their takes under 512 KiB, one in a thousand
/// under 1 MiB, and under 2 MiB only the 25 that warm the list up — as
/// many as under 4 MiB (DESIGN §7, "Staging").
const BOUND: usize = 2 << 20;

pub(crate) struct Staging {
    /// Free buffers, oldest first, and their total length. Rank
    /// `fs.staging`: taken under the stripe lock, never held across an
    /// allocation, a free or any other lock.
    spare: Mutex<(usize, VecDeque<Box<[u8]>>)>,
}

impl Staging {
    pub(crate) fn new() -> Staging {
        Staging {
            spare: Mutex::new_named((0, VecDeque::new()), LockLevel::FsStaging),
        }
    }

    /// A buffer of exactly `len` bytes, contents unspecified: the most
    /// recently returned one of that length, or a new one.
    pub(crate) fn take(&self, len: usize) -> Box<[u8]> {
        let hit = {
            let mut spare = self.spare.lock();
            let (bytes, list) = &mut *spare;
            let at = list.iter().rposition(|b| b.len() == len);
            at.and_then(|i| list.remove(i)).inspect(|_| *bytes -= len)
        };
        hit.unwrap_or_else(|| vec![0u8; len].into_boxed_slice())
    }

    /// Hand a buffer back. Whatever no longer fits the bound is freed
    /// after the lock is released.
    pub(crate) fn give(&self, buf: Box<[u8]>) {
        if buf.is_empty() || buf.len() > BOUND {
            return;
        }
        let mut evicted = Vec::new();
        {
            let mut spare = self.spare.lock();
            let (bytes, list) = &mut *spare;
            *bytes += buf.len();
            list.push_back(buf);
            while *bytes > BOUND {
                // invariant: `bytes` is the list's total, so it is not empty.
                let oldest = list.pop_front().expect("bytes held by no buffer");
                *bytes -= oldest.len();
                evicted.push(oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{FileSpec, Volume, VolumeConfig};
    use pario_layout::LayoutSpec;

    const BS: usize = 4096;

    /// Bytes on the list, checked against the buffers it holds.
    fn held(v: &Volume) -> usize {
        let spare = v.staging().spare.lock();
        assert_eq!(spare.0, spare.1.iter().map(|b| b.len()).sum::<usize>());
        spare.0
    }

    #[test]
    fn spans_of_fifty_lengths_leave_the_list_under_its_bound() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: BS,
        })
        .unwrap();
        let parity = LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        };
        let striped = LayoutSpec::Striped {
            devices: 4,
            unit: 1,
        };
        let files = [("p", parity), ("s", striped)].map(|(name, layout)| {
            let spec = FileSpec::new(name, BS, 1, layout).initial_records(151);
            v.create_file(spec).unwrap()
        });
        // 50 lengths, two layouts, ragged starts: ~20 MiB of staging in
        // a couple of hundred lengths goes through a 2 MiB list.
        let mut out = vec![0u8; 150 * BS];
        for blocks in (1..=50).map(|n| n * 3) {
            let data: Vec<u8> = (0..blocks * BS).map(|i| (i / 5 + blocks) as u8).collect();
            for f in &files {
                f.write_span(BS as u64, &data).unwrap();
                assert!(held(&v) <= BOUND);
                f.read_span(BS as u64, &mut out[..data.len()]).unwrap();
                assert!(held(&v) <= BOUND);
                assert_eq!(out[..data.len()], data[..], "{blocks} blocks");
            }
        }
        // Past the bound the oldest went: what the last spans used is
        // still there, so repeating one takes and returns the same bytes.
        let before = held(&v);
        assert!(before > BOUND / 2, "the list keeps what fits: {before}");
        files[0].read_span(BS as u64, &mut out).unwrap();
        assert_eq!(held(&v), before);
        // An oversized or an empty buffer never enters.
        v.staging().give(vec![0u8; BOUND + 1].into_boxed_slice());
        v.staging().give(Box::default());
        assert_eq!(held(&v), before);
    }

    /// Behind the cache tier a read's buffer is the tier's own: record
    /// traffic on a cached volume must not stream blocks through the
    /// list — nothing there takes them, and every one would push the
    /// oldest out.
    #[test]
    fn a_cached_volume_s_reads_stay_out_of_the_list() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: BS,
        })
        .unwrap();
        v.enable_cache(pario_buffer::VolumeCacheConfig::write_back(16))
            .unwrap();
        let striped = LayoutSpec::Striped {
            devices: 4,
            unit: 1,
        };
        let spec = FileSpec::new("s", BS, 1, striped).initial_records(64);
        let f = v.create_file(spec).unwrap();
        let mut block = vec![0u8; BS];
        for r in 0..64 {
            block.fill(r as u8);
            f.write_record(r, &block).unwrap();
        }
        for r in (0..64).cycle().take(1000) {
            f.read_record(r, &mut block).unwrap();
            assert_eq!(block[0], r as u8);
        }
        // One gathered block goes round on the write side.
        assert!(held(&v) <= BS, "{} bytes on the list", held(&v));
    }
}
