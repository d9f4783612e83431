//! Block checksumming: single-bit-error *detection*.
//!
//! Kim's synchronized interleaving (cited in §5) "can handle either a
//! single-bit error in a striped block, or complete failure of a single
//! drive". Failure detection is trivial (the device stops answering);
//! bit errors need checksums. [`ChecksumDevice`] wraps any block device,
//! records a 64-bit FNV-1a checksum on every write, and turns a mismatch
//! on read into [`DiskError::Corruption`] — which the file layer's
//! degraded-read path then *corrects* via parity reconstruction.

use std::collections::HashMap;

use parking_lot::Mutex;

use pario_disk::{BlockDevice, DeviceRef, DiskError, IoCounters, Result};

/// FNV-1a over a block.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A checksum-verifying wrapper around any block device.
///
/// Checksums live in memory beside the device (a real controller keeps
/// them in sector trailers; the placement is irrelevant to the behaviour
/// under study). Blocks never written verify as all-zero blocks.
pub struct ChecksumDevice {
    inner: DeviceRef,
    sums: Mutex<HashMap<u64, u64>>,
    zero_sum: u64,
}

impl ChecksumDevice {
    /// Wrap `inner` with checksum verification.
    pub fn new(inner: DeviceRef) -> ChecksumDevice {
        let zero_sum = fnv1a(&vec![0u8; inner.block_size()]);
        ChecksumDevice {
            inner,
            sums: Mutex::new(HashMap::new()),
            zero_sum,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &DeviceRef {
        &self.inner
    }
}

impl BlockDevice for ChecksumDevice {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    /// Forward the whole run to the wrapped device's vectored path (one
    /// inner request), then verify each block's checksum.
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_blocks_at(block, buf)?;
        let sums = self.sums.lock();
        for (i, chunk) in buf.chunks(self.inner.block_size()).enumerate() {
            let b = block + i as u64;
            let expect = *sums.get(&b).unwrap_or(&self.zero_sum);
            if fnv1a(chunk) != expect {
                return Err(DiskError::Corruption { block: b });
            }
        }
        Ok(())
    }

    /// Forward the whole run (one inner request), then record each
    /// block's checksum.
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
        self.inner.write_blocks_at(block, data)?;
        let mut sums = self.sums.lock();
        for (i, chunk) in data.chunks(self.inner.block_size()).enumerate() {
            sums.insert(block + i as u64, fnv1a(chunk));
        }
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }

    fn fail(&self) {
        self.inner.fail()
    }

    fn heal(&self) {
        self.inner.heal()
    }

    fn is_failed(&self) -> bool {
        self.inner.is_failed()
    }

    fn label(&self) -> String {
        format!("cksum({})", self.inner.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_disk::MemDisk;
    use std::sync::Arc;

    #[test]
    fn clean_reads_verify() {
        let mem = Arc::new(MemDisk::new(8, 64));
        let d = ChecksumDevice::new(mem);
        let data = vec![0xA5; 64];
        d.write_block(2, &data).unwrap();
        let mut buf = vec![0u8; 64];
        d.read_block(2, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Unwritten blocks verify as zero blocks.
        d.read_block(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn bit_flip_detected() {
        let mem = Arc::new(MemDisk::new(8, 64));
        let d = ChecksumDevice::new(Arc::clone(&mem) as DeviceRef);
        d.write_block(3, &[0x11; 64]).unwrap();
        mem.corrupt_bit(3, 100);
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            d.read_block(3, &mut buf),
            Err(DiskError::Corruption { block: 3 })
        ));
        // Other blocks unaffected.
        d.read_block(1, &mut buf).unwrap();
        // Overwriting heals the checksum.
        d.write_block(3, &[0x22; 64]).unwrap();
        d.read_block(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x22));
    }

    #[test]
    fn vectored_path_verifies_every_block() {
        let mem = Arc::new(MemDisk::new(8, 64));
        let d = ChecksumDevice::new(Arc::clone(&mem) as DeviceRef);
        let data: Vec<u8> = (0..192).map(|i| i as u8).collect();
        d.write_blocks_at(2, &data).unwrap();
        let mut back = vec![0u8; 192];
        d.read_blocks_at(2, &mut back).unwrap();
        assert_eq!(back, data);
        // One inner request per span, not one per block.
        assert_eq!((mem.counters().reads, mem.counters().writes), (1, 1));
        // Corruption in the middle block of a span is caught.
        mem.corrupt_bit(3, 5);
        assert!(matches!(
            d.read_blocks_at(2, &mut back),
            Err(DiskError::Corruption { block: 3 })
        ));
    }

    #[test]
    fn fnv_distinguishes_blocks() {
        assert_ne!(fnv1a(&[0u8; 32]), fnv1a(&[1u8; 32]));
        let mut a = vec![7u8; 32];
        let h0 = fnv1a(&a);
        a[31] ^= 1;
        assert_ne!(h0, fnv1a(&a));
    }

    #[test]
    fn failure_passthrough() {
        let mem = Arc::new(MemDisk::new(4, 32));
        let d = ChecksumDevice::new(mem);
        d.fail();
        assert!(d.is_failed());
        let mut buf = vec![0u8; 32];
        assert!(matches!(
            d.read_block(0, &mut buf),
            Err(DiskError::DeviceFailed { .. })
        ));
        d.heal();
        assert!(d.read_block(0, &mut buf).is_ok());
        assert!(d.label().starts_with("cksum("));
    }
}
