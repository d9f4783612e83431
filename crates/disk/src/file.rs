//! File-backed block device.
//!
//! `FileDisk` stores blocks in a regular file using positioned reads and
//! writes, giving persistence across process restarts (exercised by the
//! volume-persistence integration tests) and a second, OS-backed
//! implementation of [`BlockDevice`] to keep the trait honest.

use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::Ordering;

use pario_check::{AtomicBool, AtomicU64};

use crate::device::{BlockDevice, IoCounters};
use crate::error::{DiskError, Result};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// A block device stored in a file on the host file system.
pub struct FileDisk {
    file: File,
    block_size: usize,
    num_blocks: u64,
    failed: AtomicBool,
    reads: AtomicU64,
    writes: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    name: String,
}

impl FileDisk {
    /// Create (or truncate) a device file of `num_blocks * block_size`
    /// bytes at `path`.
    pub fn create(path: &Path, num_blocks: u64, block_size: usize) -> Result<FileDisk> {
        assert!(block_size > 0);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(num_blocks * block_size as u64)?;
        Ok(FileDisk {
            file,
            block_size,
            num_blocks,
            failed: AtomicBool::new(false),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            name: path.display().to_string(),
        })
    }

    /// Open an existing device file created by [`FileDisk::create`].
    ///
    /// The file length must be a whole number of blocks.
    pub fn open(path: &Path, block_size: usize) -> Result<FileDisk> {
        assert!(block_size > 0);
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % block_size as u64 != 0 {
            return Err(DiskError::Io(format!(
                "file length {len} is not a multiple of block size {block_size}"
            )));
        }
        Ok(FileDisk {
            file,
            block_size,
            num_blocks: len / block_size as u64,
            failed: AtomicBool::new(false),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            name: path.display().to_string(),
        })
    }

    /// Checks a transfer of `len` bytes at `block`; returns its blocks.
    fn check_span(&self, block: u64, len: usize) -> Result<u64> {
        if self.failed.load(Ordering::Acquire) {
            return Err(DiskError::DeviceFailed {
                device: self.name.clone(),
            });
        }
        if !len.is_multiple_of(self.block_size) {
            return Err(DiskError::BadBufferSize {
                got: len,
                expected: self.block_size,
            });
        }
        let nblocks = (len / self.block_size) as u64;
        match block.checked_add(nblocks) {
            Some(end) if end <= self.num_blocks => Ok(nblocks),
            _ => Err(DiskError::OutOfRange {
                block: block.max(self.num_blocks),
                capacity: self.num_blocks,
            }),
        }
    }
}

impl BlockDevice for FileDisk {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// One positioned syscall for the whole run.
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        let nblocks = self.check_span(block, buf.len())?;
        if nblocks == 0 {
            return Ok(());
        }
        self.file
            .read_exact_at(buf, block * self.block_size as u64)?;
        self.reads.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        self.blocks_read.fetch_add(nblocks, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        Ok(())
    }

    /// One positioned syscall for the whole run.
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
        let nblocks = self.check_span(block, data.len())?;
        if nblocks == 0 {
            return Ok(());
        }
        self.file
            .write_all_at(data, block * self.block_size as u64)?;
        self.writes.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        self.blocks_written.fetch_add(nblocks, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn counters(&self) -> IoCounters {
        IoCounters {
            reads: self.reads.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            writes: self.writes.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            blocks_read: self.blocks_read.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            blocks_written: self.blocks_written.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
        }
    }

    fn fail(&self) {
        self.failed.store(true, Ordering::Release);
    }

    fn heal(&self) {
        self.failed.store(false, Ordering::Release);
    }

    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn label(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pario-filedisk-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = tmp("roundtrip");
        {
            let d = FileDisk::create(&path, 8, 64).unwrap();
            d.write_block(3, &[7u8; 64]).unwrap();
            d.flush().unwrap();
        }
        {
            let d = FileDisk::open(&path, 64).unwrap();
            assert_eq!(d.num_blocks(), 8);
            let mut buf = vec![0u8; 64];
            d.read_block(3, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 7));
            // Untouched block is zero (sparse file semantics).
            d.read_block(0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn vectored_span_round_trips_as_one_syscall() {
        let path = tmp("vectored");
        let d = FileDisk::create(&path, 16, 64).unwrap();
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        d.write_blocks_at(4, &data).unwrap();
        let mut back = vec![0u8; 256];
        d.read_blocks_at(4, &mut back).unwrap();
        assert_eq!(back, data);
        let c = d.counters();
        assert_eq!((c.reads, c.writes), (1, 1));
        assert_eq!((c.blocks_read, c.blocks_written), (4, 4));
        // Span running past the end is rejected up front.
        let mut big = vec![0u8; 64 * 4];
        assert!(matches!(
            d.read_blocks_at(14, &mut big),
            Err(DiskError::OutOfRange { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_ragged_length() {
        let path = tmp("ragged");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(FileDisk::open(&path, 64), Err(DiskError::Io(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fail_stop_applies() {
        let path = tmp("failstop");
        let d = FileDisk::create(&path, 2, 32).unwrap();
        d.fail();
        let mut buf = vec![0u8; 32];
        assert!(matches!(
            d.read_block(0, &mut buf),
            Err(DiskError::DeviceFailed { .. })
        ));
        d.heal();
        assert!(d.read_block(0, &mut buf).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let path = tmp("oob");
        let d = FileDisk::create(&path, 2, 32).unwrap();
        let mut buf = vec![0u8; 32];
        assert!(matches!(
            d.read_block(2, &mut buf),
            Err(DiskError::OutOfRange { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
