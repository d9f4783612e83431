//! Model checks for the `pario_disk` I/O executor's ticket accounting:
//! model threads race submissions — and blocking calls that run inline
//! on an idle node — against a live (non-model) worker thread, and every
//! transfer must complete, one at a time, with exact in-flight/serviced
//! counts in every explored interleaving of the enqueue and claim paths.
#![cfg(pario_check)]

use std::sync::Arc;

use pario_check::{spawn, CheckCell, Config, Explorer};
use pario_disk::{mem_array, BlockDevice, DiskError, IoCounters, IoNode};

const BS: usize = 64;

/// Three submitters × two writes each through one node: every wait
/// returns, `serviced` counts each request exactly once, and the
/// in-flight gauge returns to zero (no lost or double-counted ticket).
#[test]
fn tickets_complete_with_exact_accounting() {
    let report = Explorer::new(Config::new(2500)).run(|| {
        let dev = mem_array(1, 64, BS).remove(0);
        let node = IoNode::spawn(dev);
        let handle = node.device();
        let mut hs = Vec::new();
        for t in 0..3u64 {
            let h = Arc::clone(&handle);
            hs.push(spawn(move || {
                for i in 0..2u64 {
                    let block = t * 2 + i;
                    let data = vec![t as u8 + 1; BS].into_boxed_slice();
                    let ticket = h.submit_write_blocks(block, data);
                    ticket.wait().expect("in-memory write never fails");
                }
            }));
        }
        for h in hs {
            h.join();
        }
        let s = node.stats();
        assert_eq!(s.serviced, 6, "lost or double-counted request");
        assert_eq!(s.in_flight, 0, "in-flight gauge leaked");
        assert!(s.max_in_flight >= 1 && s.max_in_flight <= 6);

        // Read everything back through fresh tickets: the data of every
        // write must have landed.
        for t in 0..3u64 {
            for i in 0..2u64 {
                let block = t * 2 + i;
                let buf = vec![0u8; BS].into_boxed_slice();
                let got = handle
                    .submit_read_blocks(block, buf)
                    .wait()
                    .expect("in-memory read never fails");
                assert!(
                    got.iter().all(|&b| b == t as u8 + 1),
                    "write to block {block} lost"
                );
            }
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 1000,
        "only {} distinct schedules",
        report.distinct
    );
}

/// A one-track device whose storage is a [`CheckCell`]: every transfer
/// is a checked access of the cell, so two transfers the node failed to
/// order are a data race the detector reports. The detector only sees
/// model threads — the node's worker is a free-running OS thread — so a
/// plain busy flag asserts one-at-a-time service across both kinds.
struct CellDisk {
    body: CheckCell<Vec<u8>>,
    busy: std::sync::atomic::AtomicBool,
}

impl CellDisk {
    const BLOCKS: u64 = 16;

    fn new() -> CellDisk {
        CellDisk {
            body: CheckCell::new_labeled(vec![0u8; Self::BLOCKS as usize * BS], "device body"),
            busy: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn serve<T>(&self, f: impl FnOnce() -> T) -> T {
        use std::sync::atomic::Ordering::SeqCst;
        assert!(!self.busy.swap(true, SeqCst), "two transfers in service");
        let out = f();
        self.busy.store(false, SeqCst);
        out
    }
}

impl BlockDevice for CellDisk {
    fn block_size(&self) -> usize {
        BS
    }
    fn num_blocks(&self) -> u64 {
        Self::BLOCKS
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let at = block as usize * BS;
        self.serve(|| {
            self.body
                .with(|d| buf.copy_from_slice(&d[at..at + buf.len()]))
        });
        Ok(())
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        let at = block as usize * BS;
        self.serve(|| {
            self.body
                .with_mut(|d| d[at..at + data.len()].copy_from_slice(data))
        });
        Ok(())
    }
    fn counters(&self) -> IoCounters {
        IoCounters::default()
    }
    fn fail(&self) {}
    fn heal(&self) {}
    fn is_failed(&self) -> bool {
        false
    }
}

/// Caller-runs against the queue: three model threads mix blocking calls
/// (which run inline whenever they find the node idle, and queue behind
/// the worker otherwise) with submitted tickets on one node. In every
/// interleaving the device services one transfer at a time — a race on
/// the cell, or a trip of the busy flag, fails the schedule — every wait
/// returns (a worker that found the device taken is always woken), and
/// the gauges come out exact.
#[test]
fn inline_and_queued_transfers_take_turns_on_the_device() {
    let report = Explorer::new(Config::new(2500)).run(|| {
        let node = IoNode::spawn(Arc::new(CellDisk::new()));
        let handle = node.device();
        let mut hs = Vec::new();
        for t in 0..3u64 {
            let h = Arc::clone(&handle);
            hs.push(spawn(move || {
                let fill = [t as u8 + 1; BS];
                let mut buf = [0u8; BS];
                // Thread 0 only blocks, thread 1 only submits, thread 2
                // does one of each, on blocks no other thread touches.
                for i in 0..2u64 {
                    let block = t * 2 + i;
                    if t == 0 || (t == 2 && i == 0) {
                        h.write_block(block, &fill).expect("cell write");
                        h.read_block(block, &mut buf).expect("cell read");
                    } else {
                        h.submit_write_blocks(block, fill.to_vec().into_boxed_slice())
                            .wait()
                            .expect("cell write");
                        let back = h
                            .submit_read_blocks(block, vec![0u8; BS].into_boxed_slice())
                            .wait()
                            .expect("cell read");
                        buf.copy_from_slice(&back);
                    }
                    assert_eq!(buf, fill, "block {block} read back wrong");
                }
            }));
        }
        for h in hs {
            h.join();
        }
        let s = node.stats();
        assert_eq!(s.serviced, 12, "lost or double-counted transfer");
        assert_eq!(s.in_flight, 0, "in-flight gauge leaked");
        assert!(s.max_in_flight >= 1 && s.max_in_flight <= 3);
        assert_eq!(s.panics, 0, "a transfer tripped the busy flag");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 1000,
        "only {} distinct schedules",
        report.distinct
    );
}
