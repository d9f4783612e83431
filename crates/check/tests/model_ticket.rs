//! Model checks for the `pario_disk` I/O executor's ticket accounting:
//! model threads race submissions — and blocking calls and submissions
//! that run inline on an idle node — against a live (non-model) worker
//! thread, and every transfer must complete, one at a time, with exact
//! in-flight/serviced counts in every explored interleaving of the
//! enqueue and claim paths.
#![cfg(pario_check)]

use std::sync::atomic::{AtomicU64, Ordering};
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
    /// Transfers on [`CellDisk::SUBMITTED`] blocks that a thread other
    /// than the node's worker serviced: submissions run inline.
    inline_submissions: AtomicU64,
}

impl CellDisk {
    const BLOCKS: u64 = 16;
    /// The blocks only the submitting thread touches.
    const SUBMITTED: std::ops::Range<u64> = 2..4;

    fn new() -> CellDisk {
        CellDisk {
            body: CheckCell::new_labeled(vec![0u8; Self::BLOCKS as usize * BS], "device body"),
            busy: std::sync::atomic::AtomicBool::new(false),
            inline_submissions: AtomicU64::new(0),
        }
    }

    fn serve<T>(&self, block: u64, f: impl FnOnce() -> T) -> T {
        use std::sync::atomic::Ordering::SeqCst;
        assert!(!self.busy.swap(true, SeqCst), "two transfers in service");
        let worker = std::thread::current().name() == Some("pario-ionode");
        if Self::SUBMITTED.contains(&block) && !worker {
            self.inline_submissions.fetch_add(1, SeqCst);
        }
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
        self.serve(block, || {
            self.body
                .with(|d| buf.copy_from_slice(&d[at..at + buf.len()]))
        });
        Ok(())
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        let at = block as usize * BS;
        self.serve(block, || {
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
/// the worker otherwise) with submitted tickets on one node. A blocking
/// write before they start gives the node a service estimate, and under
/// the model every measured transfer counts as instant, so the estimate
/// is under the hand-off cost: a submission that finds the node idle
/// runs inline too, and its ticket comes back ready. In every
/// interleaving the device services one transfer at a time — a race on
/// the cell, or a trip of the busy flag, fails the schedule — every wait
/// returns (a worker that found the device taken is always woken), and
/// the gauges come out exact. Across the schedules the submitting
/// thread's transfers run both ways.
#[test]
fn inline_and_queued_transfers_take_turns_on_the_device() {
    let inline_submissions = Arc::new(AtomicU64::new(0));
    let queued_submissions = Arc::new(AtomicU64::new(0));
    let (inline_seen, queued_seen) = (
        Arc::clone(&inline_submissions),
        Arc::clone(&queued_submissions),
    );
    let report = Explorer::new(Config::new(2500)).run(move || {
        let disk = Arc::new(CellDisk::new());
        let node = IoNode::spawn(Arc::clone(&disk) as Arc<dyn BlockDevice>);
        let handle = node.device();
        handle.write_block(15, &[9u8; BS]).expect("warm-up write");
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
        assert_eq!(s.serviced, 13, "lost or double-counted transfer");
        assert_eq!(s.in_flight, 0, "in-flight gauge leaked");
        assert!(s.max_in_flight >= 1 && s.max_in_flight <= 3);
        assert_eq!(s.panics, 0, "a transfer tripped the busy flag");
        let inline = disk.inline_submissions.load(Ordering::SeqCst);
        inline_seen.fetch_add(inline, Ordering::SeqCst);
        queued_seen.fetch_add(4 - inline, Ordering::SeqCst);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 1000,
        "only {} distinct schedules",
        report.distinct
    );
    let (inline, queued) = (
        inline_submissions.load(Ordering::SeqCst),
        queued_submissions.load(Ordering::SeqCst),
    );
    assert!(
        inline > 0 && queued > 0,
        "submissions ran inline {inline}x and queued {queued}x"
    );
}

/// A device that holds the worker in a read of [`Held::GATE`] until a
/// model thread opens the gate. The worker is a free-running OS thread,
/// so it waits on a plain flag; model threads never block on it.
struct Held {
    inner: Arc<dyn BlockDevice>,
    open: std::sync::atomic::AtomicBool,
}

impl Held {
    const GATE: u64 = 0;
}

impl BlockDevice for Held {
    fn block_size(&self) -> usize {
        BS
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        while block == Held::GATE && !self.open.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.inner.write_blocks_at(block, data)
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

/// Slot reuse: a raced-out ticket is dropped while its transfer is still
/// queued behind the held worker, and the transfers submitted after it —
/// by the same thread and by a second one — take slots from the same
/// free list. Each owner must read its own block, never the dropped
/// transfer's late completion, and once every ticket is waited or
/// dropped and the worker is idle, every slot is back on the free list.
/// Recycling a dropped ticket's slot at the drop, before its transfer
/// completes, hands that completion to the slot's next owner.
#[test]
fn a_dropped_tickets_slot_never_reaches_its_next_owner_early() {
    let report = Explorer::new(Config::new(500)).run(|| {
        let inner = mem_array(1, 8, BS).remove(0);
        for b in 0..8u64 {
            inner.write_block(b, &[b as u8 + 1; BS]).expect("fill");
        }
        let held = Arc::new(Held {
            inner,
            open: std::sync::atomic::AtomicBool::new(false),
        });
        let node = IoNode::spawn(Arc::clone(&held) as Arc<dyn BlockDevice>);
        let handle = node.device();
        // Hedged reads always queue, whatever the node has measured.
        let read = |h: &Arc<dyn BlockDevice>, block: u64| {
            h.submit_hedged_read_blocks(block, vec![0u8; BS].into_boxed_slice())
        };
        let check = |block: u64, got: &[u8]| {
            let want = block as u8 + 1;
            assert!(
                got.iter().all(|&b| b == want),
                "a read of block {block} got block {}'s bytes",
                got[0].wrapping_sub(1)
            );
        };
        let other = Arc::clone(&handle);
        let second = spawn(move || {
            for block in [5u64, 6] {
                let got = read(&other, block).wait().expect("queued read");
                check(block, &got);
            }
        });
        let gate = read(&handle, Held::GATE);
        let loser = read(&handle, 1);
        let winner = pario_disk::Ticket::ready(Ok(vec![2u8; BS].into_boxed_slice()));
        let [Some(Ok(_)), None] = pario_disk::Ticket::race(winner, loser) else {
            panic!("a ready Ok wins the race and the queued copy is dropped");
        };
        let next = read(&handle, 2);
        held.open.store(true, Ordering::SeqCst);
        check(2, &next.wait().expect("queued read"));
        check(Held::GATE, &gate.wait().expect("gate read"));
        second.join();
        // The dropped read was queued before `next`, so the worker has
        // completed it and put its slot back.
        assert_eq!(node.slots_out(), 0, "a slot never came back");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 100,
        "only {} distinct schedules",
        report.distinct
    );
}
