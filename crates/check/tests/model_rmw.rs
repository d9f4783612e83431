//! Model checks for the `pario_fs` sub-block read-modify-write path. A
//! write holds the logical blocks it touches, so concurrent writers to
//! disjoint byte ranges of the *same* block both land, a whole-block
//! write is never undone by a read-modify-write of its block, and
//! record writers on different blocks proceed while either holds its
//! block; the write path respects the alloc-before-blocks lock
//! hierarchy in every schedule. The parity models at the bottom race a
//! full-stripe span writer and a single-block read-modify-write against
//! a rebuild burst holding the file's rows, and against a span reader
//! that reconstructs a Rebuilding device's column; and they pin the row
//! locks themselves: writers on disjoint stripes proceed while either
//! holds its rows, writers on one stripe serialise.
#![cfg(pario_check)]

use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use pario_check::{spawn, Condvar, Config, Explorer, Mutex};
use pario_disk::{BlockDevice, DeviceRef, IoCounters, MemDisk};
use pario_fs::{FileSpec, RawFile, Volume, VolumeConfig};
use pario_layout::LayoutSpec;

const BS: usize = 64;

fn small_volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 2,
        device_blocks: 128,
        block_size: BS,
    })
    .expect("in-memory volume")
}

/// Two writers to disjoint sub-ranges of block 0. Unless each holds the
/// block, one writer's read-modify-write window swallows the other's
/// bytes; the checker must find no such schedule in the production
/// build. (The `pario_check_demo` build takes no block and
/// `tests/model_demo_race.rs` asserts the checker finds the loss.)
#[test]
fn sub_block_writers_do_not_lose_updates() {
    let report = Explorer::new(Config::new(400)).run(|| {
        let v = small_volume();
        let f = v
            .create_file(
                FileSpec::new(
                    "m",
                    16,
                    4,
                    LayoutSpec::Striped {
                        devices: 2,
                        unit: 1,
                    },
                )
                .initial_records(16),
            )
            .expect("create file");
        f.write_span(0, &[0u8; BS]).expect("zero block 0");

        let f1 = f.clone();
        let h1 = spawn(move || {
            f1.write_span(0, &[0xAA; 16]).expect("sub-block write");
        });
        let f2 = f.clone();
        let h2 = spawn(move || {
            f2.write_span(32, &[0xBB; 16]).expect("sub-block write");
        });
        h1.join();
        h2.join();

        let mut out = [0u8; BS];
        f.read_span(0, &mut out).expect("read back");
        assert!(
            out[..16].iter().all(|&b| b == 0xAA),
            "writer 1's bytes lost: {:?}",
            &out[..16]
        );
        assert!(
            out[32..48].iter().all(|&b| b == 0xBB),
            "writer 2's bytes lost: {:?}",
            &out[32..48]
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A writer that triggers allocation (file growth) racing a sub-block
/// RMW writer: the alloc lock (rank `fs.alloc`) must always be released
/// before the block table (rank `fs.rmw`) is taken — any schedule that
/// acquires them in descending order is flagged as a LockOrder failure.
#[test]
fn alloc_and_rmw_never_invert() {
    let report = Explorer::new(Config::new(300)).run(|| {
        let v = small_volume();
        let f = v
            .create_file(
                FileSpec::new(
                    "g",
                    16,
                    4,
                    LayoutSpec::Striped {
                        devices: 2,
                        unit: 1,
                    },
                )
                .initial_records(8),
            )
            .expect("create file");
        f.write_span(0, &[0u8; BS]).expect("zero block 0");

        let f1 = f.clone();
        let h1 = spawn(move || {
            // Grows the file: allocator lock, then block writes.
            f1.ensure_capacity_records(64).expect("grow");
        });
        let f2 = f.clone();
        let h2 = spawn(move || {
            // Sub-block RMW inside existing capacity: block table.
            f2.write_span(16, &[2u8; 16]).expect("sub-block write");
        });
        h1.join();
        h2.join();

        let mut out = [0u8; 32];
        f.read_span(0, &mut out).expect("read back");
        assert!(out[16..32].iter().all(|&b| b == 2), "rmw bytes lost");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A whole-block writer and a sub-block writer into block 0. The
/// read-modify-write holds the block from its read to its write, so no
/// schedule lands the whole block in between only to have the stale
/// copy written back over it: the bytes outside the record end as the
/// whole-block writer's, and the record as one writer's whole.
#[test]
fn whole_block_and_sub_block_writers_do_not_lose_updates() {
    let report = Explorer::new(Config::new(400)).run(|| {
        let v = small_volume();
        let spec = FileSpec::new(
            "w",
            16,
            4,
            LayoutSpec::Striped {
                devices: 2,
                unit: 1,
            },
        );
        let f = v
            .create_file(spec.initial_records(16))
            .expect("create file");
        f.write_span(0, &[0u8; BS]).expect("zero block 0");

        let f1 = f.clone();
        let whole = spawn(move || {
            f1.write_span(0, &[0xAA; BS]).expect("whole-block write");
        });
        let f2 = f.clone();
        let record = spawn(move || {
            f2.write_span(16, &[0xBB; 16]).expect("sub-block write");
        });
        whole.join();
        record.join();

        let mut out = [0u8; BS];
        f.read_span(0, &mut out).expect("read back");
        assert!(
            out[..16].iter().chain(&out[32..]).all(|&b| b == 0xAA),
            "the whole-block write was undone: {out:?}"
        );
        let tag = out[16];
        assert!(
            (tag == 0xAA || tag == 0xBB) && out[16..32].iter().all(|&b| b == tag),
            "the record is torn: {:?}",
            &out[16..32]
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A memory device whose writes, once it is told a flag, wait for that
/// flag: a writer parks there inside its read-modify-write, holding its
/// block, until another thread raises it.
struct Pause {
    inner: MemDisk,
    until: Mutex<Option<Arc<Flag>>>,
}

impl Pause {
    fn new() -> Arc<Pause> {
        Arc::new(Pause {
            inner: MemDisk::new(128, BS),
            until: Mutex::new(None),
        })
    }

    fn hold_writes_until(&self, flag: &Arc<Flag>) {
        *self.until.lock() = Some(Arc::clone(flag));
    }
}

impl BlockDevice for Pause {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        let until = self.until.lock().clone();
        if let Some(flag) = until {
            flag.wait();
        }
        self.inner.write_blocks_at(block, data)
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn fail(&self) {}
    fn heal(&self) {}
    fn is_failed(&self) -> bool {
        false
    }
}

/// Two record writers on different blocks of a 2-device stripe, block 0
/// on device 0 and block 1 on device 1. The first writer's write parks
/// on device 0, holding block 0, until the second writer's first record
/// has landed; the second writer's next write then parks on device 1,
/// holding block 1, until the first writer's record has landed. So each
/// write makes progress while the other writer holds its block. A
/// file-wide lock deadlocks every schedule here: the holder waits for a
/// write that waits for the holder.
#[test]
fn record_writers_on_different_blocks_both_progress_while_either_holds_its_block() {
    let report = Explorer::new(Config::new(400)).run(|| {
        let devices = [Pause::new(), Pause::new()];
        let v = Volume::new(devices.iter().map(|d| Arc::clone(d) as DeviceRef).collect())
            .expect("volume");
        let spec = FileSpec::new(
            "r",
            16,
            4,
            LayoutSpec::Striped {
                devices: 2,
                unit: 1,
            },
        );
        let f = v.create_file(spec.initial_records(8)).expect("create file");
        f.write_span(0, &[0u8; 2 * BS])
            .expect("zero blocks 0 and 1");
        let landed: Arc<[Arc<Flag>; 2]> = Arc::default();
        devices[0].hold_writes_until(&landed[1]);

        let (f1, l1) = (f.clone(), Arc::clone(&landed));
        let first = spawn(move || {
            f1.write_span(16, &[0xA5; 16]).expect("block 0 record");
            l1[0].raise();
        });
        let (f2, l2, d1) = (f.clone(), Arc::clone(&landed), Arc::clone(&devices[1]));
        let second = spawn(move || {
            f2.write_span(BS as u64 + 16, &[0x3C; 16])
                .expect("block 1 record");
            l2[1].raise();
            d1.hold_writes_until(&l2[0]);
            f2.write_span(BS as u64 + 32, &[0x3C; 16])
                .expect("block 1 second record");
        });
        first.join();
        second.join();

        let mut got = [0u8; 2 * BS];
        f.read_span(0, &mut got).expect("read back");
        let mut want = [0u8; 2 * BS];
        want[16..32].fill(0xA5);
        want[BS + 16..BS + 48].fill(0x3C);
        assert_eq!(got, want);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A full-stripe span writer, a single-block read-modify-write writer
/// and a rebuild burst (`lock_rows` over both stripes) on a two-stripe
/// parity file. A writer holds its stripes' rows across its whole plan,
/// so in every schedule the burst sees each stripe's parity equal to the
/// XOR of its data — never a half-written plan — and so does the final
/// state; block 4, which both writers write, holds one writer's bytes
/// whole. Taking the row table's mutex (rank `fs.stripe`, 70) under a
/// higher rank, or the cache, health board and device locks out of
/// order, is a LockOrder failure.
#[test]
fn full_stripe_writer_rmw_writer_and_rebuild_burst_keep_parity() {
    const W: u64 = 3;
    let report = Explorer::new(Config::new(1000)).run(|| {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: BS,
        })
        .expect("in-memory volume");
        let spec = LayoutSpec::Parity {
            data_devices: W as usize,
            rotated: true,
        };
        let f = v
            .create_file(FileSpec::new("p", BS, 1, spec).initial_records(2 * W))
            .expect("create file");
        f.write_span(0, &[0x11; 2 * W as usize * BS])
            .expect("prefill both stripes");

        // Every stripe's parity is the XOR of its data blocks.
        fn assert_stripes_consistent(f: &pario_fs::RawFile, when: &str) {
            let torn = f.scrub_rows(0, 2).expect("scrub both stripes");
            assert!(torn.is_empty(), "stripes {torn:?} torn {when}");
        }

        let f1 = f.clone();
        let span = spawn(move || {
            f1.write_span(0, &[0xA5; 2 * W as usize * BS])
                .expect("full-stripe span");
        });
        let f2 = f.clone();
        let rmw = spawn(move || {
            f2.write_span(4 * BS as u64, &[0x3C; BS])
                .expect("one-block read-modify-write");
        });
        let f3 = f.clone();
        let burst = spawn(move || {
            let _g = f3.lock_rows(0..2);
            assert_stripes_consistent(&f3, "inside a rebuild burst");
        });
        span.join();
        rmw.join();
        burst.join();

        assert_stripes_consistent(&f, "after every writer finished");
        let mut got = [0u8; 2 * W as usize * BS];
        f.read_span(0, &mut got).expect("read back");
        for (l, block) in got.chunks(BS).enumerate() {
            let ok = |tag: u8| block.iter().all(|&b| b == tag);
            assert!(ok(0xA5) || (l == 4 && ok(0x3C)), "block {l}: {block:?}");
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // Three threads through the same rows, each holding them across a
    // multi-transfer plan: hundreds of distinct interleaving classes.
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// A span reader that reconstructs a whole column — device slot 0 is
/// Rebuilding, so its block of every stripe comes from the survivors —
/// against a full-span `submit_parity` and a single-block
/// read-modify-write on a two-stripe parity file. The reader holds the
/// span's rows before it reads anything and reads every surviving column
/// holding them, so in every schedule each stripe it returns is the
/// stripe before or after each write, whole: a reconstruction that mixed
/// one write's data with another's parity would return bytes nobody
/// wrote. Taking the row table's mutex (rank 70) out of order is a
/// LockOrder failure.
#[test]
fn column_reconstruction_sees_every_stripe_before_or_after_each_write() {
    const W: usize = 3;
    let report = Explorer::new(Config::new(600)).run(|| {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: BS,
        })
        .expect("in-memory volume");
        let spec = LayoutSpec::Parity {
            data_devices: W,
            rotated: true,
        };
        let f = v
            .create_file(FileSpec::new("p", BS, 1, spec).initial_records(2 * W as u64))
            .expect("create file");
        f.write_span(0, &[0x11; 2 * W * BS])
            .expect("prefill both stripes");
        // Slot 0 holds a data block of both stripes (blocks 0 and 3).
        let dev = f.meta_snapshot().device_map[0];
        v.health().mark_failed(dev);
        v.health().begin_rebuild(dev, || ());

        // Each block is one writer's bytes whole; stripe 0 is only the
        // span writer's, block 4 may be either's.
        fn assert_snapshot(got: &[u8], when: &str) {
            let tag = |l: usize| {
                let block = &got[l * BS..(l + 1) * BS];
                assert!(
                    block.iter().all(|&b| b == block[0]),
                    "block {l} torn {when}: {block:?}"
                );
                block[0]
            };
            let stripe0 = [tag(0), tag(1), tag(2)];
            assert!(
                stripe0 == [0x11; 3] || stripe0 == [0xA5; 3],
                "stripe 0 {when}: {stripe0:x?}"
            );
            let stripe1 = [tag(3), tag(4), tag(5)];
            let legal = [
                [0x11, 0x11, 0x11],
                [0x11, 0x3C, 0x11],
                [0xA5, 0xA5, 0xA5],
                [0xA5, 0x3C, 0xA5],
            ];
            assert!(legal.contains(&stripe1), "stripe 1 {when}: {stripe1:x?}");
        }

        let f1 = f.clone();
        let span = spawn(move || {
            f1.write_span(0, &[0xA5; 2 * W * BS])
                .expect("full-stripe span");
        });
        let f2 = f.clone();
        let rmw = spawn(move || {
            f2.write_span(4 * BS as u64, &[0x3C; BS])
                .expect("one-block read-modify-write");
        });
        let f3 = f.clone();
        let reader = spawn(move || {
            let mut got = [0u8; 2 * W * BS];
            f3.read_span(0, &mut got).expect("degraded span read");
            assert_snapshot(&got, "under the writers");
        });
        span.join();
        rmw.join();
        reader.join();

        let mut got = [0u8; 2 * W * BS];
        f.read_span(0, &mut got).expect("read back");
        assert_snapshot(&got, "after every writer finished");
        assert_eq!(got[0], 0xA5, "the span writer finished");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// A flag one model thread raises and another waits for.
#[derive(Default)]
struct Flag {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl Flag {
    fn raise(&self) {
        *self.raised.lock() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut raised = self.raised.lock();
        while !*raised {
            self.cv.wait(&mut raised);
        }
    }
}

/// A rotated 3+1 parity file of two stripes, every block `0x11`.
fn two_stripes() -> RawFile {
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 256,
        block_size: BS,
    })
    .expect("in-memory volume");
    let spec = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let f = v
        .create_file(FileSpec::new("p", BS, 1, spec).initial_records(6))
        .expect("create file");
    f.write_span(0, &[0x11; 6 * BS])
        .expect("prefill both stripes");
    f
}

/// Two one-block writers on different stripes of a parity file. Each
/// holds its own stripe's row while the other's read-modify-write lands
/// — the first before it writes, the second after — so each write makes
/// progress while the other writer holds its rows. A file-wide lock
/// deadlocks every schedule here: the holder waits for a write that
/// waits for the holder.
#[test]
fn disjoint_stripe_writers_both_progress_while_either_holds_its_rows() {
    let report = Explorer::new(Config::new(400)).run(|| {
        let f = two_stripes();
        let landed: Arc<[Flag; 2]> = Arc::default();
        let (f1, l1) = (f.clone(), Arc::clone(&landed));
        let first = spawn(move || {
            {
                let _held = f1.lock_rows(0..1);
                l1[1].wait();
            }
            f1.write_span(BS as u64, &[0xA5; BS])
                .expect("stripe 0 write");
            l1[0].raise();
        });
        let (f2, l2) = (f.clone(), Arc::clone(&landed));
        let second = spawn(move || {
            f2.write_span(4 * BS as u64, &[0x3C; BS])
                .expect("stripe 1 write");
            l2[1].raise();
            let _held = f2.lock_rows(1..2);
            l2[0].wait();
        });
        first.join();
        second.join();

        let torn = f.scrub_rows(0, 2).expect("scrub both stripes");
        assert!(torn.is_empty(), "stripes {torn:?} torn");
        let mut got = [0u8; 6 * BS];
        f.read_span(0, &mut got).expect("read back");
        for (l, block) in got.chunks(BS).enumerate() {
            let tag = [0x11, 0xA5, 0x11, 0x11, 0x3C, 0x11][l];
            assert!(block.iter().all(|&b| b == tag), "block {l}: {block:?}");
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// Two one-block writers on the same stripe of a parity file: each reads
/// the stripe's old parity and writes a new one, so unless their rows
/// serialise them, one parity update is lost and the stripe scrubs torn.
/// A row lock that ignores overlap fails here.
#[test]
fn overlapping_stripe_writers_serialise() {
    let report = Explorer::new(Config::new(600)).run(|| {
        let f = two_stripes();
        let writers: Vec<_> = [(0u64, 0xAAu8), (1, 0xBB)]
            .into_iter()
            .map(|(l, tag)| {
                let f = f.clone();
                spawn(move || {
                    f.write_span(l * BS as u64, &[tag; BS])
                        .expect("stripe 0 write");
                })
            })
            .collect();
        for w in writers {
            w.join();
        }

        let torn = f.scrub_rows(0, 2).expect("scrub both stripes");
        assert!(torn.is_empty(), "stripes {torn:?} torn");
        let mut got = [0u8; 2 * BS];
        f.read_span(0, &mut got).expect("read back");
        assert!(got[..BS].iter().all(|&b| b == 0xAA), "block 0 lost");
        assert!(got[BS..].iter().all(|&b| b == 0xBB), "block 1 lost");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 16,
        "only {} distinct schedules",
        report.distinct
    );
}

/// A memory device whose reads wait while `shut`: polling, so that a
/// model thread serving one inline yields to the scheduler, and an
/// I/O node's worker sleeps.
struct Gate {
    inner: MemDisk,
    shut: std::sync::atomic::AtomicBool,
}

impl BlockDevice for Gate {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
        while self.shut.load(SeqCst) {
            if !pario_check::yield_now() {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        self.inner.read_blocks_at(block, buf)
    }
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
        self.inner.write_blocks_at(block, data)
    }
    fn counters(&self) -> IoCounters {
        self.inner.counters()
    }
    fn fail(&self) {}
    fn heal(&self) {}
    fn is_failed(&self) -> bool {
        false
    }
}

/// A stream writer dropped with a full window queued — every I/O node
/// busy with a read held at its gate — lands the window, one run a
/// device, data and parity, before any other holder gets its stripes'
/// rows. A second model thread takes the rows once the window is
/// submitted, before or after the drop, while a third opens the gates:
/// whichever thread the parked window is in the way of lands it first,
/// so the holder finds every run on the media. A drop that let the rows
/// go at once would hand them over with the runs still queued.
#[test]
fn a_dropped_stream_writer_lands_its_window_before_its_rows_go() {
    let report = Explorer::new(Config::new(200)).run(|| {
        let gates: Vec<_> = (0..4)
            .map(|_| {
                let inner = MemDisk::new(256, BS);
                let shut = std::sync::atomic::AtomicBool::new(false);
                Arc::new(Gate { inner, shut })
            })
            .collect();
        let v = Volume::new(gates.iter().map(|g| Arc::clone(g) as DeviceRef).collect())
            .expect("volume");
        let spec = LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        };
        let f = v
            .create_file(FileSpec::new("p", BS, 1, spec).initial_records(30))
            .expect("create file");
        let before = (0..4).map(|d| v.device(d).counters().writes).sum::<u64>();
        // Hedged reads always queue: each node's worker holds one at
        // its gate, so whatever is submitted next queues behind it.
        let gate = |shut: bool| {
            let gates = gates.clone();
            move || gates.iter().for_each(|g| g.shut.store(shut, SeqCst))
        };
        gate(true)();
        let held: Vec<_> = (0..4)
            .map(|d| {
                v.io_device(d)
                    .submit_hedged_read_blocks(0, vec![0; BS].into())
            })
            .collect();

        let submitted = Arc::new(Flag::default());
        let (f1, s1) = (f.clone(), Arc::clone(&submitted));
        let writer = spawn(move || {
            let mut w = pario_fs::GlobalWriter::truncate(f1).expect("truncate");
            // 30 blocks: the window, ten whole stripes.
            for i in 0..30u8 {
                w.write_record(&[i; BS]).expect("record");
            }
            s1.raise();
            drop(w);
        });
        let (v2, s2) = (v.clone(), Arc::clone(&submitted));
        let holder = spawn(move || {
            s2.wait();
            let _rows = f.lock_rows(0..10);
            let writes = (0..4).map(|d| v2.device(d).counters().writes).sum::<u64>();
            assert_eq!(writes - before, 4, "the rows went with the window queued");
        });
        let open = gate(false);
        let opener = spawn(move || {
            submitted.wait();
            open();
        });
        writer.join();
        holder.join();
        opener.join();
        for t in held {
            t.wait().expect("held read");
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}
