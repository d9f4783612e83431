//! Model checks for the `pario_fs` sub-block read-modify-write path:
//! concurrent writers to disjoint byte ranges of the *same* block must
//! both land (the per-file `rmw_lock` serialises the read/modify/write
//! window), and the write path must respect the alloc-before-rmw lock
//! hierarchy in every schedule. The parity models at the bottom race a
//! full-stripe span writer and a single-block read-modify-write against
//! a rebuild burst under the stripe lock, and against a span reader that
//! reconstructs a Rebuilding device's column.
#![cfg(pario_check)]

use pario_check::{spawn, Config, Explorer};
use pario_fs::{FileSpec, Volume, VolumeConfig};
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

/// Two writers to disjoint sub-ranges of block 0. Without the
/// `rmw_lock`, one writer's read-modify-write window swallows the
/// other's bytes; the checker must find no such schedule in the
/// production build. (The `pario_check_demo` build removes the lock and
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
/// before the rmw lock (rank `fs.rmw`) is taken — any schedule that
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
            // Sub-block RMW inside existing capacity: rmw lock.
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

/// A full-stripe span writer, a single-block read-modify-write writer
/// and a rebuild burst (`lock_stripes`) on a two-stripe parity file. The
/// stripe lock (rank `fs.stripe`) is held across a whole span plan, so
/// in every schedule the burst sees each stripe's parity equal to the
/// XOR of its data — never a half-written plan — and so does the final
/// state; block 4, which both writers write, holds one writer's bytes
/// whole. Taking a lower-ranked lock (or the cache, health board and
/// device locks out of order) under rank 70 is a LockOrder failure.
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
            let _g = f3.lock_stripes();
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
    // Three threads through one stripe lock, each holding it across a
    // multi-transfer plan: hundreds of distinct interleaving classes.
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// A span reader that reconstructs a whole column — device slot 0 is
/// Rebuilding, so its block of every stripe comes from the survivors —
/// against a full-span `parity_write` and a single-block
/// read-modify-write on a two-stripe parity file. The reader takes the
/// stripe lock before it reads anything and reads every surviving column
/// under it, so in every schedule each stripe it returns is the stripe
/// before or after each write, whole: a reconstruction that mixed one
/// write's data with another's parity would return bytes nobody wrote.
/// Rank 70 is held across the reader's wave (cache, health board and
/// device locks ascend from it); taking a lower rank under it is a
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
