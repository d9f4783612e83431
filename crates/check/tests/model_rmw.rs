//! Model checks for the `pario_fs` sub-block read-modify-write path:
//! concurrent writers to disjoint byte ranges of the *same* block must
//! both land (the per-file `rmw_lock` serialises the read/modify/write
//! window), and the write path must respect the alloc-before-rmw lock
//! hierarchy in every schedule. The parity model at the bottom races a
//! full-stripe span writer, a single-block read-modify-write and a
//! rebuild burst under the stripe lock.
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
            let mut block = [0u8; BS];
            for s in 0..2u64 {
                let mut acc = [0u8; BS];
                for slot in 0..=W as usize {
                    f.read_device_block(slot, s, &mut block).expect("read row");
                    acc.iter_mut().zip(&block).for_each(|(a, b)| *a ^= b);
                }
                assert!(acc.iter().all(|&b| b == 0), "stripe {s} torn {when}");
            }
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
