//! Model checks for `pario_fs::RangeLocks`: overlapping ranges
//! serialise their holders, disjoint ranges never block, and release
//! wakeups are never lost. And for the `fs.staging` rank: two files'
//! spans recycle one volume's staging buffers holding their rows.
#![cfg(pario_check)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pario_check::{spawn, AtomicU64, Config, Explorer, LockLevel};
use pario_fs::RangeLocks;
use pario_fs::{FileSpec, Volume, VolumeConfig};
use pario_layout::LayoutSpec;

/// Three writers to the same range do unprotected read-modify-writes
/// under the lock: any schedule in which the lock fails to serialise
/// them loses an update and fails the final assertion.
#[test]
fn overlapping_writers_serialise() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let locks = Arc::new(RangeLocks::new(LockLevel::RangeLock));
        let n = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for _ in 0..3 {
            let locks = Arc::clone(&locks);
            let n = Arc::clone(&n);
            hs.push(spawn(move || {
                let _g = locks.acquire(5, 15);
                // Deliberately non-atomic update: correct only if the
                // range lock serialises us.
                let v = n.load(Ordering::SeqCst);
                n.store(v + 1, Ordering::SeqCst);
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(n.load(Ordering::SeqCst), 3, "range lock lost an update");
        assert_eq!(locks.held(), 0, "range leaked past its guard");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // `distinct` counts interleaving equivalence classes (Foata canonical
    // form), not raw decision traces; three writers funnelled through one
    // range lock have a class space in the low hundreds.
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// Disjoint ranges are granted without blocking in every schedule, and
/// `try_acquire` is exact about overlap.
#[test]
fn disjoint_ranges_never_block() {
    let report = Explorer::new(Config::new(1200)).run(|| {
        let locks = Arc::new(RangeLocks::new(LockLevel::RangeLock));
        let g0 = locks.acquire(0, 10);
        let l2 = Arc::clone(&locks);
        let h = spawn(move || {
            let g = l2.try_acquire(10, 20);
            assert!(g.is_some(), "disjoint range refused");
            assert!(l2.try_acquire(5, 15).is_none(), "overlap granted");
        });
        h.join();
        drop(g0);
        assert_eq!(locks.held(), 0);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A chain of waiters on the same range: every release must wake the
/// next waiter (a lost wakeup shows up as a model deadlock).
#[test]
fn release_never_loses_a_wakeup() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let locks = Arc::new(RangeLocks::new(LockLevel::RangeLock));
        let mut hs = Vec::new();
        for _ in 0..3 {
            let locks = Arc::clone(&locks);
            hs.push(spawn(move || {
                let _g = locks.acquire(0, 100);
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(locks.held(), 0);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // See above: counted by equivalence class, and this model is small.
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// Two span writers on two parity files of ONE volume share its staging
/// list (rank `fs.staging`, 72). Each stages its runs, takes its read
/// buffers and hands all of them back holding its own file's rows (a
/// range of the file's row table, whose rank-70 mutex is held only
/// while a range is granted or released) or with nothing held; the
/// list's lock is a leaf, so taking anything under it — or taking it under the cache, the health board
/// or a device — is a LockOrder failure in some schedule here. The
/// buffers cross from file to file in every schedule (same geometry,
/// same lengths): each file must still read back its own bytes, whole.
#[test]
fn two_files_recycle_one_staging_list_under_their_row_locks() {
    const BS: usize = 64;
    const BLOCKS: usize = 7;
    let report = Explorer::new(Config::new(600)).run(|| {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 512,
            block_size: BS,
        })
        .expect("in-memory volume");
        let spec = LayoutSpec::Parity {
            data_devices: 3,
            rotated: true,
        };
        let mut hs = Vec::new();
        for tag in [0x5Au8, 0xC3] {
            let name = format!("f{tag}");
            let f = v
                .create_file(FileSpec::new(&name, BS, 1, spec.clone()).initial_records(9))
                .expect("create file");
            hs.push(spawn(move || {
                // Ragged at both ends: reads, staged runs and a span
                // read all go through the list, twice over.
                for round in 0..2u8 {
                    let data = [tag ^ round; BLOCKS * BS];
                    f.write_span(BS as u64, &data).expect("ragged span write");
                    let mut got = [0u8; BLOCKS * BS];
                    f.read_span(BS as u64, &mut got).expect("span read");
                    assert!(got == data, "file {tag:#x} read another file's bytes");
                }
            }));
        }
        for h in hs {
            h.join();
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}
