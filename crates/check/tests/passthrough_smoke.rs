//! Normal-build smoke tests: without `--cfg pario_check` the crate's
//! primitives must behave exactly like std's and add no space beyond
//! it (the request path pays nothing for checkability).
#![cfg(not(pario_check))]

use std::sync::atomic::Ordering;

use pario_check::{AtomicU64, CheckCell, Condvar, LockLevel, Mutex, RwLock};

#[test]
fn passthrough_types_are_zero_overhead() {
    assert_eq!(
        std::mem::size_of::<Mutex<u64>>(),
        std::mem::size_of::<std::sync::Mutex<u64>>(),
    );
    assert_eq!(
        std::mem::size_of::<RwLock<u64>>(),
        std::mem::size_of::<std::sync::RwLock<u64>>(),
    );
    // The waiter count is the one addition: it lets a notify with no
    // waiter return after one load.
    assert_eq!(
        std::mem::size_of::<Condvar>(),
        std::mem::size_of::<(std::sync::Condvar, std::sync::atomic::AtomicUsize)>(),
    );
    assert_eq!(std::mem::size_of::<AtomicU64>(), std::mem::size_of::<u64>(),);
    // CheckCell is a bare UnsafeCell in normal builds: the label and the
    // clock metadata exist only under --cfg pario_check.
    assert_eq!(
        std::mem::size_of::<CheckCell<u64>>(),
        std::mem::size_of::<u64>()
    );
    assert_eq!(
        std::mem::size_of::<CheckCell<[u8; 24]>>(),
        std::mem::size_of::<[u8; 24]>()
    );
}

#[test]
fn check_cell_passthrough_works() {
    let cell = CheckCell::new_labeled(3u64, "smoke");
    assert_eq!(cell.get(), 3);
    cell.set(4);
    cell.with_mut(|v| *v += 1);
    assert_eq!(cell.with(|v| *v), 5);
    let mut cell = cell;
    *cell.get_mut() += 1;
    assert_eq!(cell.into_inner(), 6);
}

#[test]
fn mutex_and_condvar_work() {
    let m = Mutex::new_named(0u64, LockLevel::FsAlloc);
    {
        let mut g = m.lock();
        *g += 1;
    }
    assert_eq!(*m.lock(), 1);
    assert!(m.try_lock().is_some());

    let cv = Condvar::new();
    let flag = Mutex::new(true);
    let mut g = flag.lock();
    while !*g {
        cv.wait(&mut g);
    }
    cv.notify_all();
}

#[test]
fn rwlock_and_atomics_work() {
    let rw = RwLock::new(vec![1, 2, 3]);
    assert_eq!(rw.read().len(), 3);
    rw.write().push(4);
    assert_eq!(rw.read().len(), 4);

    let a = AtomicU64::new(5);
    assert_eq!(a.fetch_add(2, Ordering::SeqCst), 5);
    assert_eq!(a.load(Ordering::SeqCst), 7);
}

#[test]
fn lock_levels_have_stable_names_and_ranks() {
    // The hierarchy table in DESIGN.md §8 documents these exact pairs;
    // keep them in lockstep.
    let table = [
        (LockLevel::NetReplies, "net.replies", 5),
        (LockLevel::NetSend, "net.send", 7),
        (LockLevel::Admission, "server.admission", 20),
        (LockLevel::RangeLock, "server.range_lock", 30),
        (LockLevel::FsAlloc, "fs.alloc", 50),
        (LockLevel::FsRmw, "fs.rmw", 60),
        (LockLevel::FsStripe, "fs.stripe", 70),
        (LockLevel::FsStaging, "fs.staging", 72),
        (LockLevel::VolumeCache, "buffer.volume_cache", 75),
        (LockLevel::FsJournal, "fs.journal", 78),
        (LockLevel::FsHealth, "fs.health", 80),
        (LockLevel::FsLanding, "fs.landing", 85),
        (LockLevel::DiskDevice, "disk.device", 90),
        (LockLevel::DiskQueue, "disk.queue", 95),
        (LockLevel::Unranked, "unranked", 255),
    ];
    for (level, name, rank) in table {
        assert_eq!(level.name(), name);
        assert_eq!(level.rank(), rank);
    }
}
