//! The real locks: `std::sync` behind a poison-free guard API.
//!
//! `lock()`/`read()`/`write()` return guards directly. Poisoning is
//! ignored: a thread that panics holding a lock leaves the data as it
//! was, and the next acquisition succeeds.
//!
//! These are the product's locks in a normal build (the crate root
//! re-exports them), and the real lock under each model lock of a
//! `--cfg pario_check` build. Named through this module, a lock is
//! never a scheduling point in either build: that is for a leaf whose
//! guard never lives across a yield point, and whose every acquisition
//! would otherwise multiply each model's schedule space without
//! guarding any protocol (`MemDisk`'s bytes are the one such site).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::hierarchy::LockLevel;

/// A mutual-exclusion primitive.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard of [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so Condvar::wait can move the std guard out and back.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// An unranked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// A mutex ranked at `level` in the documented lock hierarchy. The
    /// level is checked only under `--cfg pario_check`; here it
    /// vanishes.
    pub const fn new_named(value: T, _level: LockLevel) -> Mutex<T> {
        Mutex::new(value)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(g) })
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A reader-writer lock.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Guard of [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;

/// Guard of [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// A new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A condition variable paired with [`Mutex`]; `wait` takes the guard
/// by `&mut`.
///
/// `std`'s notify makes a futex-wake syscall whether or not anyone
/// waits; this one returns after one atomic load when nobody does. A
/// waiter is counted while it still holds its mutex, before it parks,
/// so the shortcut is sound under the rule every condvar use already
/// needs: the predicate changes under the mutex the waiter holds. A
/// notifier that took that mutex after the waiter parked sees the
/// count; one that took it before changed the predicate first, and the
/// waiter sees that instead of parking.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside [`Condvar::wait`].
    waiters: AtomicUsize,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Atomically release the guard's mutex and wait for a notification,
    /// reacquiring before return.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(g);
    }

    /// Wake one waiter, if there is one.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wake all waiters, if there are any.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(3);
        *m.lock() += 4;
        assert_eq!(*m.lock(), 7);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        h.join().unwrap();
    }

    #[test]
    fn a_notify_with_no_waiter_is_not_kept_and_a_later_waiter_still_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        pair.1.notify_one();
        pair.1.notify_all();
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        // Wait until the thread is parked, so the next notify must wake it.
        while pair.1.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        h.join().unwrap();
        assert_eq!(pair.1.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_two_thread_ping_pong_never_loses_a_wakeup() {
        const HANDOFFS: u64 = 100_000;
        // The turn counter: even is the main thread's, odd the other's.
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let play = |pair: Arc<(Mutex<u64>, Condvar)>, parity: u64| {
            move || {
                let (m, cv) = &*pair;
                let mut turn = m.lock();
                while *turn < HANDOFFS {
                    if *turn % 2 == parity {
                        *turn += 1;
                        cv.notify_one();
                    } else {
                        cv.wait(&mut turn);
                    }
                }
            }
        };
        let h = std::thread::spawn(play(Arc::clone(&pair), 1));
        play(Arc::clone(&pair), 0)();
        h.join().unwrap();
        assert_eq!(*pair.0.lock(), HANDOFFS);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 1);
        let l = Arc::new(RwLock::new(2));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison");
        })
        .join();
        assert_eq!(*l.read(), 2);
    }
}
