//! Normal-build primitives: thin, zero-overhead pass-throughs.
//!
//! Without `--cfg pario_check` the instrumented types collapse to
//! `parking_lot` wrappers (`#[repr(transparent)]`, every method
//! `#[inline]`) and the atomics are literal re-exports of
//! `std::sync::atomic`. The lock-level argument of
//! [`Mutex::new_named`] is dropped at compile time.

use crate::hierarchy::LockLevel;

pub use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

/// Yield to the model scheduler. There are no model threads in normal
/// builds, so this is a no-op that reports `false` ("not a model
/// thread") and loops guarded by it compile away.
#[inline(always)]
pub fn yield_now() -> bool {
    false
}

/// Guard type of [`Mutex::lock`] — the real `parking_lot` guard.
pub type MutexGuard<'a, T> = parking_lot::MutexGuard<'a, T>;

/// A mutual-exclusion primitive; in normal builds, `parking_lot::Mutex`
/// with a hierarchy-aware constructor that compiles to nothing.
#[repr(transparent)]
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// An unranked mutex (exempt from hierarchy checking).
    #[inline]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// A mutex ranked at `level` in the documented lock hierarchy. The
    /// level is checked only under `--cfg pario_check`; here it
    /// vanishes.
    #[inline]
    pub const fn new_named(value: T, _level: LockLevel) -> Mutex<T> {
        Mutex::new(value)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock()
    }

    /// Try to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.inner.try_lock()
    }

    /// Get the value mutably without locking (requires `&mut self`).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// A cell for plain shared data whose synchronization protocol is
/// verified under `--cfg pario_check`; in normal builds a zero-overhead
/// `UnsafeCell` — same size and codegen as the bare field it replaces.
///
/// Safety contract: callers must ensure accesses are ordered by some
/// synchronization protocol (that is exactly what the model checker's
/// race detector proves); `with`/`with_mut` closures must not leak the
/// borrow.
#[repr(transparent)]
#[derive(Default)]
pub struct CheckCell<T> {
    inner: std::cell::UnsafeCell<T>,
}

// SAFETY: accesses are externally synchronized per the type's contract,
// which the pario_check build verifies by happens-before analysis.
unsafe impl<T: Send> Sync for CheckCell<T> {}

/// Alias that names the intent at adoption sites: data that *would* be
/// racy without the protocol the model checks.
pub type RacyCell<T> = CheckCell<T>;

impl<T> CheckCell<T> {
    /// A new cell.
    #[inline]
    pub const fn new(value: T) -> CheckCell<T> {
        CheckCell {
            inner: std::cell::UnsafeCell::new(value),
        }
    }

    /// A new cell; the race-report label vanishes in normal builds.
    #[inline]
    pub const fn new_labeled(value: T, _label: &'static str) -> CheckCell<T> {
        CheckCell::new(value)
    }

    /// Read the value.
    #[inline]
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        unsafe { *self.inner.get() }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: T) {
        unsafe { *self.inner.get() = value }
    }

    /// Run `f` on a shared borrow.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(unsafe { &*self.inner.get() })
    }

    /// Run `f` on a mutable borrow.
    #[inline]
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(unsafe { &mut *self.inner.get() })
    }

    /// Direct access through `&mut self` (no sharing possible).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Unwrap the value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

/// A condition variable; in normal builds, `parking_lot::Condvar`.
#[repr(transparent)]
#[derive(Default)]
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// A new condition variable.
    #[inline]
    pub const fn new() -> Condvar {
        Condvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    /// Block on this condvar, releasing `guard` while parked.
    #[inline]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.inner.wait(guard);
    }

    /// Wake one parked waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every parked waiter.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}
