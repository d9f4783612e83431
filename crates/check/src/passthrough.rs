//! Normal-build primitives that are not locks.
//!
//! Without `--cfg pario_check` the locks are [`crate::real`]'s, the
//! atomics are literal re-exports of `std::sync::atomic`, and a
//! [`CheckCell`] is a bare `UnsafeCell`.

pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};

/// Yield to the model scheduler. There are no model threads in normal
/// builds, so this is a no-op that reports `false` ("not a model
/// thread") and loops guarded by it compile away.
#[inline(always)]
pub fn yield_now() -> bool {
    false
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
