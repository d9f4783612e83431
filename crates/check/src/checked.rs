//! Instrumented primitives for `--cfg pario_check` builds.
//!
//! Same API surface as the normal build's [`crate::real`] locks, but every
//! operation performed **on a model thread** (one spawned inside an
//! [`crate::Explorer`] run) first routes through the run's cooperative
//! scheduler: lock acquisition, condvar wait/notify and each atomic
//! access become scheduling decision points, lock ownership is tracked
//! for deadlock detection, and ranked locks are checked against the
//! declared [`LockLevel`] hierarchy.
//!
//! Off a model thread the types degrade to the plain [`crate::real`]
//! locks, so production code compiled under the cfg still works when
//! executed outside a model (including free-running helper threads such
//! as I/O-node workers, which coexist with model threads).
//!
//! The data of a checked mutex still lives behind a real
//! [`crate::real::Mutex`]; the scheduler guarantees at most one model
//! thread holds it, and non-model threads contend on the real lock as
//! usual, so mixed use is safe.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::hierarchy::LockLevel;
use crate::real;
use crate::sched::{self, Sched};

/// A mutual-exclusion primitive, scheduler-aware on model threads.
pub struct Mutex<T: ?Sized> {
    level: LockLevel,
    inner: real::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`]; releases the model lock (waking
/// scheduler-blocked threads) and then the real lock on drop.
#[must_use = "a lock is held only while its guard lives"]
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    real: Option<real::MutexGuard<'a, T>>,
    model: Option<(Arc<Sched>, usize)>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// An unranked mutex (exempt from hierarchy checking).
    pub const fn new(value: T) -> Mutex<T> {
        Mutex::new_named(value, LockLevel::Unranked)
    }

    /// A mutex ranked at `level` in the documented lock hierarchy.
    pub const fn new_named(value: T, level: LockLevel) -> Mutex<T> {
        Mutex {
            level,
            inner: real::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Stable identity of this lock within a model run.
    fn addr(&self) -> usize {
        &self.inner as *const _ as *const u8 as usize
    }

    /// Acquire the lock, blocking until available. On a model thread
    /// the block happens at scheduler level and is a decision point.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match sched::current() {
            Some((s, tid)) => {
                s.lock_acquire(tid, self.addr(), self.level);
                MutexGuard {
                    mutex: self,
                    real: Some(self.inner.lock()),
                    model: Some((s, tid)),
                }
            }
            None => MutexGuard {
                mutex: self,
                real: Some(self.inner.lock()),
                model: None,
            },
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match sched::current() {
            Some((s, tid)) => {
                if !s.lock_try_acquire(tid, self.addr(), self.level) {
                    return None;
                }
                Some(MutexGuard {
                    mutex: self,
                    real: Some(self.inner.lock()),
                    model: Some((s, tid)),
                })
            }
            None => self.inner.try_lock().map(|g| MutexGuard {
                mutex: self,
                real: Some(g),
                model: None,
            }),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard holds the real lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard holds the real lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real lock first, so a freshly scheduled model waiter (or a
        // non-model contender) can take it immediately.
        drop(self.real.take());
        if let Some((s, tid)) = self.model.take() {
            s.lock_release(tid, self.mutex.addr());
        }
    }
}

/// A reader-writer lock, scheduler-aware on model threads.
///
/// In model runs both `read` and `write` are treated as *exclusive*
/// acquisitions of one scheduler-level lock: reads still never contend
/// with each other on the real lock (the scheduler admits one model
/// holder at a time), but every acquisition is a decision point and is
/// tracked for deadlock detection. This is conservative — it explores a
/// subset of real read-parallel schedules — and keeps writer-held
/// windows (e.g. file metadata during growth) visible to the scheduler
/// so model threads never real-block on an invisible lock. RwLocks are
/// always unranked: the fs metadata lock is taken both before `fs.alloc`
/// (growth) and after `fs.rmw` (block I/O), which no single rank admits;
/// deadlock detection still covers it.
pub struct RwLock<T: ?Sized> {
    inner: real::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
#[must_use = "the read lock is held only while its guard lives"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    real: Option<real::RwLockReadGuard<'a, T>>,
    model: Option<(Arc<Sched>, usize)>,
}

/// RAII guard for [`RwLock::write`].
#[must_use = "the write lock is held only while its guard lives"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    real: Option<real::RwLockWriteGuard<'a, T>>,
    model: Option<(Arc<Sched>, usize)>,
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// A new reader-writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: real::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    fn addr(&self) -> usize {
        &self.inner as *const _ as *const u8 as usize
    }

    /// Acquire shared access (exclusive at model-scheduler level).
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let model = sched::current();
        if let Some((s, tid)) = &model {
            s.lock_acquire(*tid, self.addr(), LockLevel::Unranked);
        }
        RwLockReadGuard {
            lock: self,
            real: Some(self.inner.read()),
            model,
        }
    }

    /// Acquire exclusive access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let model = sched::current();
        if let Some((s, tid)) = &model {
            s.lock_acquire(*tid, self.addr(), LockLevel::Unranked);
        }
        RwLockWriteGuard {
            lock: self,
            real: Some(self.inner.write()),
            model,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard holds the real lock")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.real.take());
        if let Some((s, tid)) = self.model.take() {
            s.lock_release(tid, self.lock.addr());
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard holds the real lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard holds the real lock")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.real.take());
        if let Some((s, tid)) = self.model.take() {
            s.lock_release(tid, self.lock.addr());
        }
    }
}

/// A condition variable, scheduler-aware on model threads.
#[derive(Default)]
pub struct Condvar {
    inner: real::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: real::Condvar::new(),
        }
    }

    fn addr(&self) -> usize {
        &self.inner as *const _ as *const u8 as usize
    }

    /// Block on this condvar, releasing `guard` while parked.
    ///
    /// Model threads park in the scheduler; a schedule in which every
    /// live thread ends up parked here is reported as a lost wakeup.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match guard.model.clone() {
            Some((s, tid)) => {
                let lock_addr = guard.mutex.addr();
                let level = guard.mutex.level;
                drop(guard.real.take());
                s.cv_wait(tid, self.addr(), lock_addr, level);
                guard.real = Some(guard.mutex.inner.lock());
            }
            None => {
                let real = guard.real.as_mut().expect("guard holds the real lock");
                self.inner.wait(real);
            }
        }
    }

    /// Wake one parked waiter. Which model waiter wakes is a recorded
    /// scheduling decision.
    pub fn notify_one(&self) {
        if let Some((s, tid)) = sched::current() {
            s.cv_notify(tid, self.addr(), false);
        }
        self.inner.notify_one();
    }

    /// Wake every parked waiter.
    pub fn notify_all(&self) {
        if let Some((s, tid)) = sched::current() {
            s.cv_notify(tid, self.addr(), true);
        }
        self.inner.notify_all();
    }
}

/// Does a load with this ordering have acquire semantics?
fn load_acquires(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Does a store/RMW with this ordering have release semantics?
fn store_releases(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// Instrumented atomics: every access on a model thread is a yield
/// point, which is what lets the explorer interleave lock-free
/// protocols (the SS cursor's reserve-then-transfer, the executor's
/// in-flight accounting) at the granularity races actually occur.
///
/// After the real operation executes, the happens-before clocks are
/// propagated exactly as the passed `Ordering` warrants: an
/// acquire-load joins the atomic's published clock into the thread, a
/// release-store publishes the thread's clock, an `AcqRel` RMW does
/// both, and `Relaxed` propagates **nothing** — which is what lets the
/// race detector catch an ordering bug (a too-weak publish) that every
/// interleaving-only check would miss on x86 hardware.
macro_rules! checked_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Instrumented atomic; see the module docs.
        pub struct $name {
            inner: $std,
        }

        impl Default for $name {
            fn default() -> $name {
                $name::new(<$prim>::default())
            }
        }

        impl $name {
            /// A new atomic initialised to `v`.
            pub const fn new(v: $prim) -> $name {
                $name {
                    inner: <$std>::new(v),
                }
            }

            fn addr(&self) -> usize {
                &self.inner as *const _ as *const u8 as usize
            }

            /// Pre-operation yield point; returns the model context for
            /// the post-operation clock propagation.
            fn hook(&self, kind: sched::OpKind) -> Option<(Arc<Sched>, usize)> {
                let ctx = sched::current();
                if let Some((s, tid)) = &ctx {
                    s.yield_op(
                        *tid,
                        sched::OpTag {
                            obj: self.addr(),
                            kind,
                        },
                    );
                }
                ctx
            }

            fn sync(&self, ctx: Option<(Arc<Sched>, usize)>, acquire: bool, release: bool) {
                if let Some((s, tid)) = ctx {
                    s.atomic_sync(tid, self.addr(), acquire, release);
                }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $prim {
                let ctx = self.hook(sched::OpKind::AtomicLoad);
                let v = self.inner.load(order);
                self.sync(ctx, load_acquires(order), false);
                v
            }

            /// Atomic store.
            pub fn store(&self, v: $prim, order: Ordering) {
                let ctx = self.hook(sched::OpKind::AtomicStore);
                self.inner.store(v, order);
                self.sync(ctx, false, store_releases(order));
            }

            /// Atomic swap.
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                let ctx = self.hook(sched::OpKind::AtomicRmw);
                let prev = self.inner.swap(v, order);
                self.sync(ctx, load_acquires(order), store_releases(order));
                prev
            }

            /// Atomic compare-exchange. On success the *success*
            /// ordering's edges apply (as an RMW); on failure only the
            /// *failure* ordering's load side does.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                let ctx = self.hook(sched::OpKind::AtomicRmw);
                let r = self.inner.compare_exchange(current, new, success, failure);
                let (acq, rel) = match r {
                    Ok(_) => (load_acquires(success), store_releases(success)),
                    Err(_) => (load_acquires(failure), false),
                };
                self.sync(ctx, acq, rel);
                r
            }

            /// Atomic compare-exchange allowed to fail spuriously.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                let ctx = self.hook(sched::OpKind::AtomicRmw);
                let r = self
                    .inner
                    .compare_exchange_weak(current, new, success, failure);
                let (acq, rel) = match r {
                    Ok(_) => (load_acquires(success), store_releases(success)),
                    Err(_) => (load_acquires(failure), false),
                };
                self.sync(ctx, acq, rel);
                r
            }
        }
    };
}

macro_rules! checked_atomic_arith {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Atomic add; returns the previous value.
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                let ctx = self.hook(sched::OpKind::AtomicRmw);
                let prev = self.inner.fetch_add(v, order);
                self.sync(ctx, load_acquires(order), store_releases(order));
                prev
            }

            /// Atomic subtract; returns the previous value.
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                let ctx = self.hook(sched::OpKind::AtomicRmw);
                let prev = self.inner.fetch_sub(v, order);
                self.sync(ctx, load_acquires(order), store_releases(order));
                prev
            }

            /// Atomic max; returns the previous value.
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                let ctx = self.hook(sched::OpKind::AtomicRmw);
                let prev = self.inner.fetch_max(v, order);
                self.sync(ctx, load_acquires(order), store_releases(order));
                prev
            }
        }
    };
}

checked_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
checked_atomic_arith!(AtomicU64, u64);
checked_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
checked_atomic_arith!(AtomicUsize, usize);
checked_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
checked_atomic_arith!(AtomicU32, u32);
checked_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

impl AtomicBool {
    /// Atomic OR; returns the previous value.
    pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
        let ctx = self.hook(sched::OpKind::AtomicRmw);
        let prev = self.inner.fetch_or(v, order);
        self.sync(ctx, load_acquires(order), store_releases(order));
        prev
    }
}

/// A cell for *plain* (non-atomic) data shared between threads under
/// some synchronization protocol — the moral equivalent of the field a
/// lock-free algorithm guards with its atomics. Every access on a model
/// thread is checked against the run's happens-before clocks: two
/// concurrent accesses, at least one a write, fail the schedule as a
/// `DataRace` naming both sites (`#[track_caller]` keeps the labels
/// free). In normal builds this is a zero-overhead `UnsafeCell`.
///
/// The accessors are safe to *call* because a model run serializes
/// model threads through the scheduler's own lock; the **protocol** is
/// what the detector verifies. Production code must only use a
/// `CheckCell` where such a protocol exists, and keep `with`/`with_mut`
/// closures free of instrumented operations (the borrow must not span
/// a yield point).
pub struct CheckCell<T> {
    label: &'static str,
    inner: std::cell::UnsafeCell<T>,
}

// SAFETY: within a model run, the cooperative scheduler runs one model
// thread at a time and hands off through its own mutex, so accesses are
// really serialized (and the detector reports any pair the *modelled*
// synchronization fails to order).
unsafe impl<T: Send> Sync for CheckCell<T> {}

impl<T> CheckCell<T> {
    /// A new cell labeled `cell` in race reports.
    pub const fn new(value: T) -> CheckCell<T> {
        CheckCell::new_labeled(value, "cell")
    }

    /// A new cell carrying `label` in race reports.
    pub const fn new_labeled(value: T, label: &'static str) -> CheckCell<T> {
        CheckCell {
            label,
            inner: std::cell::UnsafeCell::new(value),
        }
    }

    fn addr(&self) -> usize {
        self.inner.get() as usize
    }

    #[track_caller]
    fn check(&self, write: bool) {
        if let Some((s, tid)) = sched::current() {
            s.cell_access(
                tid,
                self.addr(),
                self.label,
                write,
                std::panic::Location::caller(),
            );
        }
    }

    /// Read the value (checked as a read).
    #[track_caller]
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        self.check(false);
        unsafe { *self.inner.get() }
    }

    /// Overwrite the value (checked as a write).
    #[track_caller]
    pub fn set(&self, value: T) {
        self.check(true);
        unsafe { *self.inner.get() = value }
    }

    /// Run `f` on a shared borrow (checked as a read).
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.check(false);
        f(unsafe { &*self.inner.get() })
    }

    /// Run `f` on a mutable borrow (checked as a write).
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.check(true);
        f(unsafe { &mut *self.inner.get() })
    }

    /// Direct access through `&mut self` (no sharing possible).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for CheckCell<T> {
    fn default() -> CheckCell<T> {
        CheckCell::new(T::default())
    }
}
