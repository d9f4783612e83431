//! Bounded admission with backpressure and round-robin fairness.
//!
//! Every data operation a session issues must first be admitted. At most
//! `limit` operations are in flight at once — sized to the volume's
//! I/O-node pool so device queues stay short — and when the limit is
//! reached, further requests either block (closed-loop clients) or fail
//! fast with [`ServerError::Busy`], per the server's [`Saturation`]
//! policy.
//!
//! Fairness: a permit freed under contention is granted to the *next
//! session in rotation*, not to whichever thread wakes first, so one
//! aggressive client cannot starve the others. Within a session, waiters
//! are served FIFO.
//!
//! The whole `(in_flight, waiters)` pair is packed in one atomic word.
//! Under the limit with nobody queued, acquire and release are a single
//! compare-exchange — no mutex, no syscall. Only saturated requests fall
//! back to a ranked mutex guarding the per-session FIFO queues, and every
//! parked waiter has its **own** condition variable, so a grant wakes
//! exactly one thread. Cumulative admission counts are striped across
//! cache-line-padded counters to keep the fast path free of shared hot
//! words.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pario_check::{AtomicBool, AtomicU64, Condvar, LockLevel, Mutex};

use crate::error::{Result, ServerError};

/// What to do with a request that arrives while the server is saturated.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Saturation {
    /// Queue the request and block the client until a permit frees
    /// (backpressure; the default).
    #[default]
    Block,
    /// Fail the request immediately with [`ServerError::Busy`].
    Reject,
}

/// A point-in-time snapshot of admission-queue statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Operations in flight right now.
    pub in_flight: usize,
    /// The most operations ever in flight at once — bounded by the
    /// configured limit, which is the whole point.
    pub admitted_high_water: usize,
    /// The most requests ever waiting for admission at once.
    pub wait_high_water: usize,
    /// Requests rejected with [`ServerError::Busy`].
    pub rejected: u64,
    /// Cumulative operations ever admitted (granted a permit), across
    /// all sessions. Experiments compute goodput vs. offered rate from
    /// this directly instead of diffing per-session counters.
    pub total_admitted: u64,
}

/// Low 32 bits of the packed state word: operations in flight.
const IF_MASK: u64 = 0xFFFF_FFFF;
/// One waiter, in the high half of the packed state word.
const WAITER: u64 = 1 << 32;

/// Stripes for the cumulative admitted counter (power of two).
const ADMITTED_STRIPES: usize = 8;

/// A cache-line-padded counter stripe, so concurrent sessions bumping
/// their cumulative-admitted count do not share a hot line.
#[repr(align(64))]
struct PadCounter(AtomicU64);

/// One parked waiter's private wake state: its own condvar, so the
/// granter wakes exactly this thread and no other.
struct WaitSlot {
    granted: AtomicBool,
    cv: Condvar,
}

impl WaitSlot {
    fn new() -> WaitSlot {
        WaitSlot {
            granted: AtomicBool::new(false),
            cv: Condvar::new(),
        }
    }
}

struct Waiter {
    session: u64,
    slot: Arc<WaitSlot>,
}

/// Fallback state, touched only by saturated requests: the per-session
/// FIFO queues and the round-robin rotation point.
struct WaitQueues {
    /// Waiting tickets, FIFO per session.
    queues: BTreeMap<u64, VecDeque<Waiter>>,
    /// Session granted most recently under contention (rotation point).
    rr_last: u64,
}

/// Bounded admission queue; see the module docs. Its fallback mutex is
/// ranked [`LockLevel::Admission`] in the workspace lock hierarchy.
pub struct Admission {
    limit: usize,
    policy: Saturation,
    /// `(waiters << 32) | in_flight`, the entire fast-path state. Both
    /// halves live in one word so an acquire/release can atomically
    /// observe "nobody is queued" while moving the in-flight count —
    /// a release can never miss a waiter that announced concurrently.
    state: AtomicU64,
    admitted_hw: AtomicU64,
    wait_hw: AtomicU64,
    rejected: AtomicU64,
    admitted: [PadCounter; ADMITTED_STRIPES],
    m: Mutex<WaitQueues>,
}

/// An admitted operation; dropping it releases the permit and grants the
/// next waiter in rotation.
#[must_use = "the operation is admitted only while this permit lives"]
pub struct Permit<'a> {
    adm: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.adm.release();
    }
}

impl Admission {
    /// An admission queue allowing `limit` concurrent operations.
    pub fn new(limit: usize, policy: Saturation) -> Admission {
        assert!(limit > 0, "admission limit must be positive");
        assert!(
            limit < IF_MASK as usize,
            "admission limit must fit the packed in-flight field"
        );
        Admission {
            limit,
            policy,
            state: AtomicU64::new(0),
            admitted_hw: AtomicU64::new(0),
            wait_hw: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            admitted: std::array::from_fn(|_| PadCounter(AtomicU64::new(0))),
            m: Mutex::new_named(
                WaitQueues {
                    queues: BTreeMap::new(),
                    rr_last: 0,
                },
                LockLevel::Admission,
            ),
        }
    }

    /// Bump the cumulative admitted counter on `session`'s stripe.
    fn count_admitted(&self, session: u64) {
        self.admitted[session as usize & (ADMITTED_STRIPES - 1)]
            .0
            .fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
    }

    /// Raise a high-water mark, skipping the write once it is saturated
    /// (after warm-up the load sees the mark already at the limit and
    /// the shared line stays read-only).
    fn raise_hw(hw: &AtomicU64, candidate: u64) {
        // ordering: monotonic high-water mark, diagnostic only
        if candidate > hw.load(Ordering::Relaxed) {
            hw.fetch_max(candidate, Ordering::Relaxed); // ordering: monotonic high-water mark, diagnostic only
        }
    }

    /// Pop the next waiter in rotation: the first session strictly after
    /// the last grantee (wrapping), FIFO within the session.
    fn pop_rotation(q: &mut WaitQueues) -> Option<Waiter> {
        let next = q
            .queues
            .range((Excluded(q.rr_last), Unbounded))
            .next()
            .map(|(&s, _)| s)
            .or_else(|| q.queues.keys().next().copied())?;
        let dq = q.queues.get_mut(&next)?;
        let w = dq.pop_front()?;
        if dq.is_empty() {
            q.queues.remove(&next);
        }
        q.rr_last = next;
        Some(w)
    }

    /// Grant parked waiters while free permits remain. Callers hold the
    /// fallback mutex; with waiters announced in `state`, no fast-path
    /// CAS can interleave, so the transition is uncontended in practice.
    fn grant_ready(&self, q: &mut WaitQueues) {
        while !q.queues.is_empty() {
            let s = self.state.load(Ordering::Acquire);
            if (s & IF_MASK) as usize >= self.limit {
                return;
            }
            // in_flight + 1, waiters - 1: the permit passes straight to
            // the popped waiter.
            if self
                .state
                .compare_exchange(s, s + 1 - WAITER, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            Self::raise_hw(&self.admitted_hw, (s & IF_MASK) + 1);
            let Some(w) = Self::pop_rotation(q) else {
                // Unreachable: queue emptiness was checked above and
                // entries change only under the held mutex. Put the
                // permit back rather than leak it.
                self.state.fetch_sub(1, Ordering::AcqRel);
                self.state.fetch_add(WAITER, Ordering::AcqRel);
                return;
            };
            self.count_admitted(w.session);
            w.slot.granted.store(true, Ordering::Release);
            w.slot.cv.notify_one();
        }
    }

    /// Admit one operation for `session`, blocking or rejecting per the
    /// saturation policy.
    pub fn acquire(&self, session: u64) -> Result<Permit<'_>> {
        // Uncontended fast path: nobody queued and capacity free — one
        // CAS and in. Requiring `waiters == 0` keeps arrivals from
        // overtaking parked waiters (FIFO discipline).
        loop {
            let s = self.state.load(Ordering::Acquire);
            if (s >> 32) != 0 || (s & IF_MASK) as usize >= self.limit {
                break;
            }
            if self
                .state
                .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                Self::raise_hw(&self.admitted_hw, (s & IF_MASK) + 1);
                self.count_admitted(session);
                return Ok(Permit { adm: self });
            }
        }
        if self.policy == Saturation::Reject {
            self.rejected.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
            return Err(ServerError::Busy);
        }
        let slot = Arc::new(WaitSlot::new());
        let mut q = self.m.lock();
        // Announce the waiter while holding the mutex: from here on,
        // every release observes `waiters > 0` and routes through the
        // mutex to grant, so the park below cannot miss its wakeup.
        let prev = self.state.fetch_add(WAITER, Ordering::AcqRel);
        Self::raise_hw(&self.wait_hw, (prev >> 32) + 1);
        q.queues.entry(session).or_default().push_back(Waiter {
            session,
            slot: Arc::clone(&slot),
        });
        // A permit may have freed between the fast-path check and the
        // announcement; grant it now (possibly to ourselves).
        self.grant_ready(&mut q);
        while !slot.granted.load(Ordering::Acquire) {
            slot.cv.wait(&mut q);
        }
        Ok(Permit { adm: self })
    }

    fn release(&self) {
        // Demo weakening for the race-detector regression test: demote
        // the fast-path success ordering to Relaxed, so releasing a
        // permit publishes nothing and the next fast-path acquirer is
        // unordered against work done under the permit. pario-check
        // must catch the resulting race (see model_demo_atomic.rs).
        // ordering: deliberately-too-weak demo bug, never in real builds
        #[cfg(all(pario_check, pario_check_demo))]
        const FAST_RELEASE_SUCC: Ordering = Ordering::Relaxed; // ordering: deliberately-too-weak demo bug (see above)
        #[cfg(not(all(pario_check, pario_check_demo)))]
        const FAST_RELEASE_SUCC: Ordering = Ordering::AcqRel;
        // Fast path: no waiters — drop in_flight and leave. The CAS
        // fails if a waiter announces concurrently (same word), so a
        // parked thread is never stranded with a free permit.
        loop {
            let s = self.state.load(Ordering::Acquire);
            if (s >> 32) != 0 {
                break;
            }
            if self
                .state
                .compare_exchange_weak(s, s - 1, FAST_RELEASE_SUCC, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
        let mut q = self.m.lock();
        match Self::pop_rotation(&mut q) {
            Some(w) => {
                // Direct handoff: the permit transfers to the waiter,
                // in_flight unchanged; wake exactly that thread.
                self.state.fetch_sub(WAITER, Ordering::AcqRel);
                self.count_admitted(w.session);
                w.slot.granted.store(true, Ordering::Release);
                w.slot.cv.notify_one();
            }
            // A racing grant drained the queues first; just free it.
            None => {
                self.state.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    /// A point-in-time snapshot of queue statistics.
    pub fn stats(&self) -> AdmissionStats {
        let s = self.state.load(Ordering::Acquire);
        AdmissionStats {
            in_flight: (s & IF_MASK) as usize,
            admitted_high_water: self.admitted_hw.load(Ordering::Relaxed) as usize, // ordering: diagnostic snapshot; staleness is acceptable
            wait_high_water: self.wait_hw.load(Ordering::Relaxed) as usize, // ordering: diagnostic snapshot; staleness is acceptable
            rejected: self.rejected.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            total_admitted: self
                .admitted
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed)) // ordering: diagnostic snapshot; staleness is acceptable
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn high_water_bounded_by_limit() {
        let adm = Admission::new(3, Saturation::Block);
        let live = AtomicUsize::new(0);
        // The test holds every permit until some acquirer is seen
        // queued, so oversubscription queues in every run.
        let held: Vec<_> = (100..103).map(|sess| adm.acquire(sess).unwrap()).collect();
        std::thread::scope(|s| {
            for sess in 0..12u64 {
                let adm = &adm;
                let live = &live;
                s.spawn(move || {
                    for _ in 0..50 {
                        let p = adm.acquire(sess).unwrap();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        assert!(now <= 3, "{now} ops admitted past the limit");
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                        drop(p);
                    }
                });
            }
            while adm.stats().wait_high_water == 0 {
                std::thread::yield_now();
            }
            drop(held);
        });
        let s = adm.stats();
        assert!(s.admitted_high_water <= 3);
        assert!(s.wait_high_water > 0, "oversubscription must queue");
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.total_admitted, 12 * 50 + 3, "every op admitted");
    }

    #[test]
    fn reject_policy_returns_busy() {
        let adm = Admission::new(1, Saturation::Reject);
        let p = adm.acquire(0).unwrap();
        assert!(matches!(adm.acquire(1), Err(ServerError::Busy)));
        assert_eq!(adm.stats().rejected, 1);
        drop(p);
        // Capacity freed: admitted again.
        let _p = adm.acquire(1).unwrap();
        let s = adm.stats();
        assert_eq!(s.total_admitted, 2, "rejected ops are not admitted");
    }

    #[test]
    fn grants_rotate_across_sessions() {
        // One permit, three sessions each parking several waiters; the
        // grant order must interleave sessions 0,1,2,0,1,2,... rather
        // than draining session 0 first.
        let adm = Admission::new(1, Saturation::Block);
        let order = Mutex::new(Vec::new());
        let hold = adm.acquire(99).unwrap();
        std::thread::scope(|s| {
            for sess in 0..3u64 {
                for _ in 0..3 {
                    let adm = &adm;
                    let order = &order;
                    s.spawn(move || {
                        let p = adm.acquire(sess).unwrap();
                        order.lock().push(sess);
                        drop(p);
                    });
                }
            }
            // All nine parked; release the held permit.
            while adm.stats().wait_high_water < 9 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(hold);
        });
        let order = order.lock().clone();
        assert_eq!(order.len(), 9);
        // Each window of three consecutive grants covers three
        // distinct sessions (perfect rotation).
        for w in order.chunks(3) {
            let mut w = w.to_vec();
            w.sort_unstable();
            assert_eq!(w, vec![0, 1, 2], "unfair grant order {order:?}");
        }
    }

    #[test]
    fn fast_path_stays_lock_free_under_limit() {
        // Below the limit with no waiters, permits flow with the
        // fallback mutex completely idle: total_admitted and in_flight
        // book-keep exactly.
        let adm = Admission::new(4, Saturation::Block);
        let a = adm.acquire(0).unwrap();
        let b = adm.acquire(1).unwrap();
        let s = adm.stats();
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.total_admitted, 2);
        assert_eq!(s.wait_high_water, 0, "no one should have queued");
        drop(a);
        drop(b);
        let s = adm.stats();
        assert_eq!(s.in_flight, 0);
        assert_eq!(s.admitted_high_water, 2);
    }
}
