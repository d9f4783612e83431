//! Range locks: the tree's one lock over a span of a number line.
//!
//! Holders of *overlapping* ranges are serialised; disjoint holders
//! proceed in parallel. Three tables use it. The server's GDA byte
//! ranges keep concurrent updates to the same bytes from tearing
//! (readers are deliberately not locked — the paper's GDA view offers
//! no read consistency guarantee). A file's logical blocks
//! ([`crate::RawFile::write_span`]) keep a partial block's
//! read-modify-write whole against every other write into that block,
//! whole-block writes included. A file's device rows
//! ([`crate::RawFile::lock_rows`]) keep every write that maintains
//! redundancy — a parity stripe's read-modify-write, a shadowed pair's
//! two copies — whole against the others and against a rebuild or scrub
//! burst over the same rows. Thakur, Gropp and Lusk lock only the region
//! a data-sieving read-modify-write covers, never the file: bytes lock
//! blocks, redundancy locks rows. A write submitted and not yet waited
//! parks its ranges ([`RangeGuard::park`]): an acquirer they are in the
//! way of lands the write and releases them, so an idle holder keeps no
//! one waiting longer than its transfers take.
//!
//! Built on `pario-check` primitives, so `--cfg pario_check` model tests
//! can explore the acquire/release interleavings deterministically. The
//! internal mutex is ranked by its table in the workspace lock
//! hierarchy: `server.range_lock` for GDA bytes, `fs.rmw` for blocks,
//! `fs.stripe` for rows.

use std::sync::Arc;

use pario_check::{Condvar, LockLevel, Mutex};

/// What a holder parks a range with: the work the range protects,
/// which anyone can see through without the holder.
pub(crate) trait Land: Send + Sync {
    /// Block until the work has landed; only the first call waits.
    fn land(&self);
}

/// A held range: `(start, end, ticket, what lands it if parked)`.
type Range = (u64, u64, u64, Option<Arc<dyn Land>>);

/// Held ranges, and the next ticket to hand out.
struct Held {
    ranges: Vec<Range>,
    next: u64,
}

/// Active locked ranges of one table.
pub struct RangeLocks {
    held: Mutex<Held>,
    cv: Condvar,
}

/// An acquired range lock; dropping it releases the range.
#[must_use = "the range is locked only while this guard lives"]
pub struct RangeGuard<'a> {
    locks: &'a RangeLocks,
    ticket: u64,
}

impl RangeLocks {
    /// A lock table with no held ranges, its mutex ranked `level`.
    pub const fn new(level: LockLevel) -> RangeLocks {
        let held = Held {
            ranges: Vec::new(),
            next: 0,
        };
        RangeLocks {
            held: Mutex::new_named(held, level),
            cv: Condvar::new(),
        }
    }

    /// Block until `[start, end)` overlaps no held range, then hold it.
    pub fn acquire(&self, start: u64, end: u64) -> RangeGuard<'_> {
        RangeGuard {
            ticket: self.acquire_ticket(start, end),
            locks: self,
        }
    }

    /// Guard-free acquire: blocks like [`acquire`](RangeLocks::acquire)
    /// but returns a bare ticket the caller must hand back through
    /// [`release_ticket`](RangeLocks::release_ticket). This is the hook
    /// for owned lock handles (the network layer parks a client's
    /// explicit GDA lock in a table across requests, where a borrowing
    /// guard cannot live). A range parked in the way is landed and
    /// released here, on the caller's thread.
    pub fn acquire_ticket(&self, start: u64, end: u64) -> u64 {
        assert!(start < end, "empty range");
        let mut held = self.held.lock();
        loop {
            if let Some(ticket) = held.grab(start, end) {
                return ticket;
            }
            let over = |(s, e, _, p): &&Range| start < *e && *s < end && p.is_some();
            let Some((_, _, ticket, Some(parked))) = held.ranges.iter().find(over).cloned() else {
                self.cv.wait(&mut held);
                continue;
            };
            drop(held);
            parked.land();
            self.release_ticket(ticket);
            held = self.held.lock();
        }
    }

    /// Release a ticket taken with
    /// [`acquire_ticket`](RangeLocks::acquire_ticket). Tickets are never
    /// reused, so a released or unknown ticket is ignored (release is
    /// idempotent).
    pub fn release_ticket(&self, ticket: u64) {
        let mut held = self.held.lock();
        held.ranges.retain(|r| r.2 != ticket);
        self.cv.notify_all();
    }

    /// Take `[start, end)` if it overlaps no held range, without
    /// blocking.
    pub fn try_acquire(&self, start: u64, end: u64) -> Option<RangeGuard<'_>> {
        assert!(start < end, "empty range");
        let ticket = self.held.lock().grab(start, end)?;
        Some(RangeGuard {
            locks: self,
            ticket,
        })
    }

    /// Number of ranges currently held (for stats / tests).
    pub fn held(&self) -> usize {
        self.held.lock().ranges.len()
    }
}

impl Held {
    fn grab(&mut self, start: u64, end: u64) -> Option<u64> {
        if self.ranges.iter().any(|r| start < r.1 && r.0 < end) {
            return None;
        }
        let ticket = self.next;
        self.next += 1;
        self.ranges.push((start, end, ticket, None));
        Some(ticket)
    }
}

impl RangeGuard<'_> {
    /// Leave the range to whoever it is in the way of next: that
    /// acquirer lands `parked` and releases it. Returns the bare ticket
    /// for the holder's own release, a no-op once an acquirer's came
    /// first.
    pub(crate) fn park(self, parked: Arc<dyn Land>) -> u64 {
        let (locks, ticket) = (self.locks, self.ticket);
        std::mem::forget(self);
        let mut held = locks.held.lock();
        if let Some(r) = held.ranges.iter_mut().find(|r| r.2 == ticket) {
            r.3 = Some(parked);
        }
        locks.cv.notify_all();
        ticket
    }
}

impl Drop for RangeGuard<'_> {
    fn drop(&mut self) {
        self.locks.release_ticket(self.ticket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn table() -> RangeLocks {
        RangeLocks::new(LockLevel::RangeLock)
    }

    #[test]
    fn disjoint_ranges_coexist() {
        let l = table();
        let a = l.acquire(0, 10);
        let b = l.acquire(10, 20);
        assert_eq!(l.held(), 2);
        drop(a);
        drop(b);
        assert_eq!(l.held(), 0);
    }

    #[test]
    fn try_acquire_refuses_overlap() {
        let l = table();
        let a = l.acquire(0, 10);
        assert!(l.try_acquire(5, 15).is_none());
        let b = l.try_acquire(10, 20).expect("disjoint range is free");
        drop(a);
        drop(b);
        assert_eq!(l.held(), 0);
    }

    /// A ticket released twice frees nothing the second time: the next
    /// holder got a ticket of its own.
    #[test]
    fn a_late_release_does_not_free_the_next_holder() {
        let l = table();
        let first = l.acquire_ticket(0, 10);
        l.release_ticket(first);
        let _next = l.acquire(20, 30);
        l.release_ticket(first);
        assert!(
            l.try_acquire(20, 30).is_none(),
            "the late release freed [20, 30)"
        );
        assert_eq!(l.held(), 1);
    }

    #[test]
    fn overlap_blocks_until_release() {
        let l = table();
        let counter = AtomicU64::new(0);
        // 8 threads doing read-modify-write under the same range: the
        // lock must serialise them perfectly.
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = &l;
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..100 {
                        let _g = l.acquire(5, 15);
                        let v = counter.load(Ordering::Relaxed);
                        std::thread::yield_now();
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }
}
