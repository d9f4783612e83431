//! Model checks for `pario_server::admission::Admission`: the in-flight
//! bound holds in every schedule, permits freed under contention are
//! never lost, waiters within a session are served FIFO, and grants
//! rotate round-robin across sessions.
#![cfg(pario_check)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use pario_check::{spawn, AtomicU64, CheckCell, Config, Explorer, Mutex};
use pario_server::admission::Admission;
use pario_server::Saturation;

/// Four threads through a limit of two: the live count never exceeds
/// the limit, every waiter is eventually admitted (a lost permit wakeup
/// — e.g. a release racing a waiter's announcement — would park the run
/// as a model deadlock), and the cumulative admitted count is exact.
#[test]
fn limit_holds_and_no_wakeup_is_lost() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let adm = Arc::new(Admission::new(2, Saturation::Block));
        let live = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for sess in 0..4u64 {
            let adm = Arc::clone(&adm);
            let live = Arc::clone(&live);
            hs.push(spawn(move || {
                let p = adm.acquire(sess).expect("block policy never rejects");
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                assert!(now <= 2, "{now} ops admitted past the limit");
                live.fetch_sub(1, Ordering::SeqCst);
                drop(p);
            }));
        }
        for h in hs {
            h.join();
        }
        let s = adm.stats();
        assert_eq!(s.in_flight, 0);
        assert!(s.admitted_high_water <= 2);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.total_admitted, 4, "every acquisition counted once");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    let distinct = report.distinct;
    assert!(distinct >= 1000, "only {distinct} distinct schedules");
}

/// Deterministic arrivals (each waiter parks before the next is
/// spawned): two waiters of the same session are granted in FIFO order,
/// and a third waiter from another session is granted between them —
/// round-robin rotation, not session draining.
#[test]
fn grants_are_fifo_within_and_rotate_across_sessions() {
    let report = Explorer::new(Config::new(5000)).run(|| {
        let adm = Arc::new(Admission::new(1, Saturation::Block));
        let order = Arc::new(Mutex::new(Vec::new()));
        let hold = adm.acquire(99).expect("first permit is free");

        let mut hs = Vec::new();
        // Arrival order: (session 1, tag 10), (session 1, tag 11),
        // (session 2, tag 20). Spin until each is parked before spawning
        // the next; the admission state is instrumented, so the spin is
        // a sequence of yield points and the scheduler's fairness bound
        // guarantees the waiter actually reaches its queue.
        for (i, (sess, tag)) in [(1u64, 10u64), (1, 11), (2, 20)].into_iter().enumerate() {
            let adm2 = Arc::clone(&adm);
            let order2 = Arc::clone(&order);
            hs.push(spawn(move || {
                let p = adm2.acquire(sess).expect("block policy never rejects");
                order2.lock().push(tag);
                drop(p);
            }));
            while adm.stats().wait_high_water < i + 1 {
                std::hint::spin_loop();
            }
        }

        drop(hold);
        for h in hs {
            h.join();
        }
        let order = order.lock().clone();
        // Session 1 queued first => granted first; then rotation moves
        // to session 2 before session 1's second waiter.
        assert_eq!(order, vec![10, 20, 11], "unfair grant order {order:?}");
        // The holder plus three waiters, each admitted exactly once.
        assert_eq!(adm.stats().total_admitted, 4);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    let distinct = report.distinct;
    assert!(distinct >= 1000, "only {distinct} distinct schedules");
}

/// The permit is a synchronizer: work done under it happens-before the
/// next holder's work. Proved by the happens-before detector on a plain
/// (non-atomic) cell mutated under a limit-1 admission — any missing
/// release/acquire edge in the packed-state protocol, fast path or
/// parked hand-off, surfaces as a data race. Excluded under the demo
/// cfg, which deliberately breaks exactly this edge.
#[cfg(not(pario_check_demo))]
#[test]
fn permit_release_publishes_to_next_holder() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let adm = Arc::new(Admission::new(1, Saturation::Block));
        let cell = Arc::new(CheckCell::new_labeled(0u64, "under-permit"));
        let mut hs = Vec::new();
        // Four threads × two rounds: eight dependent critical sections
        // give a Mazurkiewicz class space in the thousands, so the
        // ≥1000-distinct assertion below measures genuine coverage.
        for t in 1..=4u64 {
            let (adm, cell) = (Arc::clone(&adm), Arc::clone(&cell));
            hs.push(spawn(move || {
                for _ in 0..2 {
                    let p = adm.acquire(t).expect("block policy never rejects");
                    cell.with_mut(|v| *v += t);
                    drop(p);
                }
            }));
        }
        for h in hs {
            h.join();
        }
        assert_eq!(cell.get(), 20, "an increment was lost");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    let distinct = report.distinct;
    assert!(distinct >= 1000, "only {distinct} distinct schedules");
}
