//! Model checks for `pario_fs::HealthBoard`: the device health state
//! machine loses no transition under concurrent error reports and
//! rebuild completion, a fail-stop report raised against dead media
//! cannot abort the rebuild that then repaired it, and every recorded
//! history walks legal edges of the machine in DESIGN.md §9.
#![cfg(pario_check)]

use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use pario_check::{spawn, AtomicBool, Config, Explorer};
use pario_disk::DiskError;
use pario_fs::{legal_transition, HealthBoard, HealthPolicy, HealthState};

fn assert_history_legal(history: &[HealthState]) {
    for w in history.windows(2) {
        assert!(
            legal_transition(w[0], w[1]),
            "illegal transition {} -> {} in {history:?}",
            w[0],
            w[1]
        );
    }
}

/// A device dies again while its rebuild is completing. In every
/// interleaving the racing fail-stop report must win: the device ends
/// Failed, never silently Healthy, and `complete_rebuild` returns true
/// only in schedules where the board really passed through Healthy.
#[test]
fn racing_failure_beats_rebuild_completion() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let board = Arc::new(HealthBoard::new(1, HealthPolicy::default()));
        board.mark_failed(0);
        board.begin_rebuild(0, || ());

        let b1 = Arc::clone(&board);
        let t1 = spawn(move || {
            b1.note_error(
                0,
                &DiskError::DeviceFailed {
                    device: "mem0".into(),
                },
                || true,
            );
        });
        let b2 = Arc::clone(&board);
        let done = Arc::new(AtomicBool::new(false));
        let d2 = Arc::clone(&done);
        let t2 = spawn(move || {
            let ok = b2.complete_rebuild(0);
            d2.store(ok, std::sync::atomic::Ordering::SeqCst);
        });
        // Bystander feedback racing both transitions: a transient error
        // and an OK from straggler I/O. Neither may promote the device
        // out of Failed or manufacture an illegal edge.
        let b3 = Arc::clone(&board);
        let t3 = spawn(move || {
            b3.note_error(0, &DiskError::Transient { device: "m".into() }, || true);
        });
        let b4 = Arc::clone(&board);
        let t4 = spawn(move || b4.note_ok(0));
        t1.join();
        t2.join();
        t3.join();
        t4.join();
        let completed = done.load(std::sync::atomic::Ordering::SeqCst);

        // The fail-stop is never lost, whichever side won the race.
        assert_eq!(board.state(0), HealthState::Failed);
        let snap = &board.snapshot()[0];
        assert_history_legal(&snap.transitions);
        let went_healthy = snap
            .transitions
            .windows(2)
            .any(|w| w == [HealthState::Rebuilding, HealthState::Healthy]);
        // complete_rebuild reported success iff the board actually
        // passed through Healthy before the new failure landed.
        assert_eq!(
            completed, went_healthy,
            "completion report {completed} disagrees with history {:?}",
            snap.transitions
        );
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // `distinct` counts interleaving equivalence classes (Foata canonical
    // form); a handful of threads through one board mutex yields a class
    // space in the low hundreds, all of which must be covered.
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// Concurrent transient reports and OK feedback on one device: no error
/// count is lost, the device never leaves the Healthy/Suspect pair, and
/// every history is a legal walk. A second thread completing a rebuild
/// on a *different* device shares the board mutex without corrupting
/// either slot.
#[test]
fn concurrent_reports_lose_nothing() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let board = Arc::new(HealthBoard::new(
            2,
            HealthPolicy {
                suspect_after: 2,
                recover_after: 1,
            },
        ));
        board.mark_failed(1);
        board.begin_rebuild(1, || ());

        let mut hs = Vec::new();
        for _ in 0..2 {
            let b = Arc::clone(&board);
            hs.push(spawn(move || {
                b.note_error(0, &DiskError::Transient { device: "d".into() }, || true);
                b.note_ok(0);
            }));
        }
        let b = Arc::clone(&board);
        let rebuild = spawn(move || {
            assert!(b.complete_rebuild(1), "no rival failure on device 1");
        });
        for h in hs {
            h.join();
        }
        rebuild.join();

        let snap = board.snapshot();
        assert_eq!(snap[0].transient_errors, 2, "a transient report was lost");
        assert!(
            matches!(snap[0].state, HealthState::Healthy | HealthState::Suspect),
            "device 0 reached {} on transients alone",
            snap[0].state
        );
        assert_eq!(snap[1].state, HealthState::Healthy);
        assert_history_legal(&snap[0].transitions);
        assert_history_legal(&snap[1].transitions);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // See above: counted by equivalence class, and this model is small.
    assert!(
        report.distinct >= 64,
        "only {} distinct schedules",
        report.distinct
    );
}

/// The fail-stop report a foreground write raises against dead media,
/// as `RawFile` files it: with the device's `is_failed()` as the
/// re-check.
fn report_if_dead(board: &HealthBoard, dead: &Arc<AtomicBool>) {
    if dead.load(SeqCst) {
        let fail_stop = DiskError::DeviceFailed {
            device: "mem0".into(),
        };
        board.note_error(0, &fail_stop, || dead.load(SeqCst));
    }
}

/// begin_rebuild / heal / write-report / complete. Two foreground
/// writes reach the media around an online rebuild's flip-and-heal;
/// each gets `DeviceFailed` if the media was still dead and reports it.
/// Whatever the interleaving — report raised before the flip and filed
/// after it, after the heal, between two steps of either — the rebuild
/// it preceded completes and the device ends Healthy.
#[test]
fn stale_fail_stop_report_cannot_abort_the_rebuild_it_preceded() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let board = Arc::new(HealthBoard::new(1, HealthPolicy::default()));
        let dead = Arc::new(AtomicBool::new(true));
        board.mark_failed(0);

        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (b, d) = (Arc::clone(&board), Arc::clone(&dead));
                spawn(move || report_if_dead(&b, &d))
            })
            .collect();
        let (b, d) = (Arc::clone(&board), Arc::clone(&dead));
        let rebuild = spawn(move || {
            b.begin_rebuild(0, || d.store(false, SeqCst));
            assert!(b.complete_rebuild(0), "a stale report aborted the rebuild");
        });
        for w in writers {
            w.join();
        }
        rebuild.join();

        assert_eq!(board.state(0), HealthState::Healthy);
        assert_history_legal(&board.snapshot()[0].transitions);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // Three short threads through one mutex: the whole class space is
    // about twenty, far inside the budget.
    assert!(
        report.distinct >= 16,
        "only {} distinct schedules",
        report.distinct
    );
}

/// The other half: a device that dies *again*, after the heal, is a
/// genuine mid-rebuild failure and still wins. A kill that lands before
/// the heal is repaired by it (the heal is the drive swap) and its
/// report is dropped; one that lands after leaves the media dead, and
/// then the device ends Failed in every schedule — whether the report
/// beat `complete_rebuild` (which then refuses) or followed it.
#[test]
fn failure_after_the_heal_still_fails_the_device() {
    let report = Explorer::new(Config::new(1500)).run(|| {
        let board = Arc::new(HealthBoard::new(1, HealthPolicy::default()));
        let dead = Arc::new(AtomicBool::new(true));
        board.mark_failed(0);

        let (b, d) = (Arc::clone(&board), Arc::clone(&dead));
        let killer = spawn(move || {
            d.store(true, SeqCst);
            report_if_dead(&b, &d);
        });
        let (b, d) = (Arc::clone(&board), Arc::clone(&dead));
        let completed = Arc::new(AtomicBool::new(false));
        let c = Arc::clone(&completed);
        let rebuild = spawn(move || {
            b.begin_rebuild(0, || d.store(false, SeqCst));
            c.store(b.complete_rebuild(0), SeqCst);
        });
        killer.join();
        rebuild.join();

        let snap = &board.snapshot()[0];
        assert_history_legal(&snap.transitions);
        if dead.load(SeqCst) {
            assert_eq!(
                snap.state,
                HealthState::Failed,
                "a dead device reads {snap:?}"
            );
        } else {
            assert!(completed.load(SeqCst), "nothing failed after the heal");
            assert_eq!(snap.state, HealthState::Healthy);
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}
