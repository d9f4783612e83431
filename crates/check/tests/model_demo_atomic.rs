//! Seeded-bug regression for the happens-before race detector: the
//! `pario_check_demo` cfg demotes the success ordering of the admission
//! release fast-path CAS to `Relaxed`, so handing a permit back
//! publishes nothing. A value mutated under a limit-1 admission then
//! races between consecutive holders, and this test asserts the
//! detector finds that race within a bounded schedule budget and that
//! the printed schedule replays to the same two-site report.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg pario_check --cfg pario_check_demo" \
//!     cargo test -p pario-check --test model_demo_atomic
//! ```
#![cfg(all(pario_check, pario_check_demo))]

use std::sync::Arc;

use pario_check::{spawn, CheckCell, Config, Explorer};
use pario_server::admission::Admission;
use pario_server::Saturation;

/// The schedule budget within which the race must be found. A detector
/// regression that stops tracking the weakened edge shows up here.
const BUDGET: usize = 400;

fn racy_model() {
    let adm = Arc::new(Admission::new(1, Saturation::Block));
    let cell = Arc::new(CheckCell::new_labeled(0u64, "permit-guarded"));
    let mut hs = Vec::new();
    for t in 1..=2u64 {
        let (adm, cell) = (Arc::clone(&adm), Arc::clone(&cell));
        hs.push(spawn(move || {
            let p = adm.acquire(t).expect("block policy never rejects");
            // Racy only in the schedule where the second holder takes
            // the *fast* acquire path after a fast release: the parked
            // hand-off path still synchronizes through the wait slot.
            cell.with_mut(|v| *v += t);
            drop(p);
        }));
    }
    for h in hs {
        h.join();
    }
    assert_eq!(cell.get(), 3);
}

/// With the release edge weakened, consecutive fast-path holders are
/// unordered: the detector must flag the cell mutation as a data race
/// with both sites labeled, and the schedule must replay.
#[test]
fn detector_finds_the_weakened_release_race() {
    let report = Explorer::new(Config::new(BUDGET)).run(racy_model);
    let f = report
        .failure
        .unwrap_or_else(|| panic!("race not found within {BUDGET} schedules"));
    assert!(
        f.message.contains("DataRace") && f.message.contains("`permit-guarded`"),
        "unexpected failure: {}",
        f.message
    );
    assert!(
        f.message.matches("model_demo_atomic.rs").count() == 2,
        "expected two labeled sites: {}",
        f.message
    );
    assert!(!f.replay.is_empty(), "failure must carry a replay string");

    let again = Explorer::new(Config::new(1)).replay(&f.replay, racy_model);
    let f2 = again
        .failure
        .expect("replaying the recorded schedule must reproduce the race");
    assert!(
        f2.message.contains("DataRace"),
        "replay found a different failure: {}",
        f2.message
    );
}
