//! Seeded-bug regression for the checker itself: the
//! `pario_check_demo` cfg rebuilds `pario-fs` with writes holding no
//! blocks — reintroducing a historical lost-update race — and this
//! test asserts the checker finds that race within a bounded schedule
//! budget and that the printed schedule replays to the same failure.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg pario_check --cfg pario_check_demo" \
//!     cargo test -p pario-check --test model_demo_race
//! ```
#![cfg(all(pario_check, pario_check_demo))]

use std::sync::Arc;

use pario_check::{spawn, Config, Explorer};
use pario_fs::{FileSpec, Volume, VolumeConfig};
use pario_layout::LayoutSpec;

const BS: usize = 64;

/// The schedule budget within which the race must be found. The CI job
/// runs this; a checker regression that stops exploring the racy
/// window shows up as this test failing.
const BUDGET: usize = 400;

fn racy_model() {
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 2,
        device_blocks: 128,
        block_size: BS,
    })
    .expect("in-memory volume");
    let f = v
        .create_file(
            FileSpec::new(
                "d",
                16,
                4,
                LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            )
            .initial_records(16),
        )
        .expect("create file");
    f.write_span(0, &[0u8; BS]).expect("zero block 0");

    let f1 = f.clone();
    let h1 = spawn(move || {
        f1.write_span(0, &[0xAA; 16]).expect("sub-block write");
    });
    let f2 = f.clone();
    let h2 = spawn(move || {
        f2.write_span(32, &[0xBB; 16]).expect("sub-block write");
    });
    h1.join();
    h2.join();

    let mut out = [0u8; BS];
    f.read_span(0, &mut out).expect("read back");
    assert!(
        out[..16].iter().all(|&b| b == 0xAA) && out[32..48].iter().all(|&b| b == 0xBB),
        "sub-block RMW lost an update"
    );
}

/// With the block table elided, two sub-block writers to the same block
/// race their read/modify/write windows: the checker must catch one
/// writer swallowing the other's bytes, and the recorded schedule must
/// reproduce it.
#[test]
fn checker_finds_the_unlocked_rmw_race() {
    let report = Explorer::new(Config::new(BUDGET)).run(racy_model);
    let f = report
        .failure
        .unwrap_or_else(|| panic!("race not found within {BUDGET} schedules"));
    assert!(
        f.message.contains("lost an update"),
        "unexpected failure: {}",
        f.message
    );
    assert!(!f.replay.is_empty(), "failure must carry a replay string");

    let again = Explorer::new(Config::new(1)).replay(&f.replay, racy_model);
    let f2 = again
        .failure
        .expect("replaying the recorded schedule must reproduce the race");
    assert!(
        f2.message.contains("lost an update"),
        "replay found a different failure: {}",
        f2.message
    );
}
