//! Regression for the checkpoint/journal lost-durability race: a
//! checkpoint that snapshots the directory and then resets the intent
//! journal must never discard the record of a metadata operation that
//! completed (and was acknowledged durable) in between. Workers hammer
//! create/grow/remove until a stop flag that is raised right after the
//! final checkpoint, so that checkpoint races live operation windows
//! and the simulated crash that follows has no later checkpoint to
//! paper over a discarded record. After remount the volume must hold
//! exactly the acknowledged directory state and audit clean.

use std::sync::atomic::{AtomicBool, Ordering};

use pario_disk::mem_array;
use pario_fs::{FileSpec, Volume};
use pario_layout::LayoutSpec;
use pario_reliability::audit_volume;

const BS: usize = 256;

fn directory_state(v: &Volume) -> Vec<(String, u64)> {
    let mut state: Vec<(String, u64)> = v
        .list()
        .into_iter()
        .map(|n| {
            let f = v.open(&n).unwrap();
            (n, f.nblocks())
        })
        .collect();
    state.sort();
    state
}

#[test]
fn checkpoints_racing_metadata_ops_lose_nothing_acked() {
    for round in 0..8 {
        let devs = mem_array(4, 16384, BS);
        let v = Volume::new(devs.clone()).unwrap();
        // A wide directory makes every checkpoint snapshot slow
        // (hundreds of metas to serialise), stretching the window in
        // which a racing operation can complete and be lost. Bounded so
        // the serialised image always fits a superblock slot.
        for i in 0..200 {
            v.create_file(
                FileSpec::new(
                    &format!("pad-{i}"),
                    BS,
                    1,
                    LayoutSpec::Striped {
                        devices: 4,
                        unit: 1,
                    },
                )
                .initial_records(1),
            )
            .unwrap();
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let v = v.clone();
                let stop = &stop;
                s.spawn(move || {
                    // Cycle over a fixed set of names so the directory
                    // (and the superblock image) stays bounded no
                    // matter how long the checkpointer takes.
                    for k in 0..20_000u64 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let name = format!("f-{t}-{}", k % 20);
                        if k >= 20 {
                            v.remove(&name).unwrap();
                        }
                        let f = v
                            .create_file(FileSpec::new(
                                &name,
                                BS,
                                1,
                                LayoutSpec::Striped {
                                    devices: 4,
                                    unit: 1,
                                },
                            ))
                            .unwrap();
                        // Every record extends the file: each write is
                        // a journaled grow racing the checkpointer.
                        for r in 0..8u64 {
                            f.write_record(r, &[t as u8 + 1; BS]).unwrap();
                        }
                    }
                });
            }
            // The checkpointer races sync_meta against the operation
            // windows; the moment its last checkpoint returns, stop the
            // workers so nothing can checkpoint again before the crash.
            for _ in 0..30 {
                v.sync_meta().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Every operation above returned, so with journaling enabled
        // all of them are durable. Capture the acknowledged state,
        // crash without a teardown checkpoint, and remount.
        let acked = directory_state(&v);
        v.abandon();
        drop(v);
        let v2 = Volume::mount(devs).unwrap();
        assert_eq!(
            directory_state(&v2),
            acked,
            "round {round}: acknowledged metadata lost or resurrected"
        );
        let report = audit_volume(&v2).unwrap();
        assert!(report.is_clean(), "round {round}: {:?}", report.errors);
    }
}
