//! Model checks for the server's claim table (`FileEntry::claims`): two
//! sessions race `Session::open` for one claimed view — a partition of
//! a PS file, and a type-S file's exclusive hold. In every schedule
//! exactly one open wins, the other is refused naming the winner's
//! session, and once the winner's handle drops a third open succeeds.
//! Checking the table and inserting into it under two lock holds lets
//! both opens win, and fails here.
#![cfg(pario_check)]

use std::sync::Arc;

use pario_check::{spawn, Config, Explorer, Mutex};
use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};
use pario_server::{Server, ServerConfig, ServerError, View};

const REC: usize = 64;

fn server() -> Server {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 2,
        device_blocks: 128,
        block_size: 256,
    })
    .expect("in-memory volume");
    ParallelFile::create_sized(
        &volume,
        "part",
        Organization::PartitionedSeq { partitions: 2 },
        REC,
        4,
        16,
    )
    .expect("create PS file");
    ParallelFile::create(&volume, "log", Organization::Sequential, REC, 4).expect("create S file");
    Server::new(volume, ServerConfig::default())
}

/// Two sessions race to open `name` as `view`; checks the outcome and
/// then opens it once more after the winner's handle dropped.
fn race(server: &Server, name: &'static str, view: View) {
    let results = Arc::new(Mutex::new(Vec::new()));
    let hs: Vec<_> = (0..2)
        .map(|_| {
            let sess = server.connect();
            let results = Arc::clone(&results);
            spawn(move || {
                let r = sess.open(name, view);
                results.lock().push((sess.id(), r));
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    let mut results = std::mem::take(&mut *results.lock());
    let wins: Vec<u64> = results
        .iter()
        .filter(|(_, r)| r.is_ok())
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(wins.len(), 1, "{view:?}: sessions {wins:?} both opened");
    let winner = wins[0];
    let (loser, refused) = results
        .iter()
        .find_map(|(id, r)| r.as_ref().err().map(|e| (*id, e)))
        .expect("one open refused");
    match (view, refused) {
        (View::Partition(p), ServerError::Claimed { name: n, index, by }) => {
            assert_eq!((n.as_str(), *index, *by), (name, p, winner), "{loser}");
        }
        (View::Sequential, ServerError::Exclusive { name: n, by }) => {
            assert_eq!((n.as_str(), *by), (name, winner), "{loser}");
        }
        (_, e) => panic!("{view:?}: session {loser} refused with {e:?}"),
    }
    results.clear();
    let third = server.connect();
    let h = third
        .open(name, view)
        .unwrap_or_else(|e| panic!("{view:?} open after the winner's drop: {e}"));
    assert_eq!(h.view(), view);
}

/// A PS partition. The main thread holds the other partition
/// throughout, so the file's entry — and its claim table — outlives
/// the winner's handle and the third open meets the released claim.
#[test]
fn one_of_two_racing_partition_opens_wins() {
    let report = Explorer::new(Config::new(300)).run(|| {
        let server = server();
        let keep = server
            .connect()
            .open("part", View::Partition(1))
            .expect("partition 1 is free");
        race(&server, "part", View::Partition(0));
        drop(keep);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}

/// A type-S file, held exclusively.
#[test]
fn one_of_two_racing_sequential_opens_wins() {
    let report = Explorer::new(Config::new(300)).run(|| {
        let server = server();
        race(&server, "log", View::Sequential);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
}
