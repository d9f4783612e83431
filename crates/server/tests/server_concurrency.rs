//! Cross-session sharing semantics under real concurrency: one shared
//! SS cursor across independent sessions, exclusive type-S opens,
//! lock-protected GDA read-modify-write, interleave slot claims, and
//! admission-control saturation behaviour.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};

use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};
use pario_server::{Saturation, Server, ServerConfig, ServerError, View};

const REC: usize = 64;

fn volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: 256,
    })
    .unwrap()
}

fn fill_ss(volume: &Volume, name: &str, records: u64) {
    let pf = ParallelFile::create(volume, name, Organization::SelfScheduledSeq, REC, 4).unwrap();
    let w = pf.self_sched_writer().unwrap();
    for i in 0..records {
        w.write_next(&[i as u8; REC]).unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn ss_sessions_share_one_cursor_exactly_once() {
    const RECORDS: u64 = 400;
    const CLIENTS: usize = 8;
    let volume = volume();
    fill_ss(&volume, "queue", RECORDS);
    let server = Server::new(
        volume,
        ServerConfig {
            max_in_flight: 4,
            saturation: Saturation::Block,
        },
    );
    let seen = Mutex::new(HashSet::new());
    // Every client opens before any reads: a name opened again after its
    // last handle closed starts a new run at record 0.
    let opened = Barrier::new(CLIENTS);
    // Each client tallies the reads it completed, end-of-file included.
    let reads: Vec<u64> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let sess = server.connect();
                let (seen, opened) = (&seen, &opened);
                s.spawn(move || {
                    let mut q = sess.open("queue", View::SelfSched).unwrap();
                    opened.wait();
                    let mut buf = [0u8; REC];
                    let mut reads = 0;
                    loop {
                        reads += 1;
                        let Some(idx) = q.read_next(&mut buf).unwrap() else {
                            return reads;
                        };
                        assert_eq!(buf, [idx as u8; REC], "torn record {idx}");
                        assert!(seen.lock().unwrap().insert(idx), "record {idx} twice");
                    }
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(seen.into_inner().unwrap().len(), RECORDS as usize);
    let stats = server.stats();
    assert_eq!(stats.sessions, CLIENTS as u64);
    // Every session got work (each drained until it saw end-of-file),
    // and the server admitted every read the clients completed.
    assert!(reads.iter().all(|&n| n > 0));
    assert_eq!(stats.total_admitted, reads.iter().sum::<u64>());
    // Admission kept the configured bound under 8 clients.
    assert!(stats.queue_depth_high_water <= 4);
    assert!(!stats.latency.is_empty());
    // Every device transfer flowed through the volume's I/O executor,
    // and the queues drained once the clients finished.
    let io = server.volume().executor_stats();
    assert!(io.serviced > 0);
    assert_eq!(io.in_flight, 0);
}

#[test]
fn ss_block_reads_and_record_reads_share_the_cursor_too() {
    let volume = volume();
    fill_ss(&volume, "queue", 42); // short tail block of 2
    let server = Server::new(volume, ServerConfig::default());
    let mut a = server.connect().open("queue", View::SelfSched).unwrap();
    let mut b = server.connect().open("queue", View::SelfSched).unwrap();
    let mut seen = HashSet::new();
    let mut block = [0u8; REC * 4];
    let mut rec = [0u8; REC];
    loop {
        let more_a = match a.read_next_block(&mut block).unwrap() {
            Some((first, n)) => {
                for k in 0..n as u64 {
                    assert!(seen.insert(first + k));
                }
                true
            }
            None => false,
        };
        let more_b = match b.read_next(&mut rec).unwrap() {
            Some(idx) => {
                assert!(seen.insert(idx));
                true
            }
            None => false,
        };
        if !more_a && !more_b {
            break;
        }
    }
    assert_eq!(seen.len(), 42);
    assert_eq!(a.claimed().unwrap(), 42);
}

#[test]
fn sequential_files_are_exclusive_per_session() {
    let volume = volume();
    ParallelFile::create(&volume, "log", Organization::Sequential, REC, 4).unwrap();
    let server = Server::new(volume, ServerConfig::default());
    let a = server.connect();
    let b = server.connect();

    let mut writer = a.open("log", View::Sequential).unwrap();
    match b.open("log", View::Sequential).err() {
        Some(ServerError::Exclusive { name, by }) => {
            assert_eq!((name.as_str(), by), ("log", a.id()));
        }
        other => panic!("expected Exclusive, got {other:?}"),
    }
    for i in 0..20u64 {
        writer.write_next(&[i as u8; REC]).unwrap();
    }
    assert_eq!(writer.finish().unwrap(), 20);
    drop(writer);

    // The hold is gone: the other session reads the whole file back.
    let mut reader = b.open("log", View::Sequential).unwrap();
    let mut buf = [0u8; REC];
    let mut n = 0u64;
    while reader.read_next(&mut buf).unwrap().is_some() {
        assert_eq!(buf, [n as u8; REC]);
        n += 1;
    }
    assert_eq!(n, 20);
}

/// The client's reader may not keep the window it read before the
/// client's own appends — zeros of the allocated run-ahead included —
/// and serve the new records from it.
#[test]
fn a_sequential_client_reads_on_into_its_own_appends() {
    let volume = volume();
    ParallelFile::create(&volume, "log", Organization::Sequential, REC, 4).unwrap();
    let server = Server::new(volume, ServerConfig::default());
    let session = server.connect();
    let mut log = session.open("log", View::Sequential).unwrap();
    let mut buf = [0u8; REC];
    let append = |log: &mut pario_server::Handle, records: std::ops::Range<u64>| {
        for i in records.clone() {
            log.write_next(&[i as u8; REC]).unwrap();
        }
        assert_eq!(log.finish().unwrap(), records.end);
    };
    append(&mut log, 0..10);
    assert!(log.read_next(&mut buf).unwrap().is_some());
    append(&mut log, 10..16);
    for i in 1..16u64 {
        assert!(log.read_next(&mut buf).unwrap().is_some(), "record {i}");
        assert_eq!(buf, [i as u8; REC], "record {i}");
    }
    assert!(log.read_next(&mut buf).unwrap().is_none());
}

#[test]
fn gda_updates_never_lose_increments() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: u64 = 50;
    let volume = volume();
    let pf = ParallelFile::create(&volume, "shared", Organization::GlobalDirect, REC, 4).unwrap();
    pf.direct_handle()
        .unwrap()
        .write_record(0, &[0; REC])
        .unwrap();
    let server = Server::new(volume, ServerConfig::default());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let sess = server.connect();
            s.spawn(move || {
                let c = sess.open_direct("shared").unwrap();
                for _ in 0..PER_CLIENT {
                    // Locked read-modify-write of a counter in the record.
                    c.update(0, |bytes| {
                        let v = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                        bytes[..8].copy_from_slice(&(v + 1).to_le_bytes());
                    })
                    .unwrap();
                }
            });
        }
    });
    let sess = server.connect();
    let c = sess.open_direct("shared").unwrap();
    let mut buf = [0u8; REC];
    c.read_record(0, &mut buf).unwrap();
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    assert_eq!(v, CLIENTS as u64 * PER_CLIENT, "lost increments");
}

#[test]
fn interleave_slots_claimed_like_partitions() {
    let volume = volume();
    ParallelFile::create(
        &volume,
        "matrix",
        Organization::InterleavedSeq { processes: 2 },
        REC,
        4,
    )
    .unwrap();
    let server = Server::new(volume, ServerConfig::default());
    let a = server.connect();
    let b = server.connect();
    let mut s0 = a.open("matrix", View::Interleaved(0)).unwrap();
    assert!(matches!(
        b.open("matrix", View::Interleaved(0)),
        Err(ServerError::Claimed { index: 0, .. })
    ));
    let mut s1 = b.open("matrix", View::Interleaved(1)).unwrap();
    // Each slot writes its strided blocks; the global view interleaves.
    let mut block = [0u8; REC * 4];
    for k in 0..3u64 {
        block.fill((2 * k) as u8);
        s0.write_next_block(&block).unwrap();
        block.fill((2 * k + 1) as u8);
        s1.write_next_block(&block).unwrap();
    }
    // Wrong organization for a sequential open: refused at the door.
    assert!(matches!(
        a.open("matrix", View::Sequential),
        Err(ServerError::Core(_))
    ));
    // Global check through the core layer.
    let pf = ParallelFile::open(server.volume(), "matrix").unwrap();
    let mut gr = pf.global_reader();
    let mut buf = [0u8; REC];
    let mut idx = 0u64;
    while gr.read_record(&mut buf).unwrap() {
        assert_eq!(buf, [(idx / 4) as u8; REC], "file block {}", idx / 4);
        idx += 1;
    }
    assert_eq!(idx, 24);
    drop(s0);
    // Released slot is reclaimable.
    let _s0 = b.open("matrix", View::Interleaved(0)).unwrap();
}

#[test]
fn reject_policy_surfaces_busy_to_the_client() {
    let volume = volume();
    ParallelFile::create(&volume, "shared", Organization::GlobalDirect, REC, 4).unwrap();
    let server = Server::new(
        volume,
        ServerConfig {
            max_in_flight: 1,
            saturation: Saturation::Reject,
        },
    );
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let holder = server.connect();
        s.spawn(move || {
            let c = holder.open_direct("shared").unwrap();
            // This update holds the single admission permit while the
            // closure blocks, pinning the server at saturation.
            c.update(0, |bytes| {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                bytes[0] = 1;
            })
            .unwrap();
        });
        entered_rx.recv().unwrap();
        let other = server.connect();
        let c = other.open_direct("shared").unwrap();
        let mut buf = [0u8; REC];
        assert!(matches!(c.read_record(0, &mut buf), Err(ServerError::Busy)));
        release_tx.send(()).unwrap();
    });
    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.queue_depth_high_water, 1);
    assert_eq!(stats.in_flight, 0);
}

/// The registry used to keep the first `ParallelFile` it opened under a
/// name for ever: a session that opened `g` after it was removed and
/// created again read another file's block, and its write overwrote
/// that file. A name is now resolved on the volume at every open.
#[test]
fn a_name_created_again_opens_the_new_file() {
    let volume = volume();
    let server = Server::new(volume.clone(), ServerConfig::default());
    let create = |name| ParallelFile::create(&volume, name, Organization::GlobalDirect, REC, 4);
    let sess = server.connect();
    create("g").unwrap();
    // The old g stays open across its removal, so its entry is still
    // registered when the new g is opened.
    let old = sess.open_direct("g").unwrap();
    old.write_record(0, &[1; REC]).unwrap();
    volume.remove("g").unwrap();
    let h = create("h").unwrap();
    h.raw().write_record(0, &[7; REC]).unwrap();
    create("g").unwrap();
    let g = sess.open_direct("g").unwrap();
    let mut buf = [9u8; REC];
    assert!(g.read_record(0, &mut buf).is_err(), "the new g is empty");
    g.write_record(0, &[2; REC]).unwrap();
    g.read_record(0, &mut buf).unwrap();
    assert_eq!(buf, [2; REC]);
    h.raw().read_record(0, &mut buf).unwrap();
    assert_eq!(buf, [7; REC], "h is untouched");
    old.read_record(0, &mut buf).unwrap();
    assert_eq!(buf, [1; REC], "the removed g is still its handle's");
    assert_eq!(sess.open("g", View::Direct).unwrap().len_records(), 1);
}

/// A name opened again after its last handle has closed is a new
/// program run, as a separately opened `ParallelFile` is in core: its
/// SS cursor starts over. While any handle is open, every session's
/// handle shares the one cursor.
#[test]
fn an_ss_name_opened_again_after_its_last_handle_closed_restarts_the_cursor() {
    let volume = volume();
    fill_ss(&volume, "queue", 10);
    let server = Server::new(volume, ServerConfig::default());
    let (a, b) = (server.connect(), server.connect());
    let mut buf = [0u8; REC];
    let mut qa = a.open("queue", View::SelfSched).unwrap();
    assert_eq!(qa.read_next(&mut buf).unwrap(), Some(0));
    let mut qb = b.open("queue", View::SelfSched).unwrap();
    assert_eq!(
        qb.read_next(&mut buf).unwrap(),
        Some(1),
        "one shared cursor"
    );
    drop(qa);
    let mut qa = a.open("queue", View::SelfSched).unwrap();
    assert_eq!(qa.read_next(&mut buf).unwrap(), Some(2), "qb kept it open");
    drop((qa, qb));
    let mut qb = b.open("queue", View::SelfSched).unwrap();
    assert_eq!(qb.read_next(&mut buf).unwrap(), Some(0), "a new run");
}

#[test]
fn a_removed_file_gives_its_blocks_back_while_the_server_lives() {
    let volume = volume();
    let server = Server::new(volume.clone(), ServerConfig::default());
    let before = volume.free_blocks();
    ParallelFile::create(&volume, "g", Organization::GlobalDirect, REC, 4).unwrap();
    let g = server.connect().open("g", View::Direct).unwrap();
    for r in 0..64 {
        g.write_record(r, &[3; REC]).unwrap();
    }
    assert_ne!(volume.free_blocks(), before);
    volume.remove("g").unwrap();
    drop(g);
    assert_eq!(volume.free_blocks(), before);
}
