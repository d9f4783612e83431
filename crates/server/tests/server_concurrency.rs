//! Cross-session sharing semantics under real concurrency: one shared
//! SS cursor across independent sessions, exclusive type-S opens,
//! lock-protected GDA read-modify-write, interleave slot claims, and
//! admission-control saturation behaviour.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Mutex;

use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};
use pario_server::{Saturation, Server, ServerConfig, ServerError};

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
    crossbeam::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let sess = server.connect();
            let seen = &seen;
            s.spawn(move |_| {
                let q = sess.open_self_sched("queue").unwrap();
                let mut buf = [0u8; REC];
                while let Some(idx) = q.read_next(&mut buf).unwrap() {
                    assert_eq!(buf, [idx as u8; REC], "torn record {idx}");
                    assert!(seen.lock().unwrap().insert(idx), "record {idx} twice");
                }
            });
        }
    })
    .unwrap();
    assert_eq!(seen.into_inner().unwrap().len(), RECORDS as usize);
    let stats = server.stats();
    assert_eq!(stats.sessions.len(), CLIENTS);
    // Every session got work (each drained until it saw end-of-file).
    assert!(stats.sessions.iter().all(|s| s.reads > 0));
    // Admission kept the configured bound under 8 clients.
    assert!(stats.queue_depth_high_water <= 4);
    assert!(!stats.latency.is_empty());
    // Every device transfer flowed through the volume's I/O executor,
    // and the queues drained once the clients finished.
    assert!(stats.executor.serviced > 0);
    assert_eq!(stats.executor.in_flight, 0);
}

#[test]
fn ss_block_reads_and_record_reads_share_the_cursor_too() {
    let volume = volume();
    fill_ss(&volume, "queue", 42); // short tail block of 2
    let server = Server::new(volume, ServerConfig::default());
    let a = server.connect().open_self_sched("queue").unwrap();
    let b = server.connect().open_self_sched("queue").unwrap();
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
    assert_eq!(a.claimed(), 42);
}

#[test]
fn sequential_files_are_exclusive_per_session() {
    let volume = volume();
    ParallelFile::create(&volume, "log", Organization::Sequential, REC, 4).unwrap();
    let server = Server::new(volume, ServerConfig::default());
    let a = server.connect();
    let b = server.connect();

    let mut writer = a.open_sequential("log").unwrap();
    match b.open_sequential("log").err() {
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
    let mut reader = b.open_sequential("log").unwrap();
    let mut buf = [0u8; REC];
    let mut n = 0u64;
    while reader.read_next(&mut buf).unwrap() {
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
    let mut log = session.open_sequential("log").unwrap();
    let mut buf = [0u8; REC];
    let append = |log: &mut pario_server::SeqClient, records: std::ops::Range<u64>| {
        for i in records.clone() {
            log.write_next(&[i as u8; REC]).unwrap();
        }
        assert_eq!(log.finish().unwrap(), records.end);
    };
    append(&mut log, 0..10);
    assert!(log.read_next(&mut buf).unwrap());
    append(&mut log, 10..16);
    for i in 1..16u64 {
        assert!(log.read_next(&mut buf).unwrap(), "record {i}");
        assert_eq!(buf, [i as u8; REC], "record {i}");
    }
    assert!(!log.read_next(&mut buf).unwrap());
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
    crossbeam::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let sess = server.connect();
            s.spawn(move |_| {
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
    })
    .unwrap();
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
    let mut s0 = a.open_interleaved("matrix", 0).unwrap();
    assert!(matches!(
        b.open_interleaved("matrix", 0),
        Err(ServerError::Claimed { index: 0, .. })
    ));
    let mut s1 = b.open_interleaved("matrix", 1).unwrap();
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
        a.open_sequential("matrix"),
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
    let _s0 = b.open_interleaved("matrix", 0).unwrap();
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
    crossbeam::thread::scope(|s| {
        let holder = server.connect();
        s.spawn(move |_| {
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
    })
    .unwrap();
    let stats = server.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.queue_depth_high_water, 1);
    assert_eq!(stats.in_flight, 0);
}
