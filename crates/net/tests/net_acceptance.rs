//! The ISSUE acceptance scenario over real sockets: eight [`NetClient`]s
//! connected to one [`NetServer`] over a shared volume observe the same
//! sharing semantics the in-process suites assert — SS exactly-once
//! delivery, exclusive partition claims, and GDA writes durable on the
//! raw media at unlock. The server listens on loopback TCP, so every
//! `connect_tcp` here ends up on its lane ([`on_the_lane`]); what is
//! served over TCP itself is at the end of the file.

use std::collections::HashSet;
use std::sync::Mutex;

use bytes::Bytes;
use pario_core::{CoreError, Organization, ParallelFile};
use pario_fs::{resolve, RawFile, Volume, VolumeCacheConfig, VolumeConfig};
use pario_net::{NetClient, NetConfig, NetError, NetServer, Transport};
use pario_server::{Server, ServerConfig, ServerError};

const REC: usize = 64;
const BS: usize = 256;

fn volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: BS,
    })
    .unwrap()
}

fn serve(volume: Volume) -> (NetServer, String) {
    let net = NetServer::bind_tcp(
        "127.0.0.1:0",
        Server::new(volume, ServerConfig::default()),
        NetConfig::default(),
    )
    .unwrap();
    let addr = net.local_addr().unwrap().to_string();
    (net, addr)
}

/// `connect_tcp` to a loopback server: the client must have moved onto
/// the server's lane. Where abstract Unix-domain sockets are forbidden
/// it stays on TCP, serves correctly, and fails here.
fn on_the_lane(addr: &str) -> NetClient {
    let client = NetClient::connect_tcp(addr).unwrap();
    assert_eq!(client.transport(), Transport::Unix, "not on the lane");
    client
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
fn eight_clients_on_the_lane_drain_ss_exactly_once() {
    const RECORDS: u64 = 400;
    const CLIENTS: usize = 8;
    const DEPTH: usize = 8; // pipelined claims in flight per client

    let volume = volume();
    fill_ss(&volume, "queue", RECORDS);
    let (_net, addr) = serve(volume);

    let seen = Mutex::new(HashSet::new());
    crossbeam::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let addr = addr.as_str();
            let seen = &seen;
            s.spawn(move |_| {
                let client = on_the_lane(addr);
                let q = client.open_self_sched("queue").unwrap();
                assert_eq!(q.record_size(), REC);
                // Keep a window of claims on the wire; resolve in order.
                let mut window = std::collections::VecDeque::new();
                for _ in 0..DEPTH {
                    window.push_back(q.submit_read_next().unwrap());
                }
                let mut buf = [0u8; REC];
                let mut draining = false;
                while let Some(t) = window.pop_front() {
                    match q.finish_read_next(t, &mut buf).unwrap() {
                        Some(idx) => {
                            assert_eq!(buf, [idx as u8; REC], "torn record {idx}");
                            assert!(seen.lock().unwrap().insert(idx), "record {idx} twice");
                            if !draining {
                                window.push_back(q.submit_read_next().unwrap());
                            }
                        }
                        None => draining = true,
                    }
                }
            });
        }
    })
    .unwrap();
    assert_eq!(seen.into_inner().unwrap().len(), RECORDS as usize);
}

#[test]
fn partition_claims_are_exclusive_over_the_wire() {
    let volume = volume();
    // 160 records over 4 partitions of a PS file.
    ParallelFile::create_sized(
        &volume,
        "part",
        Organization::PartitionedSeq { partitions: 4 },
        REC,
        4,
        160,
    )
    .unwrap();
    let (_net, addr) = serve(volume);

    let a = NetClient::connect_tcp(&addr).unwrap();
    let b = NetClient::connect_tcp(&addr).unwrap();

    let pa = a.open_partition("part", 1).unwrap();
    // The same partition from another connection is refused with the
    // exact typed error the in-process suite matches on.
    match b.open_partition("part", 1) {
        Err(NetError::Server(ServerError::Claimed { name, index, .. })) => {
            assert_eq!(name, "part");
            assert_eq!(index, 1);
        }
        other => panic!("expected Claimed, got {other:?}"),
    }
    // A different partition is fine, and the range travels back.
    let pb = b.open_partition("part", 2).unwrap();
    let (start, end) = pb.range();
    assert!(start < end);

    // Writes inside the claim work; outside the claim they are refused,
    // never silently corrupting a neighbour's records.
    let data = [7u8; REC];
    pb.write_record(start, &data).unwrap();
    let mut back = [0u8; REC];
    pb.read_record(start, &mut back).unwrap();
    assert_eq!(back, data);
    match pb.write_record(end, &data) {
        Err(NetError::Server(ServerError::OutsidePartition { record, .. })) => {
            assert_eq!(record, end);
        }
        other => panic!("expected OutsidePartition, got {other:?}"),
    }

    // Dropping the remote handle releases the claim server-side. The
    // close rides the same ordered connection, so a ping barrier on
    // client A guarantees it has executed.
    drop(pa);
    a.ping().unwrap();
    let pa2 = b.open_partition("part", 1).unwrap();
    assert_eq!(pa2.partition(), 1);
}

/// Record `r`'s bytes assembled straight from the raw devices, bypassing
/// the cache tier entirely (same probe as the in-process cached_gda
/// suite).
fn media_record(v: &Volume, f: &RawFile, r: u64) -> Vec<u8> {
    let layout = f.layout();
    let meta = f.meta_snapshot();
    let mut out = vec![0u8; REC];
    let mut byte = r * REC as u64;
    let mut done = 0usize;
    while done < REC {
        let l = byte / BS as u64;
        let within = (byte % BS as u64) as usize;
        let take = (BS - within).min(REC - done);
        let p = layout.map(l);
        let dev = meta.device_map[p.device];
        let abs = resolve(&meta.extents[p.device], p.block);
        let mut block = vec![0u8; BS];
        v.device(dev).read_block(abs, &mut block).unwrap();
        out[done..done + take].copy_from_slice(&block[within..within + take]);
        byte += take as u64;
        done += take;
    }
    out
}

#[test]
fn remote_gda_writes_on_the_lane_are_durable_on_media_at_unlock() {
    let volume = volume()
        .enable_cache(VolumeCacheConfig::write_back(32))
        .unwrap();
    let pf = ParallelFile::create(&volume, "d", Organization::GlobalDirect, REC, 4).unwrap();
    let raw = pf.raw().clone();
    drop(pf);
    let probe = volume.clone();
    let (_net, addr) = serve(volume);

    let client = on_the_lane(&addr);
    let c = client.open_direct("d").unwrap();

    // No flush anywhere: by the time write_record's reply arrives, the
    // server-side range-lock release must have pushed the span out of
    // the write-back tier (the paper's durable-at-unlock contract).
    for r in 0..16u64 {
        let data: Vec<u8> = (0..REC).map(|i| (r as usize * 31 + i) as u8).collect();
        c.write_record(r, &data).unwrap();
        assert_eq!(
            media_record(&probe, &raw, r),
            data,
            "record {r} not on media after its range lock released"
        );
    }

    // Explicit lock / locked-write / unlock over the wire: durable at
    // the unlock reply, and writes outside the locked range are refused.
    let lock = c.lock_range(20, 24).unwrap();
    let data = [0xA5u8; REC];
    c.write_record_locked(&lock, 21, &data).unwrap();
    match c.write_record_locked(&lock, 30, &data) {
        Err(NetError::Server(ServerError::RangeNotLocked { .. })) => {}
        other => panic!("expected RangeNotLocked, got {other:?}"),
    }
    c.unlock(lock).unwrap();
    assert_eq!(
        media_record(&probe, &raw, 21),
        data,
        "not durable at unlock"
    );
}

#[test]
fn lane_clients_lose_no_gda_increment_and_are_the_only_sessions() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: u64 = 25;
    let volume = volume()
        .enable_cache(VolumeCacheConfig::write_back(32))
        .unwrap();
    let pf = ParallelFile::create(&volume, "shared", Organization::GlobalDirect, REC, 4).unwrap();
    pf.direct_handle()
        .unwrap()
        .write_record(0, &[0; REC])
        .unwrap();
    drop(pf);
    let server = Server::new(volume, ServerConfig::default());
    let net = NetServer::bind_tcp("127.0.0.1:0", server.clone(), NetConfig::default()).unwrap();
    let addr = net.local_addr().unwrap().to_string();

    crossbeam::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let addr = addr.as_str();
            s.spawn(move |_| {
                let client = on_the_lane(addr);
                let c = client.open_direct("shared").unwrap();
                for _ in 0..PER_CLIENT {
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

    // A session is a connection that sent a request: the TCP connection
    // each client shook hands on and left for the lane is not one, and
    // does not sit in the statistics with zero operations.
    let stats = server.stats();
    assert_eq!(stats.sessions.len(), CLIENTS);
    assert!(stats.fairness().expect("eight sessions") > 0.0);

    let client = on_the_lane(&addr);
    let c = client.open_direct("shared").unwrap();
    let mut buf = [0u8; REC];
    c.read_record(0, &mut buf).unwrap();
    let v = u64::from_le_bytes(buf[..8].try_into().unwrap());
    assert_eq!(v, CLIENTS as u64 * PER_CLIENT, "lost increments");
    assert_eq!(client.stats().unwrap().sessions, CLIENTS as u64 + 1);
}

#[test]
fn unix_socket_carries_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("pario-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pario.sock");
    let _ = std::fs::remove_file(&path);

    let volume = volume();
    ParallelFile::create(&volume, "log", Organization::Sequential, REC, 4).unwrap();
    let mut net = NetServer::bind_unix(
        &path,
        Server::new(volume, ServerConfig::default()),
        NetConfig::default(),
    )
    .unwrap();

    let client = NetClient::connect_unix(&path).unwrap();
    client.ping().unwrap();

    // Exclusive type-S over the unix transport: write, finish, read
    // back; a second exclusive open is refused while the first is held.
    {
        let log = client.open_sequential("log").unwrap();
        for i in 0..10u8 {
            log.write_next(&[i; REC]).unwrap();
        }
        assert_eq!(log.finish().unwrap(), 10);
        match NetClient::connect_unix(&path)
            .unwrap()
            .open_sequential("log")
        {
            Err(NetError::Server(ServerError::Exclusive { name, .. })) => assert_eq!(name, "log"),
            other => panic!("expected Exclusive, got {other:?}"),
        }
        let mut buf = [0u8; REC];
        for i in 0..10u8 {
            assert!(log.read_next(&mut buf).unwrap(), "record {i} missing");
            assert_eq!(buf, [i; REC]);
        }
        assert!(!log.read_next(&mut buf).unwrap(), "EOF after 10 records");
    }

    // A missing file fails with the typed FS error, not a socket error.
    match client.open_sequential("absent") {
        Err(NetError::Server(ServerError::Core(CoreError::Fs(_)))) => {}
        other => panic!("open of a missing file must fail typed, got {other:?}"),
    }

    net.shutdown();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Graceful shutdown drains in-flight work and answers pipelined
/// requests still in the pipe with the typed shutdown notice instead of
/// tearing the socket mid-reply.
#[test]
fn shutdown_drains_lane_connections_and_replies_typed_notice() {
    let volume = volume();
    drop(ParallelFile::create(&volume, "d", Organization::GlobalDirect, REC, 4).unwrap());
    let (mut net, addr) = serve(volume);

    let a = on_the_lane(&addr);
    let da = a.open_direct("d").unwrap();
    let b = on_the_lane(&addr);
    let db = b.open_direct("d").unwrap();

    // A holds record 0's byte range, so B's write of record 0 starts
    // executing server-side and parks on that lock — a genuinely
    // in-flight request. Three more writes queue behind it on B's
    // ordered connection, unread while the first is parked.
    let _lock = da.lock_range(0, 1).unwrap();
    let in_flight = db.submit_write(0, Bytes::from(vec![0x5A; REC])).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let queued: Vec<_> = (1..4u64)
        .map(|r| db.submit_write(r, Bytes::from(vec![r as u8; REC])).unwrap())
        .collect();

    // Shutdown tears down A's connection, which releases the range
    // lock, which lets B's parked write finish; its reply must be
    // flushed before B's socket closes. The three queued writes were
    // never executed and must come back as the typed notice.
    net.shutdown();

    in_flight
        .wait()
        .expect("the in-flight write must complete and its reply must be drained");
    for t in queued {
        match t.wait() {
            Err(NetError::Shutdown) => {}
            other => panic!("queued request expected the typed shutdown notice, got {other:?}"),
        }
    }
}

#[test]
fn wrong_organization_round_trips_the_full_error_chain() {
    let volume = volume();
    fill_ss(&volume, "queue", 4);
    let (_net, addr) = serve(volume);
    let client = NetClient::connect_tcp(&addr).unwrap();
    match client.open_sequential("queue") {
        Err(NetError::Server(ServerError::Core(CoreError::WrongOrganization {
            expected,
            actual,
        }))) => {
            assert!(!expected.is_empty());
            assert_eq!(actual, Organization::SelfScheduledSeq);
        }
        other => panic!("expected WrongOrganization, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Who reads the socket: one connection shared by blocking and
// pipelining threads (the turn-taking of `pario_net::ReplyMux`).
// ---------------------------------------------------------------------

/// A volume of 4 KiB blocks, for the tests that move large records.
fn big_volume() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 2048,
        block_size: 4096,
    })
    .unwrap()
}

fn pattern(r: u64) -> [u8; REC] {
    std::array::from_fn(|i| (r as usize * 31 + i) as u8)
}

#[test]
fn four_threads_share_one_connection_two_blocking_two_pipelining() {
    const RECORDS: u64 = 2000;
    const DEPTH: usize = 32; // each pipeliner wants the whole window
    const CALLS: u64 = 1500;

    let volume = volume();
    let pf =
        ParallelFile::create(&volume, "queue", Organization::SelfScheduledSeq, REC, 4).unwrap();
    let w = pf.self_sched_writer().unwrap();
    for r in 0..RECORDS {
        w.write_next(&pattern(r)).unwrap();
    }
    w.finish().unwrap();
    let gd = ParallelFile::create(&volume, "d", Organization::GlobalDirect, REC, 4).unwrap();
    let dh = gd.direct_handle().unwrap();
    for r in 0..64u64 {
        dh.write_record(r, &pattern(r)).unwrap();
    }
    drop((pf, gd, dh));
    let (_net, addr) = serve(volume);
    let client = NetClient::connect_tcp(&addr).unwrap();

    let seen = Mutex::new(HashSet::new());
    crossbeam::thread::scope(|s| {
        for t in 0..2u64 {
            let client = &client;
            s.spawn(move |_| {
                let d = client.open_direct("d").unwrap();
                let mut buf = [0u8; REC];
                for i in 0..CALLS {
                    // Disjoint halves, so a thread reads what it wrote.
                    let r = t * 32 + i % 32;
                    d.read_record(r, &mut buf).unwrap();
                    assert_eq!(buf, pattern(r), "blocking read of record {r}");
                    d.write_record(r, &buf).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let (client, seen) = (&client, &seen);
            s.spawn(move |_| {
                let q = client.open_self_sched("queue").unwrap();
                let mut window = std::collections::VecDeque::new();
                let mut buf = [0u8; REC];
                let mut local = Vec::new();
                loop {
                    while window.len() < DEPTH {
                        window.push_back(q.submit_read_next().unwrap());
                    }
                    let t = window.pop_front().unwrap();
                    match q.finish_read_next(t, &mut buf).unwrap() {
                        Some(idx) => {
                            assert_eq!(buf, pattern(idx), "pipelined read of record {idx}");
                            local.push(idx);
                        }
                        None => break, // the rest of the window is dropped unread
                    }
                }
                let mut seen = seen.lock().unwrap();
                for idx in local {
                    assert!(seen.insert(idx), "record {idx} twice");
                }
            });
        }
    })
    .unwrap();
    assert_eq!(seen.into_inner().unwrap().len(), RECORDS as usize);
    // The abandoned tail of both windows is read and discarded; a ping
    // rides behind it on the ordered connection.
    client.ping().unwrap();
    assert_eq!(client.credits_available(), client.grant().credits);
}

/// The case the fallback reader exists for: replies nobody is waiting
/// for fill the socket towards the client while a blocking caller's
/// large request fills it towards the server. With nobody reading, the
/// server blocks in `write`, stops reading, and the caller's `write`
/// never finishes.
#[test]
fn unread_pipelined_replies_do_not_wedge_a_large_blocking_write() {
    const READ_REC: usize = 64 * 1024;
    const WRITE_REC: usize = 240 * 4096; // ~1 MiB, under max_payload
    const N: usize = 16;

    let volume = big_volume();
    let pf =
        ParallelFile::create(&volume, "src", Organization::SelfScheduledSeq, READ_REC, 1).unwrap();
    let w = pf.self_sched_writer().unwrap();
    for i in 0..N {
        w.write_next(&vec![i as u8 + 1; READ_REC]).unwrap();
    }
    w.finish().unwrap();
    drop((w, pf));
    drop(
        ParallelFile::create(&volume, "dst", Organization::SelfScheduledSeq, WRITE_REC, 1).unwrap(),
    );
    let (_net, addr) = serve(volume);
    let client = NetClient::connect_tcp(&addr).unwrap();

    let src = client.open_self_sched("src").unwrap();
    let tickets: Vec<_> = (0..N).map(|_| src.submit_read_next().unwrap()).collect();

    // Another thread, same connection: sixteen large blocking writes,
    // all done before the first read is finished.
    std::thread::scope(|s| {
        s.spawn(|| {
            let dst = client.open_self_sched("dst").unwrap();
            let data = vec![0xC3u8; WRITE_REC];
            for i in 0..N as u64 {
                assert_eq!(dst.write_next(&data).unwrap(), i);
            }
            assert_eq!(dst.finish_writes().unwrap(), N as u64);
        });
    });

    let mut buf = vec![0u8; READ_REC];
    for (i, t) in tickets.into_iter().enumerate() {
        let idx = src
            .finish_read_next(t, &mut buf)
            .unwrap()
            .expect("a record");
        assert_eq!(idx, i as u64, "one connection executes in order");
        assert!(buf.iter().all(|&b| b == i as u8 + 1), "torn record {idx}");
    }
}

#[test]
fn a_dropped_ticket_neither_wedges_the_next_caller_nor_leaks_a_credit() {
    let volume = volume();
    fill_ss(&volume, "queue", 8);
    let (_net, addr) = serve(volume);
    let client = NetClient::connect_tcp(&addr).unwrap();
    let q = client.open_self_sched("queue").unwrap();
    let credits = client.grant().credits;

    drop(q.submit_read_next().unwrap());
    // The next caller finds the abandoned reply ahead of its own.
    client.ping().unwrap();
    // A leaked credit would park one of a window's worth of requests.
    let window: Vec<_> = (0..credits)
        .map(|_| q.submit_read_next().unwrap())
        .collect();
    drop(window);
    for _ in 0..credits {
        client.ping().unwrap();
    }
    assert_eq!(client.credits_available(), credits);
}

/// A payload over the limit the welcome granted fails before a byte of
/// it is sent: the connection stays in step and the credit comes back.
#[test]
fn an_oversized_request_is_refused_unsent_and_costs_no_credit() {
    let volume = volume();
    drop(ParallelFile::create(&volume, "d", Organization::GlobalDirect, REC, 4).unwrap());
    let cfg = NetConfig {
        max_payload: 1024,
        ..NetConfig::default()
    };
    let server = Server::new(volume, ServerConfig::default());
    let net = NetServer::bind_tcp("127.0.0.1:0", server, cfg).unwrap();
    let client = NetClient::connect_tcp(&net.local_addr().unwrap().to_string()).unwrap();
    let d = client.open_direct("d").unwrap();

    match d.write_record(0, &[9u8; 2048]) {
        Err(NetError::TooLarge { len, max: 1024 }) => assert!(len > 2048),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    d.write_record(0, &[3u8; REC]).unwrap();
    let mut back = [0u8; REC];
    d.read_record(0, &mut back).unwrap();
    assert_eq!(back, [3u8; REC]);
    assert_eq!(client.credits_available(), client.grant().credits);
}

/// The server dies while one caller reads the socket and another is
/// parked behind it: both see the connection lost, as does whoever
/// calls next.
#[test]
fn server_death_reaches_the_leading_caller_and_the_parked_follower() {
    use pario_net::frame::{read_frame, server_handshake};
    use pario_net::Grant;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A server that takes two requests, answers neither, and dies.
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let grant = Grant {
            credits: 4,
            max_payload: 1 << 20,
        };
        server_handshake(&mut s, grant, b"").unwrap();
        for _ in 0..2 {
            read_frame(&mut s, 1 << 20).unwrap().expect("a request");
        }
        // Both callers are inside `wait` by now: one reads, one is parked.
        std::thread::sleep(std::time::Duration::from_millis(200));
    });

    let client = NetClient::connect_tcp(&addr).unwrap();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| match client.ping() {
                Err(NetError::ConnectionLost(_)) => {}
                other => panic!("expected ConnectionLost, got {other:?}"),
            });
        }
    });
    server.join().unwrap();
    assert!(matches!(client.ping(), Err(NetError::ConnectionLost(_))));
}

/// A peer that pipelines reads and never reads a reply: the connection
/// blocks in `write` holding at most `frame_bytes` plus one reply, reads
/// no further request, and does not outlive a shutdown.
#[test]
fn a_peer_that_stops_reading_is_bounded_and_closed_at_shutdown() {
    use pario_net::frame::{client_handshake, encode_frame, read_frame, FRAME_OVERHEAD};
    use pario_net::proto::{Opened, Request};
    use pario_net::wire::WireWriter;
    use std::io::{Read, Write};

    const BIG: usize = 32 * 1024;
    const REQUESTS: u64 = 4096; // 128 MiB of replies: past any socket buffer

    let volume = big_volume();
    let pf = ParallelFile::create(&volume, "d", Organization::GlobalDirect, BIG, 1).unwrap();
    pf.direct_handle()
        .unwrap()
        .write_record(0, &vec![7u8; BIG])
        .unwrap();
    drop(pf);
    let (mut net, addr) = serve(volume);

    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    client_handshake(&mut s).unwrap();
    let send = |s: &mut std::net::TcpStream, id: u64, req: &Request| {
        let (mut w, mut f) = (WireWriter::new(), Vec::new());
        req.encode_payload(&mut w);
        encode_frame(&mut f, id, req.opcode(), w.bytes());
        s.write_all(&f)
    };
    send(&mut s, 1, &Request::OpenDirect { name: "d".into() }).unwrap();
    let opened = read_frame(&mut s, 1 << 20).unwrap().expect("open reply");
    let handle = Opened::decode(&opened.body).unwrap().handle;
    // A request that cannot be sent is the backpressure arriving: the
    // server has stopped reading this connection.
    s.set_write_timeout(Some(std::time::Duration::from_secs(1)))
        .unwrap();
    for id in 0..REQUESTS {
        if send(&mut s, 2 + id, &Request::DirRead { handle, record: 0 }).is_err() {
            break;
        }
    }

    // The connection fills the socket and blocks; nothing grows after.
    std::thread::sleep(std::time::Duration::from_millis(500));
    let one_reply = 4 + FRAME_OVERHEAD + BIG;
    let staged = net.staged_high_water();
    assert!(
        staged <= NetConfig::default().frame_bytes + one_reply,
        "{staged} reply bytes staged for a peer that is not reading"
    );
    assert_eq!(net.live_connections(), 1);

    // Shutdown ends it either way: by the watchdog's hard close after
    // the grace period, or sooner where the kernel lets the stuck flush
    // through (Linux wakes a blocked `send` on `shutdown(SHUT_RD)` and
    // admits a little more), in which case the queued requests are
    // answered with the typed notice. The peer sees the socket end.
    net.shutdown();
    assert_eq!(net.live_connections(), 0);
    let mut sink = vec![0u8; 1 << 20];
    while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
}

// ---------------------------------------------------------------------
// The lane, and what is still served over TCP.
// ---------------------------------------------------------------------

/// Speaking the protocol by hand over a `TcpStream`: the welcome names
/// the lane, and a peer that ignores it is served where it is.
#[test]
fn a_raw_tcp_peer_is_told_the_lane_and_served_over_tcp() {
    use pario_net::frame::{client_handshake, encode_frame, read_frame};
    use pario_net::proto::STATUS_OK;
    use std::io::Write;

    let (_net, addr) = serve(volume());
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    let welcome = client_handshake(&mut s).unwrap();
    assert_eq!(welcome.grant, _net.grant());
    assert!(welcome.lane.starts_with(b"pario-net-"), "no lane named");
    let mut ping = Vec::new();
    encode_frame(&mut ping, 5, 0x01, b"");
    s.write_all(&ping).unwrap();
    let reply = read_frame(&mut s, 1 << 20).unwrap().expect("a reply");
    assert_eq!((reply.request_id, reply.code), (5, STATUS_OK));
}

/// A welcome naming a lane nobody listens on (the server sits in
/// another network namespace behind a forwarded port, say): the client
/// stays on the TCP connection it has, and works.
#[test]
fn a_lane_out_of_reach_leaves_the_client_on_tcp() {
    use pario_net::frame::{encode_frame, read_frame, server_handshake};
    use pario_net::proto::STATUS_OK;
    use std::io::Write;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A server that answers pings, after a welcome whose lane is not there.
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let grant = pario_net::Grant {
            credits: 4,
            max_payload: 1 << 20,
        };
        server_handshake(&mut s, grant, b"pario-net-nobody-listens-here").unwrap();
        let mut served = 0;
        while let Some(f) = read_frame(&mut s, 1 << 20).unwrap() {
            let mut reply = Vec::new();
            encode_frame(&mut reply, f.request_id, STATUS_OK, b"");
            s.write_all(&reply).unwrap();
            served += 1;
        }
        served
    });

    let client = NetClient::connect_tcp(&addr).unwrap();
    assert_eq!(client.transport(), Transport::Tcp);
    for _ in 0..3 {
        client.ping().unwrap();
    }
    drop(client);
    assert_eq!(server.join().unwrap(), 3);
}

/// `shutdown` stops both acceptors and gives the lane's name back; the
/// port is free for the next server at once. (That lane connections
/// drain with the typed notice is
/// `shutdown_drains_lane_connections_and_replies_typed_notice`.)
#[test]
fn shutdown_closes_the_port_and_the_lane_and_a_second_server_serves_at_once() {
    use pario_net::frame::client_handshake;
    use pario_net::sock::connect_lane;

    let (mut first, addr) = serve(volume());
    let lane = {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        client_handshake(&mut s).unwrap().lane
    };
    drop(connect_lane(&lane).expect("the lane listens while the server runs"));
    let client = on_the_lane(&addr);
    client.ping().unwrap();

    first.shutdown();
    assert_eq!(first.live_connections(), 0);
    assert!(
        client.ping().is_err(),
        "a lane connection outlived shutdown"
    );
    assert!(connect_lane(&lane).is_err(), "the lane outlived shutdown");
    assert!(std::net::TcpStream::connect(&addr).is_err());

    let second = NetServer::bind_tcp(
        &addr,
        Server::new(volume(), ServerConfig::default()),
        NetConfig::default(),
    )
    .unwrap();
    assert_eq!(second.local_addr().unwrap().to_string(), addr);
    on_the_lane(&addr).ping().unwrap();
}
