//! The one verb table: every verb is sent on a handle of every view,
//! once to an in-process `Handle` and once over the wire, on two servers
//! over identical volumes. Both must refuse the same (verb, view) pairs
//! — the ones the protocol documents as not served — and a refusal may
//! take no admission permit and count no operation. A served pair must
//! produce the same records and indices: the in-process result, encoded
//! as the v6 reply the protocol documents, is the wire's reply body.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;
use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};
use pario_net::frame::{client_handshake, encode_frame, read_frame};
use pario_net::proto::{decode_reply_error, Opened, Request, View, STATUS_OK};
use pario_net::wire::WireWriter;
use pario_net::{NetConfig, NetError, NetServer};
use pario_server::{Handle, Server, ServerConfig, ServerError};

const REC: usize = 64;
const RPB: usize = 4;
/// The record the by-index verbs address: inside partition 1 of `ps`.
const R: u64 = 9;

#[derive(Debug, Clone, Copy)]
enum Verb {
    ReadNext,
    WriteNext,
    ReadNextBlock,
    WriteNextBlock,
    Finish,
    Rewind,
    Claimed,
    DirRead,
    DirWrite,
    DirLock,
    DirUnlock,
    DirWriteLocked,
    DirLen,
}

const VERBS: [Verb; 13] = [
    Verb::ReadNext,
    Verb::WriteNext,
    Verb::ReadNextBlock,
    Verb::WriteNextBlock,
    Verb::Finish,
    Verb::Rewind,
    Verb::Claimed,
    Verb::DirRead,
    Verb::DirWrite,
    Verb::DirLock,
    Verb::DirUnlock,
    Verb::DirWriteLocked,
    Verb::DirLen,
];

/// Each view and the file it is taken on.
const VIEWS: [(View, &str); 5] = [
    (View::Sequential, "s"),
    (View::SelfSched, "ss"),
    (View::Partition(1), "ps"),
    (View::Interleaved(1), "is"),
    (View::Direct, "d"),
];

/// The pairs the protocol documents as served (`proto::Request`).
fn documented(verb: Verb, view: View) -> bool {
    use View::{Direct, Interleaved, Partition, SelfSched, Sequential};
    match verb {
        Verb::ReadNext | Verb::WriteNext => view != Direct,
        Verb::ReadNextBlock => matches!(view, SelfSched | Interleaved(_)),
        Verb::WriteNextBlock => matches!(view, Interleaved(_)),
        Verb::Finish => matches!(view, Sequential | SelfSched),
        Verb::Rewind => matches!(view, Sequential | Partition(_)),
        Verb::Claimed => view == SelfSched,
        Verb::DirRead | Verb::DirWrite => matches!(view, Partition(_) | Direct),
        Verb::DirLock | Verb::DirUnlock | Verb::DirWriteLocked | Verb::DirLen => view == Direct,
    }
}

fn record(tag: u8, r: u64) -> Vec<u8> {
    vec![tag.wrapping_mul(32).wrapping_add(r as u8); REC]
}

/// A server over one file per view, filled alike every time: `s` (S,
/// 6 records), `ss` (SS, 10), `ps` (PS in two partitions of 8), `is`
/// (IS over two slots, 16) and `d` (GDA, 16).
fn server() -> Server {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: REC * RPB,
    })
    .unwrap();
    let create = |name, org| ParallelFile::create(&volume, name, org, REC, RPB).unwrap();
    let mut w = create("s", Organization::Sequential).global_writer();
    for r in 0..6 {
        w.write_record(&record(1, r)).unwrap();
    }
    w.finish().unwrap();
    let w = create("ss", Organization::SelfScheduledSeq)
        .self_sched_writer()
        .unwrap();
    for r in 0..10 {
        assert_eq!(w.write_next(&record(2, r)).unwrap(), r);
    }
    w.finish().unwrap();
    let org = Organization::PartitionedSeq { partitions: 2 };
    let ps = ParallelFile::create_sized(&volume, "ps", org, REC, RPB, 16).unwrap();
    for p in 0..2 {
        let mut h = ps.partition_handle(p).unwrap();
        for k in 0..8 {
            h.write_next(&record(3, u64::from(p) * 8 + k)).unwrap();
        }
    }
    let mut w = create("is", Organization::InterleavedSeq { processes: 2 }).global_writer();
    for r in 0..16 {
        w.write_record(&record(4, r)).unwrap();
    }
    w.finish().unwrap();
    let d = create("d", Organization::GlobalDirect)
        .direct_handle()
        .unwrap();
    for r in 0..16 {
        d.write_record(r, &record(5, r)).unwrap();
    }
    Server::new(volume, ServerConfig::default())
}

fn flagged(index: u64, bytes: &[u8]) -> Vec<u8> {
    [&[1][..], &index.to_le_bytes(), bytes].concat()
}

/// Run `verb` on an in-process handle; the reply body the protocol
/// documents for its result.
fn in_process(h: &mut Handle, verb: Verb) -> pario_server::Result<Vec<u8>> {
    let mut buf = vec![0u8; REC * RPB];
    let u64_body = |v: u64| v.to_le_bytes().to_vec();
    Ok(match verb {
        Verb::ReadNext => match h.read_next(&mut buf[..REC])? {
            Some(r) => flagged(r, &buf[..REC]),
            None => vec![0],
        },
        Verb::WriteNext => u64_body(h.write_next(&record(6, 0))?),
        Verb::ReadNextBlock => match h.read_next_block(&mut buf)? {
            Some((i, k)) => flagged(i, &buf[..k * REC]),
            None => vec![0],
        },
        Verb::WriteNextBlock => u64_body(h.write_next_block(&[7; REC * RPB])?),
        Verb::Finish => u64_body(h.finish()?),
        Verb::Rewind => h.rewind().map(|()| Vec::new())?,
        Verb::Claimed => u64_body(h.claimed()?),
        Verb::DirRead => {
            h.read_record(R, &mut buf[..REC])?;
            buf[..REC].to_vec()
        }
        Verb::DirWrite => h.write_record(R, &record(8, R)).map(|()| Vec::new())?,
        Verb::DirLock => {
            drop(h.direct()?.lock_range(R, R + 1)?);
            u64_body(1) // a handle's first lock id
        }
        Verb::DirUnlock => {
            let d = h.direct()?;
            d.unlock(d.lock_range(R, R + 1)?)?;
            Vec::new()
        }
        Verb::DirWriteLocked => {
            let d = h.direct()?;
            let lock = d.lock_range(R, R + 1)?;
            d.write_record_locked(&lock, R, &record(9, R))?;
            d.unlock(lock)?;
            Vec::new()
        }
        Verb::DirLen => u64_body(h.direct()?.len_records()),
    })
}

/// A raw connection past the handshake; each call waits five seconds
/// at most for its reply.
struct Raw {
    s: TcpStream,
    next_id: u64,
}

impl Raw {
    fn call(&mut self, req: &Request) -> (u8, Vec<u8>) {
        let (id, mut w, mut f) = (self.next_id, WireWriter::new(), Vec::new());
        self.next_id += 1;
        req.encode_payload(&mut w);
        encode_frame(&mut f, id, req.opcode(), w.bytes());
        self.s.write_all(&f).unwrap();
        let reply = read_frame(&mut self.s, 1 << 20).unwrap().expect("a reply");
        assert_eq!(reply.request_id, id);
        (reply.code, reply.body)
    }

    fn ok(&mut self, req: &Request) -> Vec<u8> {
        let (code, body) = self.call(req);
        assert_eq!(code, STATUS_OK, "{req:?}: {:?}", decode_reply_error(&body));
        body
    }
}

/// Run `verb` over the wire on a handle opened as `view` on `name`:
/// the reply's body, or the error it carries.
fn on_the_wire(raw: &mut Raw, name: &str, view: View, verb: Verb) -> Result<Vec<u8>, NetError> {
    let name = name.to_string();
    let handle = Opened::decode(&raw.ok(&Request::Open { name, view }))
        .unwrap()
        .handle;
    // A verb that needs a lock takes one first where the view serves
    // locks; elsewhere it names the id a first lock would have had.
    let lock = match (verb, view) {
        (Verb::DirUnlock | Verb::DirWriteLocked, View::Direct) => {
            let (r_lo, r_hi) = (R, R + 1);
            let id = raw.ok(&Request::DirLock { handle, r_lo, r_hi });
            u64::from_le_bytes(id.try_into().unwrap())
        }
        _ => 1,
    };
    let req = match verb {
        Verb::ReadNext => Request::ReadNext { handle },
        Verb::WriteNext => Request::WriteNext {
            handle,
            data: Bytes::from(record(6, 0)),
        },
        Verb::ReadNextBlock => Request::ReadNextBlock { handle },
        Verb::WriteNextBlock => Request::WriteNextBlock {
            handle,
            data: Bytes::from(vec![7; REC * RPB]),
        },
        Verb::Finish => Request::Finish { handle },
        Verb::Rewind => Request::Rewind { handle },
        Verb::Claimed => Request::Claimed { handle },
        Verb::DirRead => Request::DirRead { handle, record: R },
        Verb::DirWrite => Request::DirWrite {
            handle,
            record: R,
            data: Bytes::from(record(8, R)),
        },
        Verb::DirLock => Request::DirLock {
            handle,
            r_lo: R,
            r_hi: R + 1,
        },
        Verb::DirUnlock => Request::DirUnlock { handle, lock },
        Verb::DirWriteLocked => Request::DirWriteLocked {
            handle,
            lock,
            record: R,
            data: Bytes::from(record(9, R)),
        },
        Verb::DirLen => Request::DirLen { handle },
    };
    let (code, body) = raw.call(&req);
    if let (Verb::DirWriteLocked, STATUS_OK) = (verb, code) {
        raw.ok(&Request::DirUnlock { handle, lock });
    }
    raw.ok(&Request::Close { handle });
    match code {
        STATUS_OK => Ok(body),
        _ => Err(decode_reply_error(&body).unwrap()),
    }
}

/// Operations admitted so far.
fn load(server: &Server) -> u64 {
    server.stats().total_admitted
}

#[test]
fn in_process_and_wire_serve_the_same_verb_table() {
    let local = server();
    let remote = server();
    let net = NetServer::bind_tcp("127.0.0.1:0", remote.clone(), NetConfig::default()).unwrap();
    let mut s = TcpStream::connect(net.local_addr().unwrap()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    client_handshake(&mut s).unwrap();
    let mut raw = Raw { s, next_id: 1 };
    let session = local.connect();

    for (view, name) in VIEWS {
        for verb in VERBS {
            let pair = format!("{verb:?} on {view:?}");
            let mut h = session.open(name, view).unwrap();
            let before = (load(&local), load(&remote));
            let mine = in_process(&mut h, verb);
            drop(h);
            let wire = on_the_wire(&mut raw, name, view, verb);
            if documented(verb, view) {
                match (mine, wire) {
                    (Ok(mine), Ok(wire)) => assert_eq!(mine, wire, "{pair}"),
                    (Err(mine), Err(NetError::Server(wire))) => assert_eq!(mine, wire, "{pair}"),
                    (mine, wire) => panic!("{pair}: in process {mine:?}, on the wire {wire:?}"),
                }
                continue;
            }
            assert_eq!(mine, Err(ServerError::NotServed { view }), "{pair}");
            match wire {
                Err(NetError::Protocol(msg)) => {
                    assert!(msg.contains("does not serve opcode"), "{pair}: {msg}")
                }
                other => panic!("{pair}: the wire served {other:?}"),
            }
            let after = (load(&local), load(&remote));
            assert_eq!(after, before, "{pair}: a refusal was admitted");
        }
    }
}

/// The pair the wire first served with this table: SS block claims.
/// Two clients' claims interleave with record claims on one cursor,
/// and the tail block is short.
#[test]
fn ss_block_reads_over_the_wire_name_their_first_record() {
    let remote = server();
    let net = NetServer::bind_tcp("127.0.0.1:0", remote, NetConfig::default()).unwrap();
    let mut s = TcpStream::connect(net.local_addr().unwrap()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    client_handshake(&mut s).unwrap();
    let mut raw = Raw { s, next_id: 1 };
    let (name, view) = ("ss".to_string(), View::SelfSched);
    let handle = Opened::decode(&raw.ok(&Request::Open { name, view }))
        .unwrap()
        .handle;
    let block: Vec<u8> = (0..4).flat_map(|r| record(2, r)).collect();
    assert_eq!(
        raw.ok(&Request::ReadNextBlock { handle }),
        flagged(0, &block)
    );
    assert_eq!(
        raw.ok(&Request::ReadNext { handle }),
        flagged(4, &record(2, 4))
    );
    // The claim runs to the end of the block the cursor is in.
    let rest: Vec<u8> = (5..8).flat_map(|r| record(2, r)).collect();
    assert_eq!(
        raw.ok(&Request::ReadNextBlock { handle }),
        flagged(5, &rest)
    );
    let tail: Vec<u8> = (8..10).flat_map(|r| record(2, r)).collect();
    assert_eq!(
        raw.ok(&Request::ReadNextBlock { handle }),
        flagged(8, &tail)
    );
    assert_eq!(raw.ok(&Request::ReadNextBlock { handle }), [0]);
    assert_eq!(raw.ok(&Request::Claimed { handle }), 10u64.to_le_bytes());
}
