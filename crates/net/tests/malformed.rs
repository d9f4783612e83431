//! Garbage in, connection closed — server intact. A peer that violates
//! the protocol (bad magic, absurd frame lengths, unknown opcodes,
//! malformed payloads) loses *its* connection, fail-closed; the server
//! keeps serving well-behaved clients on the same volume throughout.
//! A well-formed request the handle cannot take — a payload of the wrong
//! size, a block transfer with the cursor mid-block, a record no byte
//! offset addresses — is refused with one error reply, and the
//! connection serves on.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;
use pario_core::{CoreError, Organization, ParallelFile};
use pario_fs::{FsError, Volume, VolumeConfig};
use pario_net::frame::{client_handshake, encode_frame, read_frame, FRAME_OVERHEAD};
use pario_net::proto::{
    decode_reply_error, Opened, Request, View, MAGIC, STATUS_ERR, STATUS_OK, VERSION,
};
use pario_net::wire::WireWriter;
use pario_net::{NetClient, NetConfig, NetError, NetServer};
use pario_server::{Server, ServerConfig, ServerError};

const REC: usize = 64;

/// A server over an SS file `queue` of eight records, a GDA file `d`
/// whose record 0 is all 9s, and a two-slot IS file `ilv` of four
/// blocks; four 64-byte records a block.
fn serve() -> (NetServer, String) {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 512,
        block_size: 256,
    })
    .unwrap();
    let pf =
        ParallelFile::create(&volume, "queue", Organization::SelfScheduledSeq, REC, 4).unwrap();
    let w = pf.self_sched_writer().unwrap();
    for i in 0..8u64 {
        w.write_next(&[i as u8; REC]).unwrap();
    }
    w.finish().unwrap();
    let d = ParallelFile::create(&volume, "d", Organization::GlobalDirect, REC, 4).unwrap();
    d.direct_handle()
        .unwrap()
        .write_record(0, &[9; REC])
        .unwrap();
    let org = Organization::InterleavedSeq { processes: 2 };
    let ilv = ParallelFile::create(&volume, "ilv", org, REC, 4).unwrap();
    let mut w = ilv.global_writer();
    for i in 0..16u8 {
        w.write_record(&[i; REC]).unwrap();
    }
    w.finish().unwrap();
    drop((pf, d, ilv));
    let net = NetServer::bind_tcp(
        "127.0.0.1:0",
        Server::new(volume, ServerConfig::default()),
        NetConfig::default(),
    )
    .unwrap();
    let addr = net.local_addr().unwrap().to_string();
    (net, addr)
}

/// Drain the socket until the peer closes it; the bytes read (if any).
fn read_until_eof(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => return out,
        }
    }
}

/// A raw TCP connection past a good handshake.
fn shaken(addr: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    client_handshake(&mut s).unwrap();
    s
}

/// The server still answers a real client — the poisoning attempt died
/// with its own connection, nothing more.
fn assert_server_alive(addr: &str) {
    let client = NetClient::connect_tcp(addr).unwrap();
    client.ping().unwrap();
    let q = client.open("queue", View::SelfSched).unwrap();
    let mut buf = [0u8; REC];
    // At least one record is still claimable through the shared cursor.
    q.read_next(&mut buf).unwrap();
}

#[test]
fn garbage_handshake_closes_only_that_connection() {
    let (_net, addr) = serve();
    let mut s = TcpStream::connect(&addr).unwrap();
    s.write_all(b"NOT-THE-PROTOCOL-YOU-ARE-LOOKING-FOR")
        .unwrap();
    let _ = read_until_eof(&mut s); // server hangs up
    assert_server_alive(&addr);
}

#[test]
fn absurd_frame_length_closes_the_connection() {
    let (_net, addr) = serve();
    let mut s = shaken(&addr);
    // Declare a 4 GiB frame; the reader must refuse the length, not
    // attempt the allocation.
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let _ = read_until_eof(&mut s);
    assert_server_alive(&addr);
}

/// Send one frame with `opcode` after a good handshake: the reply must
/// be a single protocol-class STATUS_ERR naming the opcode unknown,
/// then EOF, and the server must still serve other connections.
fn assert_opcode_unknown(opcode: u8, payload: &[u8]) {
    let (_net, addr) = serve();
    let mut s = shaken(&addr);

    let mut f = Vec::new();
    encode_frame(&mut f, 99, opcode, payload);
    s.write_all(&f).unwrap();

    let reply = read_until_eof(&mut s);
    let frame = read_frame(&mut &reply[..], 1 << 20)
        .expect("parseable reply")
        .expect("one frame");
    assert_eq!(frame.request_id, 99);
    assert_eq!(frame.code, STATUS_ERR);
    assert!(reply.len() >= FRAME_OVERHEAD);
    match decode_reply_error(&frame.body) {
        Ok(NetError::Protocol(msg)) => {
            assert!(
                msg.contains("malformed") && msg.contains("unknown opcode"),
                "{msg}"
            )
        }
        other => panic!("expected a protocol-class Malformed complaint, got {other:?}"),
    }
    assert_server_alive(&addr);
}

#[test]
fn unknown_opcode_gets_an_error_frame_then_the_boot() {
    assert_opcode_unknown(0xEE, b"");
}

#[test]
fn retired_opcode_0x12_is_answered_malformed_and_kills_only_that_connection() {
    // What a v2 client sent for the big-lock SS open: a well-formed
    // length-prefixed file name. The opcode is reserved since v3.
    let mut payload = 5u32.to_le_bytes().to_vec();
    payload.extend_from_slice(b"queue");
    assert_opcode_unknown(0x12, &payload);
}

/// A hello of an older `version`: the welcome still names the
/// server's version, then the server hangs up without serving a frame.
fn assert_hello_refused(version: u16) {
    assert!(version < VERSION);
    let (_net, addr) = serve();
    let mut s = TcpStream::connect(&addr).unwrap();
    let mut h = MAGIC.to_vec();
    h.extend_from_slice(&version.to_le_bytes());
    s.write_all(&h).unwrap();
    let mut ping = Vec::new();
    encode_frame(&mut ping, 1, 0x01, b"");
    let _ = s.write_all(&ping);
    let reply = read_until_eof(&mut s);
    assert_eq!(reply[..4], MAGIC);
    assert_eq!(u16::from_le_bytes([reply[4], reply[5]]), VERSION);
    let lane_len = reply[14] as usize;
    assert_eq!(reply.len(), 15 + lane_len, "welcome only, no reply frame");
    assert_server_alive(&addr);
}

#[test]
fn version_2_hello_fails_the_handshake() {
    assert_hello_refused(2);
}

/// What a v3 client would do with a v4 to v8 welcome is read its first
/// reply from the middle of the lane name; it is told the version
/// instead.
#[test]
fn version_3_hello_fails_the_handshake() {
    assert_eq!(VERSION, 8);
    assert_hello_refused(3);
}

/// A v4 client would send requests of organizations this build no
/// longer knows; it is told the version before it sends one.
#[test]
fn version_4_hello_fails_the_handshake() {
    assert_hello_refused(4);
}

/// A v5 client would read the record index a v6 reply puts in front of
/// a partition's or a slot's record as record bytes; it is told the
/// version before it reads one.
#[test]
fn version_5_hello_fails_the_handshake() {
    assert_hello_refused(5);
}

/// A v6 client would expect a partition's own refusal (server-error
/// tag 3, retired) where a v7 server sends the view's; it is told the
/// version before it asks.
#[test]
fn version_6_hello_fails_the_handshake() {
    assert_hello_refused(6);
}

/// A v7 client would read a v8 `Stats` reply as the old summary's four
/// counters and three quantiles; it is told the version before it asks.
#[test]
fn version_7_hello_fails_the_handshake() {
    assert_hello_refused(7);
}

#[test]
fn a_v4_open_is_answered_malformed_and_kills_only_that_connection() {
    // 0x15 was OpenDirect: a length-prefixed name and nothing else.
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(b'd');
    assert_opcode_unknown(0x15, &payload);
}

#[test]
fn malformed_payload_gets_an_error_frame_then_the_boot() {
    let (_net, addr) = serve();
    let mut s = shaken(&addr);

    // Opcode 0x17 (Open) wants a length-prefixed name; send a length
    // that runs past the payload.
    let mut bad = Vec::new();
    bad.extend_from_slice(&(1000u32).to_le_bytes());
    bad.extend_from_slice(b"short");
    let mut f = Vec::new();
    encode_frame(&mut f, 7, 0x17, &bad);
    s.write_all(&f).unwrap();

    let reply = read_until_eof(&mut s);
    let frame = read_frame(&mut &reply[..], 1 << 20)
        .expect("parseable reply")
        .expect("one frame");
    assert_eq!((frame.request_id, frame.code), (7, STATUS_ERR));
    assert_server_alive(&addr);
}

#[test]
fn random_bytes_after_handshake_never_poison_the_server() {
    let (_net, addr) = serve();
    // A deterministic pseudo-random garbage stream, several rounds.
    let mut seed = 0x9E3779B97F4A7C15u64;
    for _ in 0..8 {
        let mut s = shaken(&addr);
        let mut junk = Vec::with_capacity(256);
        for _ in 0..256 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            junk.push((seed >> 33) as u8);
        }
        let _ = s.write_all(&junk);
        let _ = read_until_eof(&mut s);
    }
    assert_server_alive(&addr);
}

/// A raw connection past the handshake that sends typed requests and
/// gives up on a reply after five seconds: a connection thread that
/// died fails the test instead of hanging it.
struct Raw {
    s: TcpStream,
    next_id: u64,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let s = shaken(addr);
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        Raw { s, next_id: 1 }
    }

    /// Send `req` and read its one reply: status byte and body.
    fn call(&mut self, req: &Request) -> (u8, Vec<u8>) {
        let (id, mut w, mut f) = (self.next_id, WireWriter::new(), Vec::new());
        self.next_id += 1;
        req.encode_payload(&mut w);
        encode_frame(&mut f, id, req.opcode(), w.bytes());
        self.s.write_all(&f).unwrap();
        let reply = read_frame(&mut self.s, 1 << 20)
            .expect("a reply before the timeout")
            .expect("a reply, not the end of the connection");
        assert_eq!(reply.request_id, id);
        (reply.code, reply.body)
    }

    fn ok(&mut self, req: &Request) -> Vec<u8> {
        let (code, body) = self.call(req);
        assert_eq!(code, STATUS_OK, "{:?}", decode_reply_error(&body));
        body
    }

    fn refused(&mut self, req: &Request) -> NetError {
        let (code, body) = self.call(req);
        assert_eq!(code, STATUS_ERR, "{req:?} was served");
        decode_reply_error(&body).unwrap()
    }

    fn open(&mut self, name: &str, view: View) -> u64 {
        let name = name.into();
        Opened::decode(&self.ok(&Request::Open { name, view }))
            .unwrap()
            .handle
    }
}

/// GDA record 0 as the server reads it: still all 9s.
fn record_0_intact(raw: &mut Raw, handle: u64) {
    let body = raw.ok(&Request::DirRead { handle, record: 0 });
    assert_eq!(body, [9; REC]);
}

#[test]
fn a_payload_of_the_wrong_size_is_refused_and_the_connection_serves_on() {
    let (net, addr) = serve();
    let mut raw = Raw::connect(&addr);
    let baseline = net.live_connections();
    let d = raw.open("d", View::Direct);
    let q = raw.open("queue", View::SelfSched);
    let i = raw.open("ilv", View::Interleaved(0));
    // Record 1, which the plain writes below leave alone: one of them
    // that got past the size check would wait on this lock for ever.
    let lock = u64::from_le_bytes(
        raw.ok(&Request::DirLock {
            handle: d,
            r_lo: 1,
            r_hi: 2,
        })
        .try_into()
        .unwrap(),
    );
    let short = Bytes::copy_from_slice(&[1; 5]);
    let cases = [
        Request::DirWrite {
            handle: d,
            record: 0,
            data: short.clone(),
        },
        Request::DirWrite {
            handle: d,
            record: 0,
            data: Bytes::from(vec![1; REC + 1]),
        },
        Request::DirWriteLocked {
            handle: d,
            lock,
            record: 1,
            data: short.clone(),
        },
        Request::WriteNext {
            handle: q,
            data: short.clone(),
        },
        Request::WriteNext {
            handle: i,
            data: short,
        },
        // A record where the verb moves a whole block.
        Request::WriteNextBlock {
            handle: i,
            data: Bytes::from(vec![1; REC]),
        },
    ];
    for req in &cases {
        match raw.refused(req) {
            NetError::Protocol(msg) => assert!(msg.contains("byte payloads"), "{msg}"),
            other => panic!("{req:?}: expected a payload-size refusal, got {other:?}"),
        }
        record_0_intact(&mut raw, d);
    }
    raw.ok(&Request::DirUnlock { handle: d, lock });
    assert_eq!(net.live_connections(), baseline);
}

#[test]
fn a_block_transfer_mid_block_is_refused_and_the_connection_serves_on() {
    let (net, addr) = serve();
    let mut raw = Raw::connect(&addr);
    let baseline = net.live_connections();
    let handle = raw.open("ilv", View::Interleaved(0));
    assert_eq!(
        raw.ok(&Request::ReadNext { handle }),
        [&[1][..], &0u64.to_le_bytes(), &[0; REC]].concat()
    );
    let block = Bytes::from(vec![1; 4 * REC]);
    for req in [
        Request::ReadNextBlock { handle },
        Request::WriteNextBlock {
            handle,
            data: block,
        },
    ] {
        match raw.refused(&req) {
            NetError::Server(ServerError::Core(CoreError::BadGeometry(msg))) => {
                assert!(msg.contains("not at a block start"), "{msg}")
            }
            other => panic!("{req:?}: expected the mid-block refusal, got {other:?}"),
        }
    }
    // The cursor did not move: the next record is record 1.
    assert_eq!(
        raw.ok(&Request::ReadNext { handle }),
        [&[1][..], &1u64.to_le_bytes(), &[1; REC]].concat()
    );
    assert_eq!(net.live_connections(), baseline);
}

/// Record 2^58 of 64-byte records starts at byte 2^64. Its offset
/// wrapped to 0 and the write landed on record 0.
#[test]
fn a_record_no_byte_offset_addresses_is_refused_over_the_wire() {
    let (net, addr) = serve();
    let mut raw = Raw::connect(&addr);
    let baseline = net.live_connections();
    let handle = raw.open("d", View::Direct);
    for record in [1u64 << 58, u64::MAX] {
        let req = Request::DirWrite {
            handle,
            record,
            data: Bytes::from(vec![7; REC]),
        };
        match raw.refused(&req) {
            NetError::Server(ServerError::Core(CoreError::Fs(FsError::OutOfBounds {
                record: r,
                ..
            }))) => assert_eq!(r, record),
            other => panic!("record {record}: expected OutOfBounds, got {other:?}"),
        }
        record_0_intact(&mut raw, handle);
    }
    assert_eq!(raw.ok(&Request::DirLen { handle }), 1u64.to_le_bytes());
    assert_eq!(net.live_connections(), baseline);
}
