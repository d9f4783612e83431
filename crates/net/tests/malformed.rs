//! Garbage in, connection closed — server intact. A peer that violates
//! the protocol (bad magic, absurd frame lengths, unknown opcodes,
//! malformed payloads) loses *its* connection, fail-closed; the server
//! keeps serving well-behaved clients on the same volume throughout.

use std::io::{Read, Write};
use std::net::TcpStream;

use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};
use pario_net::frame::{client_handshake, encode_frame, read_frame, FRAME_OVERHEAD};
use pario_net::proto::{decode_reply_error, MAGIC, STATUS_ERR, VERSION};
use pario_net::{NetClient, NetConfig, NetError, NetServer};
use pario_server::{Server, ServerConfig};

const REC: usize = 64;

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
    drop(pf);
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
    let q = client.open_self_sched("queue").unwrap();
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

/// What a v3 client would do with a v4 welcome is read its first reply
/// from the middle of the lane name; it is told the version instead.
#[test]
fn version_3_hello_fails_the_handshake() {
    assert_eq!(VERSION, 4);
    assert_hello_refused(3);
}

#[test]
fn malformed_payload_gets_an_error_frame_then_the_boot() {
    let (_net, addr) = serve();
    let mut s = shaken(&addr);

    // Opcode 0x10 (OpenSeq) wants a length-prefixed name; send a length
    // that runs past the payload.
    let mut bad = Vec::new();
    bad.extend_from_slice(&(1000u32).to_le_bytes());
    bad.extend_from_slice(b"short");
    let mut f = Vec::new();
    encode_frame(&mut f, 7, 0x10, &bad);
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
