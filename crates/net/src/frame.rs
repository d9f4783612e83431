//! Framing and the handshake: how messages sit on a byte stream.
//!
//! Every frame, both directions, is:
//!
//! ```text
//! u32 len            bytes after this field (9 ..= max frame)
//! u64 request_id     client-chosen; echoed verbatim in the reply
//! u8  code           opcode (requests) or status byte (replies)
//! ...                payload / body
//! ```
//!
//! Before the first frame, each side sends a preamble: the client's
//! hello is `MAGIC + u16 version`; the server's welcome echoes the
//! magic and version and appends `u32 credits + u32 max_payload` — the
//! flow-control window and the largest payload the client may send —
//! and `u8 n + n bytes`, the name of the server's lane ([`Welcome`];
//! `n` is 0 when it has none).
//!
//! Decoding is fail-closed: a frame that violates the length bounds or
//! carries bytes no encoder produces kills that connection with a
//! [`NetError::Protocol`]; the server itself is unaffected.

use std::io::{Read, Write};

use crate::error::{NetError, Result};
use crate::proto::{MAGIC, VERSION};

/// Fixed bytes of a frame after the length field: request id + code.
pub const FRAME_OVERHEAD: usize = 8 + 1;

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Client-chosen request id (echoed in the reply).
    pub request_id: u64,
    /// Opcode (requests) or status byte (replies).
    pub code: u8,
    /// Payload / body bytes.
    pub body: Vec<u8>,
}

/// Append a complete frame to `out`.
pub fn encode_frame(out: &mut Vec<u8>, request_id: u64, code: u8, body: &[u8]) {
    let at = begin_frame(out, request_id, code);
    out.extend_from_slice(body);
    end_frame(out, at);
}

/// Start a frame whose body the caller appends to `out` in place —
/// the server reads records straight into the tail of its output
/// buffer. Returns the frame's offset for [`end_frame`].
pub fn begin_frame(out: &mut Vec<u8>, request_id: u64, code: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.push(code);
    at
}

/// Close the frame begun at `at`: patch its length over what follows.
pub fn end_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Whether `buf` starts with a whole frame (length field and all of its
/// bytes): if not, reading the next frame may block.
pub fn holds_frame(buf: &[u8]) -> bool {
    match buf.first_chunk::<4>() {
        Some(len4) => buf.len() - 4 >= u32::from_le_bytes(*len4) as usize,
        None => false,
    }
}

/// Read exactly `buf.len()` bytes, distinguishing clean EOF before the
/// first byte (`Ok(false)`) from a mid-value disconnect (error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(NetError::ConnectionLost(format!(
                    "peer closed mid-frame ({filled}/{} bytes)",
                    buf.len()
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e.to_string())),
        }
    }
    Ok(true)
}

/// Read one frame. `Ok(None)` is a clean shutdown at a frame boundary;
/// anything else that cannot produce a whole well-formed frame is an
/// error. `max_frame` bounds the declared length so a garbage length
/// prefix cannot make the reader allocate gigabytes.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<RawFrame>> {
    let mut len4 = [0u8; 4];
    if !read_exact_or_eof(r, &mut len4)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len4) as usize;
    if len < FRAME_OVERHEAD || len > max_frame {
        return Err(NetError::Protocol(format!(
            "frame length {len} outside [{FRAME_OVERHEAD}, {max_frame}]"
        )));
    }
    // The header stays on the stack and the body lands in the vector it
    // is returned in: nothing is shifted down behind the header.
    let mut id_code = [0u8; FRAME_OVERHEAD];
    let mut body = vec![0u8; len - FRAME_OVERHEAD];
    if !read_exact_or_eof(r, &mut id_code)? || !read_exact_or_eof(r, &mut body)? {
        return Err(NetError::ConnectionLost(
            "peer closed between length and frame".to_string(),
        ));
    }
    let mut id8 = [0u8; 8];
    id8.copy_from_slice(&id_code[..8]);
    Ok(Some(RawFrame {
        request_id: u64::from_le_bytes(id8),
        code: id_code[8],
        body,
    }))
}

/// Flow-control terms a server grants a connection at handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Requests the client may have outstanding at once.
    pub credits: u32,
    /// Largest request payload the client may send, bytes.
    pub max_payload: u32,
}

/// What the server's welcome tells a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// The flow-control terms of this connection.
    pub grant: Grant,
    /// The name of the server's lane — a Unix-domain listener in the
    /// abstract namespace of the server's host, serving the same
    /// protocol — or empty if it has none.
    pub lane: Vec<u8>,
}

/// Fixed bytes of the welcome: magic, version, credits, max payload
/// and the length of the lane name that follows.
const WELCOME_FIXED: usize = 4 + 2 + 4 + 4 + 1;

/// Client side of the preamble: send hello, read the welcome.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> Result<Welcome> {
    let mut hello = Vec::with_capacity(6);
    hello.extend_from_slice(&MAGIC);
    hello.extend_from_slice(&VERSION.to_le_bytes());
    stream.write_all(&hello)?;
    stream.flush()?;

    // The version sits in the first six bytes of every welcome there has
    // been: a peer of another version is named before its layout is
    // trusted (or waited for).
    let mut head = [0u8; 6];
    let mut terms = [0u8; WELCOME_FIXED - 6];
    let closed = || NetError::ConnectionLost("server closed during handshake".to_string());
    if !read_exact_or_eof(stream, &mut head)? {
        return Err(closed());
    }
    if head[..4] != MAGIC {
        return Err(NetError::Protocol(
            "server preamble does not carry the protocol magic".to_string(),
        ));
    }
    let theirs = u16::from_le_bytes([head[4], head[5]]);
    if theirs != VERSION {
        return Err(NetError::Handshake {
            ours: VERSION,
            theirs,
        });
    }
    if !read_exact_or_eof(stream, &mut terms)? {
        return Err(closed());
    }
    let credits = u32::from_le_bytes([terms[0], terms[1], terms[2], terms[3]]);
    let max_payload = u32::from_le_bytes([terms[4], terms[5], terms[6], terms[7]]);
    if credits == 0 {
        return Err(NetError::Protocol(
            "server granted zero credits".to_string(),
        ));
    }
    let mut lane = vec![0u8; terms[8] as usize];
    if !read_exact_or_eof(stream, &mut lane)? {
        return Err(closed());
    }
    Ok(Welcome {
        grant: Grant {
            credits,
            max_payload,
        },
        lane,
    })
}

/// Server side of the preamble: read the hello, validate it, send the
/// welcome with `grant` and the name of this server's `lane` (empty if
/// it has none; at most 255 bytes). A version mismatch is reported
/// *after* the welcome is written, so the client learns our version
/// before the socket closes.
pub fn server_handshake(stream: &mut (impl Read + Write), grant: Grant, lane: &[u8]) -> Result<()> {
    let lane_len = u8::try_from(lane.len())
        .map_err(|_| NetError::Protocol(format!("lane name of {} bytes", lane.len())))?;
    let mut hello = [0u8; 6];
    if !read_exact_or_eof(stream, &mut hello)? {
        return Err(NetError::ConnectionLost(
            "client closed during handshake".to_string(),
        ));
    }
    if hello[..4] != MAGIC {
        return Err(NetError::Protocol(
            "client preamble does not carry the protocol magic".to_string(),
        ));
    }
    let theirs = u16::from_le_bytes([hello[4], hello[5]]);

    let mut welcome = Vec::with_capacity(WELCOME_FIXED + lane.len());
    welcome.extend_from_slice(&MAGIC);
    welcome.extend_from_slice(&VERSION.to_le_bytes());
    welcome.extend_from_slice(&grant.credits.to_le_bytes());
    welcome.extend_from_slice(&grant.max_payload.to_le_bytes());
    welcome.push(lane_len);
    welcome.extend_from_slice(lane);
    stream.write_all(&welcome)?;
    stream.flush()?;

    if theirs != VERSION {
        return Err(NetError::Handshake {
            ours: VERSION,
            theirs,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 42, 0x28, b"body");
        let f = read_frame(&mut Cursor::new(&buf), 1 << 20)
            .expect("read")
            .expect("one frame");
        assert_eq!(
            f,
            RawFrame {
                request_id: 42,
                code: 0x28,
                body: b"body".to_vec()
            }
        );
        // EOF at a frame boundary is a clean None.
        let mut c = Cursor::new(&buf[buf.len()..]);
        assert_eq!(read_frame(&mut c, 1 << 20).expect("read"), None);
    }

    #[test]
    fn header_plus_payload_equals_whole_frame() {
        let mut whole = vec![0xEE; 3]; // frames append; offsets are not 0
        encode_frame(&mut whole, 7, 1, b"\x01payload");
        let mut split = vec![0xEE; 3];
        let at = begin_frame(&mut split, 7, 1);
        split.extend_from_slice(b"\x01payload");
        end_frame(&mut split, at);
        assert_eq!(whole, split);
        assert!(holds_frame(&whole[3..]));
        assert!(!holds_frame(&whole[3..whole.len() - 1]));
        assert!(!holds_frame(&whole[3..6]));
    }

    #[test]
    fn oversized_and_undersized_lengths_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(8u32).to_le_bytes()); // < FRAME_OVERHEAD
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1 << 20),
            Err(NetError::Protocol(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1 << 20),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn mid_frame_disconnect_is_connection_lost() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, 1, b"xyz");
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1 << 20),
            Err(NetError::ConnectionLost(_))
        ));
    }

    /// One direction each: what the peer sent, and what we answer.
    struct Duplex {
        rx: Cursor<Vec<u8>>,
        tx: Vec<u8>,
    }

    impl Duplex {
        fn fed(rx: Vec<u8>) -> Duplex {
            Duplex {
                rx: Cursor::new(rx),
                tx: Vec::new(),
            }
        }
    }

    impl Read for Duplex {
        fn read(&mut self, b: &mut [u8]) -> std::io::Result<usize> {
            self.rx.read(b)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.tx.write(b)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const GRANT: Grant = Grant {
        credits: 32,
        max_payload: 1 << 20,
    };

    /// The hello this build sends (its welcome never comes).
    fn hello() -> Vec<u8> {
        let mut client = Duplex::fed(Vec::new());
        let _ = client_handshake(&mut client);
        client.tx
    }

    #[test]
    fn handshake_agrees_over_a_pipe_and_carries_the_lane_name() {
        for lane in [&b""[..], b"pario-net-0123456789abcdef", &[0xFF; 255]] {
            let mut server = Duplex::fed(hello());
            server_handshake(&mut server, GRANT, lane).expect("server side");
            let mut client = Duplex::fed(server.tx);
            let welcome = client_handshake(&mut client).expect("client side");
            assert_eq!(welcome.grant, GRANT);
            assert_eq!(welcome.lane, lane);
        }
    }

    #[test]
    fn a_welcome_cut_short_inside_the_lane_name_is_connection_lost() {
        let mut server = Duplex::fed(hello());
        server_handshake(&mut server, GRANT, b"pario-net-lane").expect("server side");
        server.tx.truncate(WELCOME_FIXED + 3);
        assert!(matches!(
            client_handshake(&mut Duplex::fed(server.tx)),
            Err(NetError::ConnectionLost(_))
        ));
    }

    #[test]
    fn version_3_peers_are_refused_by_name_on_both_sides() {
        // A v3 hello: the welcome still goes out, then the typed refusal.
        let mut v3_hello = MAGIC.to_vec();
        v3_hello.extend_from_slice(&3u16.to_le_bytes());
        let mut server = Duplex::fed(v3_hello);
        assert_eq!(
            server_handshake(&mut server, GRANT, b"lane"),
            Err(NetError::Handshake {
                ours: VERSION,
                theirs: 3
            })
        );
        assert_eq!(server.tx[..4], MAGIC);
        assert_eq!(u16::from_le_bytes([server.tx[4], server.tx[5]]), VERSION);

        // A v3 welcome is 14 bytes and then the server hangs up: the
        // version is read before the fifteenth byte is waited for.
        let mut v3_welcome = MAGIC.to_vec();
        v3_welcome.extend_from_slice(&3u16.to_le_bytes());
        v3_welcome.extend_from_slice(&32u32.to_le_bytes());
        v3_welcome.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert_eq!(
            client_handshake(&mut Duplex::fed(v3_welcome)),
            Err(NetError::Handshake {
                ours: VERSION,
                theirs: 3
            })
        );
    }

    #[test]
    fn garbage_magic_fails_closed() {
        let mut s = Cursor::new(b"GARBAGE-BYTES!".to_vec());
        assert!(matches!(
            server_handshake(&mut s, GRANT, b""),
            Err(NetError::Protocol(_))
        ));
    }
}
