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
//! flow-control window and the largest payload the client may send.
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
    let mut frame = vec![0u8; len];
    if !read_exact_or_eof(r, &mut frame)? {
        return Err(NetError::ConnectionLost(
            "peer closed between length and frame".to_string(),
        ));
    }
    let mut id8 = [0u8; 8];
    id8.copy_from_slice(&frame[..8]);
    let request_id = u64::from_le_bytes(id8);
    let code = frame[8];
    frame.drain(..FRAME_OVERHEAD);
    Ok(Some(RawFrame {
        request_id,
        code,
        body: frame,
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

/// Client side of the preamble: send hello, read the welcome, return
/// the server's grant.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> Result<Grant> {
    let mut hello = Vec::with_capacity(6);
    hello.extend_from_slice(&MAGIC);
    hello.extend_from_slice(&VERSION.to_le_bytes());
    stream.write_all(&hello)?;
    stream.flush()?;

    let mut welcome = [0u8; 14];
    if !read_exact_or_eof(stream, &mut welcome)? {
        return Err(NetError::ConnectionLost(
            "server closed during handshake".to_string(),
        ));
    }
    if welcome[..4] != MAGIC {
        return Err(NetError::Protocol(
            "server preamble does not carry the protocol magic".to_string(),
        ));
    }
    let theirs = u16::from_le_bytes([welcome[4], welcome[5]]);
    if theirs != VERSION {
        return Err(NetError::Handshake {
            ours: VERSION,
            theirs,
        });
    }
    let credits = u32::from_le_bytes([welcome[6], welcome[7], welcome[8], welcome[9]]);
    let max_payload = u32::from_le_bytes([welcome[10], welcome[11], welcome[12], welcome[13]]);
    if credits == 0 {
        return Err(NetError::Protocol(
            "server granted zero credits".to_string(),
        ));
    }
    Ok(Grant {
        credits,
        max_payload,
    })
}

/// Server side of the preamble: read the hello, validate it, send the
/// welcome with `grant`. Returns the client's version; a mismatch is
/// reported *after* the welcome is written, so the client learns our
/// version before the socket closes.
pub fn server_handshake(stream: &mut (impl Read + Write), grant: Grant) -> Result<()> {
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

    let mut welcome = Vec::with_capacity(14);
    welcome.extend_from_slice(&MAGIC);
    welcome.extend_from_slice(&VERSION.to_le_bytes());
    welcome.extend_from_slice(&grant.credits.to_le_bytes());
    welcome.extend_from_slice(&grant.max_payload.to_le_bytes());
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

    #[test]
    fn handshake_agrees_over_a_pipe() {
        // Simulate the two directions with separate buffers.
        struct Duplex {
            rx: Cursor<Vec<u8>>,
            tx: Vec<u8>,
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

        let grant = Grant {
            credits: 32,
            max_payload: 1 << 20,
        };
        // Client writes its hello...
        let mut client = Duplex {
            rx: Cursor::new(Vec::new()),
            tx: Vec::new(),
        };
        // (run only the write half by handing it an unfilled rx; the
        // read will fail, which we ignore here)
        let _ = client_handshake(&mut client);
        // ...server consumes it and writes the welcome...
        let mut server = Duplex {
            rx: Cursor::new(client.tx.clone()),
            tx: Vec::new(),
        };
        server_handshake(&mut server, grant).expect("server side");
        // ...client consumes the welcome.
        let mut client2 = Duplex {
            rx: Cursor::new(server.tx),
            tx: Vec::new(),
        };
        assert_eq!(client_handshake(&mut client2).expect("client side"), grant);
    }

    #[test]
    fn garbage_magic_fails_closed() {
        let mut s = Cursor::new(b"GARBAGE-BYTES!".to_vec());
        assert!(matches!(
            server_handshake(
                &mut s,
                Grant {
                    credits: 1,
                    max_payload: 1024
                }
            ),
            Err(NetError::Protocol(_))
        ));
    }
}
