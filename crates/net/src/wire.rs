//! The primitive byte codec under the frame protocol: little-endian
//! integers, length-prefixed byte strings, and a reader that fails
//! closed — every decode returns [`WireError::Truncated`] or
//! [`WireError::Malformed`] instead of panicking, whatever the input
//! bytes are.

use std::fmt;

/// A decode failure. Any sequence of bytes either decodes or returns
/// one of these; the connection layer treats both as fatal for the
/// connection (fail closed), never for the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The value ran past the end of the buffer.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        had: usize,
    },
    /// The bytes decoded to something no encoder produces (bad tag,
    /// non-UTF-8 string, trailing garbage).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, had } => {
                write!(f, "truncated value: needed {needed} bytes, had {had}")
            }
            WireError::Malformed(msg) => write!(f, "malformed wire data: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decoding.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// An append-only encoder over a reusable byte vector.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Take the encoded bytes, leaving the writer empty.
    pub fn take(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// The vector underneath, for a caller that frames what it encodes
    /// in place (`frame::begin_frame` / `end_frame`).
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Clear without deallocating (reuse across frames).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut WireWriter {
        self.buf.push(v);
        self
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut WireWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut WireWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut WireWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append raw bytes with no prefix (a frame's trailing payload).
    pub fn raw(&mut self, v: &[u8]) -> &mut WireWriter {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn bytes_prefixed(&mut self, v: &[u8]) -> &mut WireWriter {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn str_prefixed(&mut self, v: &str) -> &mut WireWriter {
        self.bytes_prefixed(v.as_bytes())
    }
}

/// A cursor-style decoder over a byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed — trailing garbage after a
    /// well-formed value is a protocol violation, not padding.
    pub fn finish(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after value",
                self.remaining()
            )))
        }
    }

    fn need(&self, n: usize) -> WireResult<()> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                had: self.remaining(),
            });
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        self.need(1)?;
        let v = self.buf[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> WireResult<u16> {
        self.need(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 2]);
        self.pos += 2;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> WireResult<u32> {
        self.need(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 4]);
        self.pos += 4;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> WireResult<u64> {
        self.need(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a `u32`-length-prefixed byte string (borrowed).
    pub fn bytes_prefixed(&mut self) -> WireResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let v = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(v)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str_prefixed(&mut self) -> WireResult<String> {
        let b = self.bytes_prefixed()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".to_string()))
    }

    /// Read the rest of the buffer (the frame's trailing payload).
    pub fn rest(&mut self) -> &'a [u8] {
        let v = &self.buf[self.pos..];
        self.pos = self.buf.len();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = WireWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40);
        w.str_prefixed("héllo").bytes_prefixed(&[1, 2, 3]);
        let bytes = w.take();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.str_prefixed().unwrap(), "héllo");
        assert_eq!(r.bytes_prefixed().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(
            r.u64(),
            Err(WireError::Truncated { needed: 8, had: 2 })
        ));
        // A length prefix promising more than the buffer holds.
        let mut w = WireWriter::new();
        w.u32(1000);
        let bytes = w.take();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.bytes_prefixed(),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(matches!(r.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut w = WireWriter::new();
        w.bytes_prefixed(&[0xFF, 0xFE]);
        let bytes = w.take();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.str_prefixed(), Err(WireError::Malformed(_))));
    }
}
