//! One socket type over both transports (TCP and Unix-domain), so the
//! connection machinery is written once. Cloning a [`Sock`] clones the
//! OS handle: a server connection's one thread reads and writes through
//! the same handle and the registry keeps a clone to shut it down with;
//! a client keeps one clone per half (send, receive) and one to shut
//! down with. `shutdown` on any clone unblocks them all.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use crate::error::{NetError, Result};

/// A connected stream socket on either transport.
pub enum Sock {
    /// A TCP connection (`TCP_NODELAY` is set by the constructors; the
    /// protocol pipelines small frames and must not wait out Nagle).
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Sock {
    /// Wrap a TCP stream, setting `TCP_NODELAY`.
    pub fn tcp(s: TcpStream) -> Result<Sock> {
        s.set_nodelay(true)?;
        Ok(Sock::Tcp(s))
    }

    /// Wrap a Unix-domain stream.
    pub fn unix(s: UnixStream) -> Sock {
        Sock::Unix(s)
    }

    /// Clone the OS handle (shared file description).
    pub fn try_clone(&self) -> Result<Sock> {
        Ok(match self {
            Sock::Tcp(s) => Sock::Tcp(s.try_clone()?),
            Sock::Unix(s) => Sock::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions; pending and future reads on every
    /// clone return EOF and writes fail, which is what unblocks a
    /// thread parked in either.
    pub fn shutdown(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Sock::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Shut down only the receive direction: a thread parked in `read`
    /// wakes with EOF, but the send half stays open so the replies it
    /// has staged can still be flushed. This is the graceful half of
    /// server shutdown; `shutdown` is the hard half.
    pub fn shutdown_read(&self) {
        let _ = match self {
            Sock::Tcp(s) => s.shutdown(std::net::Shutdown::Read),
            Sock::Unix(s) => s.shutdown(std::net::Shutdown::Read),
        };
    }

    /// A short peer label for thread names and error messages.
    pub fn peer_label(&self) -> String {
        match self {
            Sock::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp-peer".to_string()),
            Sock::Unix(_) => "unix-peer".to_string(),
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Unix(s) => s.flush(),
        }
    }
}

/// Connect over TCP.
pub fn connect_tcp(addr: &str) -> Result<Sock> {
    let s = TcpStream::connect(addr).map_err(|e| NetError::Io(format!("connect {addr}: {e}")))?;
    Sock::tcp(s)
}

/// Connect over a Unix-domain socket.
pub fn connect_unix(path: &std::path::Path) -> Result<Sock> {
    let s = UnixStream::connect(path)
        .map_err(|e| NetError::Io(format!("connect {}: {e}", path.display())))?;
    Ok(Sock::unix(s))
}
