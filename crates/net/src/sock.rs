//! One socket type over both transports (TCP and Unix-domain), so the
//! connection machinery is written once. Cloning a [`Sock`] clones the
//! OS handle: a server connection's one thread reads and writes through
//! the same handle and the registry keeps a clone to shut it down with;
//! a client keeps one clone per half (send, receive) and one to shut
//! down with. `shutdown` on any clone unblocks them all.
//!
//! The **lane** is a Unix-domain listener a TCP server opens beside its
//! port, in Linux's abstract namespace (a name, no file to leave
//! behind): the welcome names it and a same-host `connect_tcp` moves
//! onto it. Elsewhere [`bind_lane`] fails and the server has no lane.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};

use crate::error::{NetError, Result};

/// Which transport a connection runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP/IP.
    Tcp,
    /// A Unix-domain socket: a path, or a TCP server's lane.
    Unix,
}

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

    /// The transport underneath.
    pub fn transport(&self) -> Transport {
        match self {
            Sock::Tcp(_) => Transport::Tcp,
            Sock::Unix(_) => Transport::Unix,
        }
    }

    /// Whether this is a TCP connection that never left the host: its
    /// two ends have the same IP address, so the peer's lane, if it
    /// names one, is in reach.
    pub fn same_host(&self) -> bool {
        match self {
            Sock::Tcp(s) => match (s.local_addr(), s.peer_addr()) {
                (Ok(local), Ok(peer)) => local.ip() == peer.ip(),
                _ => false,
            },
            Sock::Unix(_) => false,
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

#[cfg(target_os = "linux")]
fn lane_addr(name: &[u8]) -> std::io::Result<SocketAddr> {
    use std::os::linux::net::SocketAddrExt;
    SocketAddr::from_abstract_name(name)
}

#[cfg(not(target_os = "linux"))]
fn lane_addr(_name: &[u8]) -> std::io::Result<SocketAddr> {
    Err(std::io::ErrorKind::Unsupported.into())
}

/// Listen on a lane under a fresh name: 16 bytes from the OS's random
/// source, so two servers never collide and nobody can bind the name
/// first. (It is no secret — `/proc/net/unix` lists it — and need not
/// be: whoever can reach the lane can reach the loopback port.) The
/// name is released when the listener closes.
pub fn bind_lane() -> std::io::Result<(UnixListener, Vec<u8>)> {
    let mut random = [0u8; 16];
    std::fs::File::open("/dev/urandom")?.read_exact(&mut random)?;
    let name = format!("pario-net-{:032x}", u128::from_le_bytes(random)).into_bytes();
    let listener = UnixListener::bind_addr(&lane_addr(&name)?)?;
    Ok((listener, name))
}

/// Connect to the lane called `name`.
pub fn connect_lane(name: &[u8]) -> Result<Sock> {
    let s = UnixStream::connect_addr(&lane_addr(name)?)
        .map_err(|e| NetError::Io(format!("connect lane: {e}")))?;
    Ok(Sock::unix(s))
}
