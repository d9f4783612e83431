//! The network server: listeners, per-connection threads, and the
//! dispatch from decoded [`Request`]s onto a [`pario_server::Session`].
//!
//! Each accepted connection gets its **own** session (so claims and
//! exclusive holds release when the connection dies, exactly as they do
//! when an in-process client drops) and two threads:
//!
//! * a **reader** that parses frames and executes requests
//!   *sequentially* — session semantics are preserved per connection,
//!   and pipelining hides the network round trip because the next
//!   request is already parsed while the reply is in flight;
//! * a **writer** that drains a channel of outgoing replies. Read
//!   replies travel as a small header plus a [`PoolBuf`] staged from a
//!   per-connection [`BufferPool`]; the writer sends the pool frame's
//!   bytes straight into the socket (no per-reply copy), and the pool's
//!   fixed capacity bounds how many read replies can be staged at once —
//!   the server-side half of flow control. The client-side half is the
//!   credit window granted at handshake.
//!
//! Backpressure composes end to end: a slow client blocks its writer,
//! which drains the pool, which parks the reader in `acquire`, which
//! stops consuming frames — and the admission queue
//! ([`pario_server::ServerStats`] remains the observability story) never
//! sees more than the configured in-flight load.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;

use pario_buffer::{BufferPool, PoolBuf};
use pario_check::{AtomicBool, AtomicU64, Mutex};
use pario_server::{
    DirectClient, InterleavedClient, LockedRange, PartitionClient, SeqClient, Server, Session,
    SsClient,
};
use std::sync::atomic::Ordering;

use crate::error::{NetError, Result};
use crate::frame::{
    encode_frame, encode_frame_header, read_frame, server_handshake, Grant, FRAME_OVERHEAD,
};
use crate::proto::{Opened, Request, StatsSummary, STATUS_ERR, STATUS_OK};
use crate::sock::Sock;
use crate::wire::WireWriter;

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Requests each connection may have outstanding (the credit window
    /// granted at handshake, and the connection's staging-pool size).
    pub credits: u32,
    /// Largest request payload accepted, bytes.
    pub max_payload: usize,
    /// Staging buffer size, bytes. Reads up to this size take the
    /// zero-copy pool path; larger ones fall back to a heap buffer.
    pub frame_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            credits: 32,
            max_payload: 1 << 20,
            frame_bytes: 64 * 1024,
        }
    }
}

enum Endpoint {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

struct NetInner {
    server: Server,
    cfg: NetConfig,
    stop: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
    socks: Mutex<Vec<Sock>>,
    endpoint: Endpoint,
}

/// A listening network front end over a [`Server`].
pub struct NetServer {
    inner: Arc<NetInner>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind a TCP listener (use port 0 for an ephemeral port, then
    /// [`local_addr`](NetServer::local_addr)).
    pub fn bind_tcp(addr: &str, server: Server, cfg: NetConfig) -> Result<NetServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("bind {addr}: {e}")))?;
        let local = listener.local_addr()?;
        NetServer::start(server, cfg, Endpoint::Tcp(local), Listener::Tcp(listener))
    }

    /// Bind a Unix-domain listener at `path` (removed again when the
    /// server shuts down).
    pub fn bind_unix(path: &std::path::Path, server: Server, cfg: NetConfig) -> Result<NetServer> {
        let listener = UnixListener::bind(path)
            .map_err(|e| NetError::Io(format!("bind {}: {e}", path.display())))?;
        NetServer::start(
            server,
            cfg,
            Endpoint::Unix(path.to_path_buf()),
            Listener::Unix(listener),
        )
    }

    fn start(
        server: Server,
        cfg: NetConfig,
        endpoint: Endpoint,
        listener: Listener,
    ) -> Result<NetServer> {
        let inner = Arc::new(NetInner {
            server,
            cfg,
            stop: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
            socks: Mutex::new(Vec::new()),
            endpoint,
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("pario-net-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))
            .map_err(|e| NetError::Io(format!("spawn acceptor: {e}")))?;
        Ok(NetServer {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound TCP address, if this is a TCP server.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self.inner.endpoint {
            Endpoint::Tcp(a) => Some(a),
            Endpoint::Unix(_) => None,
        }
    }

    /// The flow-control grant connections receive at handshake.
    pub fn grant(&self) -> Grant {
        Grant {
            credits: self.inner.cfg.credits,
            max_payload: self.inner.cfg.max_payload as u32,
        }
    }

    /// Stop accepting, **drain** every live connection, and join all
    /// server-side threads. Idempotent.
    ///
    /// The drain is graceful: only the *read* half of each live socket
    /// is closed, so parked readers wake with EOF while writers keep
    /// the send half open to flush replies already in flight. Requests
    /// still in the pipe when the stop flag rises are answered with a
    /// typed [`NetError::Shutdown`] reply — they were **not** executed —
    /// instead of a torn connection. A peer that has stopped reading
    /// could wedge that drain, so a watchdog falls back to the old hard
    /// close of every socket after a grace period.
    pub fn shutdown(&mut self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close only the receive half: readers wake, writers drain.
        for s in self.inner.socks.lock().iter() {
            s.shutdown_read();
        }
        // A throwaway connection unblocks the acceptor.
        match &self.inner.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect(addr);
            }
            Endpoint::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The acceptor is gone, so the sock list is complete now; a
        // connection that registered after the first pass gets its
        // read half closed here.
        for s in self.inner.socks.lock().iter() {
            s.shutdown_read();
        }
        // Liveness net for the joins below: a peer that has stopped
        // reading blocks its writer mid-flush indefinitely. If the
        // drain outlives the grace period, hard-close everything.
        let watchdog_inner = Arc::clone(&self.inner);
        let (drained_tx, drained_rx) = mpsc::channel::<()>();
        let watchdog = std::thread::Builder::new()
            .name("pario-net-shutdown-watchdog".to_string())
            .spawn(move || {
                if drained_rx
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .is_err()
                {
                    for s in watchdog_inner.socks.lock().iter() {
                        s.shutdown();
                    }
                }
            });
        let conns: Vec<_> = self.inner.conns.lock().drain(..).collect();
        for h in conns {
            let _ = h.join();
        }
        let _ = drained_tx.send(());
        if let Ok(h) = watchdog {
            let _ = h.join();
        }
        self.inner.socks.lock().clear();
        if let Endpoint::Unix(path) = &self.inner.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Sock> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Sock::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Sock::Unix(s))
            }
        }
    }
}

fn accept_loop(inner: Arc<NetInner>, listener: Listener) {
    loop {
        let sock = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return; // the shutdown wake-up connection
        }
        let id = inner.next_conn.fetch_add(1, Ordering::Relaxed); // ordering: id allocation needs uniqueness, not ordering
        let conn_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name(format!("pario-net-conn-{id}"))
            .spawn(move || {
                run_connection(conn_inner, sock, id);
            });
        if let Ok(h) = spawned {
            inner.conns.lock().push(h);
        }
    }
}

/// Outgoing messages from a connection's reader to its writer.
enum Outgoing {
    /// A complete small frame.
    Frame(Vec<u8>),
    /// A frame header (+ body prefix) followed by `len` bytes served
    /// straight from a staged pool buffer.
    Split {
        head: Vec<u8>,
        buf: PoolBuf,
        len: usize,
    },
}

fn run_connection(inner: Arc<NetInner>, mut sock: Sock, id: u64) {
    if server_handshake(
        &mut sock,
        Grant {
            credits: inner.cfg.credits,
            max_payload: inner.cfg.max_payload as u32,
        },
    )
    .is_err()
    {
        return; // fail closed: bad preamble or version mismatch
    }
    let Ok(write_sock) = sock.try_clone() else {
        return;
    };
    let Ok(ctl_sock) = sock.try_clone() else {
        return;
    };
    inner.socks.lock().push(match sock.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });

    let (tx, rx) = mpsc::channel::<Outgoing>();
    let writer = std::thread::Builder::new()
        .name(format!("pario-net-send-{id}"))
        .spawn(move || writer_loop(write_sock, rx));
    let Ok(writer) = writer else {
        return;
    };

    let mut conn = Conn {
        server: inner.server.clone(),
        session: inner.server.connect(),
        pool: BufferPool::new(inner.cfg.credits as usize, inner.cfg.frame_bytes),
        frame_bytes: inner.cfg.frame_bytes,
        handles: HashMap::new(),
        next_handle: 1,
    };
    let max_frame = inner.cfg.max_payload + FRAME_OVERHEAD + 64;
    let mut reader = BufReader::with_capacity(64 * 1024, sock);

    // Clean EOF, connection loss, or a frame-level protocol violation
    // all end the loop and tear down this connection only. Under a
    // server shutdown the EOF comes from the closed read half once the
    // pipelined backlog below has drained.
    while let Ok(Some(frame)) = read_frame(&mut reader, max_frame) {
        if inner.stop.load(Ordering::SeqCst) {
            // Server-wide shutdown: this request was *not* executed.
            // Keep draining the pipeline and answer every frame with
            // the typed notice — the writer flushes them all before
            // the socket closes, so no client is left mid-reply.
            if !send_reply(&tx, frame.request_id, Err(NetError::Shutdown)) {
                break;
            }
            continue;
        }
        let reply = match Request::decode(frame.code, &frame.body) {
            Ok(req) => conn.execute(req),
            Err(e) => {
                // A malformed payload under a known-length frame: tell
                // the client which request died, then fail closed.
                let mut body = WireWriter::new();
                crate::proto::encode_reply_error(&mut body, &e.into());
                let mut f = Vec::new();
                encode_frame(&mut f, frame.request_id, STATUS_ERR, body.bytes());
                let _ = tx.send(Outgoing::Frame(f));
                break;
            }
        };
        if !send_reply(&tx, frame.request_id, reply) {
            break; // writer is gone
        }
    }

    // Dropping the handle table releases exclusive holds, partition and
    // slot claims, and any GDA range locks this connection still owns.
    drop(conn);
    // Disconnect the channel and let the writer drain: any final error
    // frame — including the typed shutdown notices — must reach the
    // socket *before* the connection is shut down (the writer closes
    // the socket itself once it has flushed). A stalled writer under a
    // server-wide shutdown is unwedged by the shutdown watchdog's hard
    // close after the grace period.
    drop(tx);
    let _ = writer.join();
    ctl_sock.shutdown();
}

fn send_reply(tx: &mpsc::Sender<Outgoing>, request_id: u64, reply: Result<Reply>) -> bool {
    let msg = match reply {
        Ok(Reply::Empty) => {
            let mut f = Vec::new();
            encode_frame(&mut f, request_id, STATUS_OK, &[]);
            Outgoing::Frame(f)
        }
        Ok(Reply::U64(v)) => {
            let mut f = Vec::new();
            encode_frame(&mut f, request_id, STATUS_OK, &v.to_le_bytes());
            Outgoing::Frame(f)
        }
        Ok(Reply::Body(body)) => {
            let mut f = Vec::new();
            encode_frame(&mut f, request_id, STATUS_OK, &body);
            Outgoing::Frame(f)
        }
        Ok(Reply::Split { prefix, buf, len }) => {
            let mut head = Vec::with_capacity(4 + FRAME_OVERHEAD + prefix.len());
            encode_frame_header(&mut head, request_id, STATUS_OK, &prefix, len);
            Outgoing::Split { head, buf, len }
        }
        Err(e) => {
            let mut body = WireWriter::new();
            crate::proto::encode_reply_error(&mut body, &e);
            let mut f = Vec::new();
            encode_frame(&mut f, request_id, STATUS_ERR, body.bytes());
            Outgoing::Frame(f)
        }
    };
    tx.send(msg).is_ok()
}

/// The writer half: drain the channel into the socket. The `BufWriter`
/// capacity is deliberately *small* — it batches the little reply
/// headers, while any staged record payload (≥ its capacity) bypasses
/// the buffer and is written to the socket directly from the pool
/// frame: the zero-copy path.
fn writer_loop(sock: Sock, rx: mpsc::Receiver<Outgoing>) {
    let ctl = sock.try_clone();
    let mut w = BufWriter::with_capacity(512, sock);
    'outer: while let Ok(mut msg) = rx.recv() {
        loop {
            if write_outgoing(&mut w, msg).is_err() {
                break 'outer;
            }
            match rx.try_recv() {
                Ok(m) => msg = m,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => break 'outer,
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
    let _ = w.flush();
    // Wake the reader (it may be parked in a blocking read) so the
    // connection tears down instead of leaking a half-dead thread.
    if let Ok(c) = ctl {
        c.shutdown();
    }
}

fn write_outgoing(w: &mut BufWriter<Sock>, msg: Outgoing) -> std::io::Result<()> {
    match msg {
        Outgoing::Frame(f) => w.write_all(&f),
        Outgoing::Split { head, buf, len } => {
            w.write_all(&head)?;
            w.write_all(&buf[..len])
            // `buf` drops here; the frame returns to the pool and
            // un-parks the reader if it was waiting to stage.
        }
    }
}

enum Reply {
    Empty,
    U64(u64),
    Body(Vec<u8>),
    Split {
        prefix: Vec<u8>,
        buf: PoolBuf,
        len: usize,
    },
}

enum HandleObj {
    Seq(SeqClient),
    Ss(SsClient),
    Part(PartitionClient),
    Ilv(InterleavedClient),
    Dir(DirState),
}

struct DirState {
    client: DirectClient,
    locks: HashMap<u64, LockedRange>,
    next_lock: u64,
}

struct HandleEntry {
    obj: HandleObj,
    record_size: usize,
    block_bytes: usize,
}

struct Conn {
    server: Server,
    session: Session,
    pool: BufferPool,
    frame_bytes: usize,
    handles: HashMap<u64, HandleEntry>,
    next_handle: u64,
}

fn unknown_handle(h: u64) -> NetError {
    NetError::Protocol(format!("unknown or closed handle {h}"))
}

impl Conn {
    fn insert(&mut self, obj: HandleObj, record_size: usize, block_bytes: usize) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(
            h,
            HandleEntry {
                obj,
                record_size,
                block_bytes,
            },
        );
        h
    }

    fn open_reply(
        &mut self,
        name: &str,
        make: impl FnOnce(&Session) -> pario_server::Result<(HandleObj, Option<(u64, u64)>)>,
    ) -> Result<Reply> {
        let st = self.session.stat(name).map_err(NetError::Server)?;
        let (obj, range) = make(&self.session).map_err(NetError::Server)?;
        let block_bytes = st.record_size * st.records_per_block;
        let handle = self.insert(obj, st.record_size, block_bytes);
        let (start, end) = range.unwrap_or((0, st.len_records));
        let mut w = WireWriter::new();
        Opened {
            handle,
            record_size: st.record_size as u32,
            records_per_block: st.records_per_block as u32,
            len_records: st.len_records,
            start,
            end,
        }
        .encode(&mut w);
        Ok(Reply::Body(w.take()))
    }

    /// Stage a read of `n` bytes. At most `pool.capacity()` replies can
    /// be staged at once; `acquire` parks this connection's reader until
    /// the writer returns a frame — flow control by construction.
    fn staged_read<T>(
        &self,
        n: usize,
        prefix: impl FnOnce(T, &mut WireWriter),
        read: impl FnOnce(&mut [u8]) -> pario_server::Result<Option<T>>,
    ) -> Result<Reply> {
        if n <= self.frame_bytes {
            let mut buf = self.pool.acquire();
            match read(&mut buf[..n]).map_err(NetError::Server)? {
                Some(t) => {
                    let mut w = WireWriter::new();
                    w.u8(1);
                    prefix(t, &mut w);
                    Ok(Reply::Split {
                        prefix: w.take(),
                        buf,
                        len: n,
                    })
                }
                None => Ok(Reply::Body(vec![0])),
            }
        } else {
            // Oversized record: heap fallback (still one copy total).
            let mut v = vec![0u8; n];
            match read(&mut v).map_err(NetError::Server)? {
                Some(t) => {
                    let mut w = WireWriter::new();
                    w.u8(1);
                    prefix(t, &mut w);
                    w.raw(&v);
                    Ok(Reply::Body(w.take()))
                }
                None => Ok(Reply::Body(vec![0])),
            }
        }
    }

    fn execute(&mut self, req: Request) -> Result<Reply> {
        match req {
            Request::Ping => Ok(Reply::Empty),
            Request::Stats => {
                let s = self.server.stats();
                let mut w = WireWriter::new();
                StatsSummary {
                    sessions: s.sessions.len() as u64,
                    in_flight: s.in_flight as u64,
                    rejected: s.rejected,
                    total_admitted: s.total_admitted,
                    p50_nanos: s.p50(),
                    p99_nanos: s.p99(),
                    p999_nanos: s.p999(),
                }
                .encode(&mut w);
                Ok(Reply::Body(w.take()))
            }

            Request::OpenSeq { name } => self.open_reply(&name, |s| {
                Ok((HandleObj::Seq(s.open_sequential(&name)?), None))
            }),
            Request::OpenSs { name } => self.open_reply(&name, |s| {
                Ok((HandleObj::Ss(s.open_self_sched(&name)?), None))
            }),
            Request::OpenPartition { name, partition } => self.open_reply(&name, |s| {
                let c = s.open_partition(&name, partition)?;
                let range = c.range();
                Ok((HandleObj::Part(c), Some(range)))
            }),
            Request::OpenInterleaved { name, process } => self.open_reply(&name, |s| {
                Ok((HandleObj::Ilv(s.open_interleaved(&name, process)?), None))
            }),
            Request::OpenDirect { name } => self.open_reply(&name, |s| {
                Ok((
                    HandleObj::Dir(DirState {
                        client: s.open_direct(&name)?,
                        locks: HashMap::new(),
                        next_lock: 1,
                    }),
                    None,
                ))
            }),
            Request::Close { handle } => match self.handles.remove(&handle) {
                Some(_) => Ok(Reply::Empty),
                None => Err(unknown_handle(handle)),
            },

            Request::SeqRead { handle } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let n = e.record_size;
                let HandleObj::Seq(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!("handle {handle} is not seq")));
                };
                // `staged_read` borrows the pool immutably; clients are
                // borrowed mutably out of the table first.
                stage_flagged_read(&self.pool, self.frame_bytes, n, |out| c.read_next(out))
            }
            Request::SeqWrite { handle, data } => {
                self.seq(handle)?
                    .write_next(&data)
                    .map_err(NetError::Server)?;
                Ok(Reply::Empty)
            }
            Request::SeqFinish { handle } => {
                let v = self.seq(handle)?.finish().map_err(NetError::Server)?;
                Ok(Reply::U64(v))
            }
            Request::SeqRewind { handle } => {
                self.seq(handle)?.rewind();
                Ok(Reply::Empty)
            }

            Request::SsRead { handle } => {
                let (n, c) = self.ss(handle)?;
                self.staged_read(
                    n,
                    |idx, w| {
                        w.u64(idx);
                    },
                    |out| c.read_next(out),
                )
            }
            Request::SsReadBlock { handle } => {
                let (_, c) = self.ss(handle)?;
                let block = self.handles[&handle].block_bytes;
                let rs = self.handles[&handle].record_size;
                // Read into a full block, then ship only the records
                // actually claimed (the final block may be short).
                let mut v = vec![0u8; block];
                match c.read_next_block(&mut v).map_err(NetError::Server)? {
                    Some((start, count)) => {
                        let mut w = WireWriter::new();
                        w.u8(1).u64(start).u32(count as u32);
                        w.raw(&v[..count * rs]);
                        Ok(Reply::Body(w.take()))
                    }
                    None => Ok(Reply::Body(vec![0])),
                }
            }
            Request::SsWrite { handle, data } => {
                let (_, c) = self.ss(handle)?;
                let slot = c.write_next(&data).map_err(NetError::Server)?;
                Ok(Reply::U64(slot))
            }
            Request::SsFinish { handle } => {
                let (_, c) = self.ss(handle)?;
                Ok(Reply::U64(c.finish_writes().map_err(NetError::Server)?))
            }
            Request::SsClaimed { handle } => {
                let (_, c) = self.ss(handle)?;
                Ok(Reply::U64(c.claimed()))
            }

            Request::PartRead { handle, record } => {
                let e = self
                    .handles
                    .get(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let n = e.record_size;
                let HandleObj::Part(c) = &e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not a partition"
                    )));
                };
                self.staged_read(n, |(), _| {}, |out| c.read_record(record, out).map(Some))
                    .map(strip_some_flag)
            }
            Request::PartWrite {
                handle,
                record,
                data,
            } => {
                let e = self
                    .handles
                    .get(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let HandleObj::Part(c) = &e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not a partition"
                    )));
                };
                c.write_record(record, &data).map_err(NetError::Server)?;
                Ok(Reply::Empty)
            }
            Request::PartReadNext { handle } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let n = e.record_size;
                let HandleObj::Part(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not a partition"
                    )));
                };
                stage_flagged_read(&self.pool, self.frame_bytes, n, |out| c.read_next(out))
            }
            Request::PartWriteNext { handle, data } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let HandleObj::Part(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not a partition"
                    )));
                };
                c.write_next(&data).map_err(NetError::Server)?;
                Ok(Reply::Empty)
            }
            Request::PartRewind { handle } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let HandleObj::Part(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not a partition"
                    )));
                };
                c.rewind();
                Ok(Reply::Empty)
            }

            Request::IlvReadNext { handle } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let n = e.record_size;
                let HandleObj::Ilv(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not interleaved"
                    )));
                };
                stage_flagged_read(&self.pool, self.frame_bytes, n, |out| c.read_next(out))
            }
            Request::IlvWriteNext { handle, data } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let HandleObj::Ilv(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not interleaved"
                    )));
                };
                Ok(Reply::U64(c.write_next(&data).map_err(NetError::Server)?))
            }
            Request::IlvReadBlock { handle } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let block = e.block_bytes;
                let HandleObj::Ilv(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not interleaved"
                    )));
                };
                let mut v = vec![0u8; block];
                match c.read_next_block(&mut v).map_err(NetError::Server)? {
                    Some(b) => {
                        let mut w = WireWriter::new();
                        w.u8(1).u64(b);
                        w.raw(&v);
                        Ok(Reply::Body(w.take()))
                    }
                    None => Ok(Reply::Body(vec![0])),
                }
            }
            Request::IlvWriteBlock { handle, data } => {
                let e = self
                    .handles
                    .get_mut(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let HandleObj::Ilv(c) = &mut e.obj else {
                    return Err(NetError::Protocol(format!(
                        "handle {handle} is not interleaved"
                    )));
                };
                Ok(Reply::U64(
                    c.write_next_block(&data).map_err(NetError::Server)?,
                ))
            }

            Request::DirRead { handle, record } => {
                let e = self
                    .handles
                    .get(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
                let n = e.record_size;
                let HandleObj::Dir(d) = &e.obj else {
                    return Err(NetError::Protocol(format!("handle {handle} is not direct")));
                };
                let c = &d.client;
                self.staged_read(n, |(), _| {}, |out| c.read_record(record, out).map(Some))
                    .map(strip_some_flag)
            }
            Request::DirWrite {
                handle,
                record,
                data,
            } => {
                self.dir(handle)?
                    .client
                    .write_record(record, &data)
                    .map_err(NetError::Server)?;
                Ok(Reply::Empty)
            }
            Request::DirLock { handle, r_lo, r_hi } => {
                let d = self.dir(handle)?;
                let lock = d.client.lock_range(r_lo, r_hi).map_err(NetError::Server)?;
                let id = d.next_lock;
                d.next_lock += 1;
                d.locks.insert(id, lock);
                Ok(Reply::U64(id))
            }
            Request::DirUnlock { handle, lock } => {
                let d = self.dir(handle)?;
                let held = d
                    .locks
                    .remove(&lock)
                    .ok_or_else(|| NetError::Protocol(format!("unknown lock id {lock}")))?;
                d.client.unlock(held).map_err(NetError::Server)?;
                Ok(Reply::Empty)
            }
            Request::DirWriteLocked {
                handle,
                lock,
                record,
                data,
            } => {
                let d = self.dir(handle)?;
                let held = d
                    .locks
                    .get(&lock)
                    .ok_or_else(|| NetError::Protocol(format!("unknown lock id {lock}")))?;
                d.client
                    .write_record_locked(held, record, &data)
                    .map_err(NetError::Server)?;
                Ok(Reply::Empty)
            }
            Request::DirLen { handle } => Ok(Reply::U64(self.dir(handle)?.client.len_records())),
        }
    }

    fn seq(&mut self, h: u64) -> Result<&mut SeqClient> {
        match self.handles.get_mut(&h) {
            Some(HandleEntry {
                obj: HandleObj::Seq(c),
                ..
            }) => Ok(c),
            Some(_) => Err(NetError::Protocol(format!("handle {h} is not seq"))),
            None => Err(unknown_handle(h)),
        }
    }

    fn ss(&self, h: u64) -> Result<(usize, &SsClient)> {
        match self.handles.get(&h) {
            Some(HandleEntry {
                obj: HandleObj::Ss(c),
                record_size,
                ..
            }) => Ok((*record_size, c)),
            Some(_) => Err(NetError::Protocol(format!("handle {h} is not ss"))),
            None => Err(unknown_handle(h)),
        }
    }

    fn dir(&mut self, h: u64) -> Result<&mut DirState> {
        match self.handles.get_mut(&h) {
            Some(HandleEntry {
                obj: HandleObj::Dir(d),
                ..
            }) => Ok(d),
            Some(_) => Err(NetError::Protocol(format!("handle {h} is not direct"))),
            None => Err(unknown_handle(h)),
        }
    }
}

/// Flag-less single-record reads (`PartRead`, `DirRead`) reuse
/// [`Conn::staged_read`] with a unit prefix, then drop the leading
/// `Some` flag byte so the body is exactly the record.
fn strip_some_flag(r: Reply) -> Reply {
    match r {
        Reply::Split { prefix, buf, len } => {
            // invariant: staged_read wrote [1] then the (empty) prefix.
            Reply::Split {
                prefix: prefix[1..].to_vec(),
                buf,
                len,
            }
        }
        Reply::Body(b) if !b.is_empty() => Reply::Body(b[1..].to_vec()),
        other => other,
    }
}

/// Stage a flagged single-record read (`SeqRead`, `PartReadNext`,
/// `IlvReadNext`): reply body is a `u8` flag (0 = end of stream) then
/// the record, served from a pool frame when it fits.
fn stage_flagged_read(
    pool: &BufferPool,
    frame_bytes: usize,
    n: usize,
    mut read: impl FnMut(&mut [u8]) -> pario_server::Result<bool>,
) -> Result<Reply> {
    if n <= frame_bytes {
        let mut buf = pool.acquire();
        if read(&mut buf[..n]).map_err(NetError::Server)? {
            Ok(Reply::Split {
                prefix: vec![1],
                buf,
                len: n,
            })
        } else {
            Ok(Reply::Body(vec![0]))
        }
    } else {
        let mut v = vec![0u8; n];
        if read(&mut v).map_err(NetError::Server)? {
            let mut body = vec![1];
            body.extend_from_slice(&v);
            Ok(Reply::Body(body))
        } else {
            Ok(Reply::Body(vec![0]))
        }
    }
}
