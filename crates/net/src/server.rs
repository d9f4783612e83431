//! The network server: listeners, per-connection threads, and the
//! dispatch from decoded [`Request`]s onto a [`pario_server::Session`].
//!
//! A TCP server listens twice: on its port and on its **lane**, a
//! Unix-domain socket in the abstract namespace whose name every
//! welcome carries, for clients on the same host (`sock.rs`). Both
//! acceptors feed one connection table and one `run_connection`; a
//! connection does not know which listener it came in by.
//!
//! Each connection gets its **own** session, opened by its first
//! request (so claims and exclusive holds release when the connection
//! dies, exactly as they do when an in-process client drops; a
//! connection that shakes hands and leaves is not a session), and
//! **one** thread, which decodes a
//! frame, executes it and encodes the reply — no hand-off between
//! receiving a request and answering it. Requests execute
//! *sequentially*, so session semantics are preserved per connection;
//! pipelining still hides the network round trip, because the next
//! requests are already in the socket while this one runs.
//!
//! Replies are staged contiguously in one reusable per-connection
//! output buffer — a record is read straight into its tail, behind the
//! frame header — and that buffer leaves with a single `write` exactly
//! when the thread would otherwise block in `read` (its `BufReader`
//! holds no further complete frame), or when the staged bytes reach
//! [`NetConfig::frame_bytes`]. A blocking caller's reply is therefore
//! one `write`; a pipelined burst is answered in batches.
//!
//! Backpressure is the socket's own: a connection blocked in `write`
//! (its peer is not reading) is a connection that is not reading, so it
//! stages at most `frame_bytes` plus one reply and consumes no further
//! requests — TCP pushes back on the sender, and the admission queue
//! ([`pario_server::ServerStats`] remains the observability story) never
//! sees more than the configured in-flight load. The client-side half
//! is the credit window granted at handshake.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pario_check::{AtomicBool, AtomicU64, Mutex};
use pario_server::{
    DirectClient, InterleavedClient, LockedRange, PartitionClient, SeqClient, Server, Session,
    SsClient,
};
use std::sync::atomic::Ordering;

use crate::error::{NetError, Result};
use crate::frame::{
    begin_frame, encode_frame, end_frame, holds_frame, read_frame, server_handshake, Grant,
    FRAME_OVERHEAD,
};
use crate::proto::{encode_reply_error, Opened, Request, StatsSummary, STATUS_ERR, STATUS_OK};
use crate::sock::{self, Sock};
use crate::wire::WireWriter;

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Requests each connection may have outstanding (the credit window
    /// granted at handshake).
    pub credits: u32,
    /// Largest request payload accepted, bytes.
    pub max_payload: usize,
    /// Staged reply bytes at which a connection flushes its output
    /// buffer even though more requests are waiting to be read.
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

/// Where one of the server's listeners can be reached.
enum Endpoint {
    Tcp(SocketAddr),
    Unix(PathBuf),
    /// The lane of a TCP server, by its abstract-namespace name.
    Lane(Vec<u8>),
}

impl Endpoint {
    fn acceptor_name(&self) -> &'static str {
        match self {
            Endpoint::Lane(_) => "pario-net-accept-lane",
            Endpoint::Tcp(_) | Endpoint::Unix(_) => "pario-net-accept",
        }
    }

    /// A throwaway connection: it unblocks this endpoint's acceptor.
    fn poke(&self) {
        match self {
            Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
            Endpoint::Unix(path) => drop(UnixStream::connect(path)),
            Endpoint::Lane(name) => drop(sock::connect_lane(name)),
        }
    }
}

/// A live connection as the server sees it from outside its thread.
struct ConnEntry {
    /// A clone of the socket, to shut it down from `shutdown`.
    sock: Sock,
    thread: Option<std::thread::JoinHandle<()>>,
}

struct NetInner {
    server: Server,
    cfg: NetConfig,
    stop: AtomicBool,
    next_conn: AtomicU64,
    /// Live connections by id; each removes its own entry as its thread
    /// exits, so a long-lived server holds fds for live peers only.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    /// Most reply bytes any connection ever had staged at a flush.
    staged_high_water: AtomicU64,
    /// One per listener: a TCP server's port, then its lane if it has
    /// one; a Unix server's path.
    endpoints: Vec<Endpoint>,
}

/// A listening network front end over a [`Server`].
pub struct NetServer {
    inner: Arc<NetInner>,
    /// One acceptor thread per listener.
    accept: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind a TCP listener (use port 0 for an ephemeral port, then
    /// [`local_addr`](NetServer::local_addr)) and, where the platform
    /// has abstract Unix-domain sockets, the server's **lane** beside
    /// it: a Unix-domain listener under a random name that the welcome
    /// tells every client, serving the same protocol. A
    /// [`NetClient::connect_tcp`](crate::NetClient::connect_tcp) from
    /// this host moves onto it. Where the lane cannot be bound the
    /// server is TCP only.
    pub fn bind_tcp(addr: &str, server: Server, cfg: NetConfig) -> Result<NetServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| NetError::Io(format!("bind {addr}: {e}")))?;
        let mut listeners = vec![(
            Endpoint::Tcp(listener.local_addr()?),
            Listener::Tcp(listener),
        )];
        // Bound before the port accepts: no welcome names a lane that
        // is not listening yet.
        if let Ok((lane, name)) = sock::bind_lane() {
            listeners.push((Endpoint::Lane(name), Listener::Unix(lane)));
        }
        NetServer::start(server, cfg, listeners)
    }

    /// Bind a Unix-domain listener at `path` (removed again when the
    /// server shuts down).
    pub fn bind_unix(path: &std::path::Path, server: Server, cfg: NetConfig) -> Result<NetServer> {
        let listener = UnixListener::bind(path)
            .map_err(|e| NetError::Io(format!("bind {}: {e}", path.display())))?;
        let endpoint = Endpoint::Unix(path.to_path_buf());
        NetServer::start(server, cfg, vec![(endpoint, Listener::Unix(listener))])
    }

    fn start(
        server: Server,
        cfg: NetConfig,
        listeners: Vec<(Endpoint, Listener)>,
    ) -> Result<NetServer> {
        let (endpoints, listeners): (Vec<_>, Vec<_>) = listeners.into_iter().unzip();
        let inner = Arc::new(NetInner {
            server,
            cfg,
            stop: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            conns: Mutex::new(HashMap::new()),
            staged_high_water: AtomicU64::new(0),
            endpoints,
        });
        let mut net = NetServer {
            inner: Arc::clone(&inner),
            accept: Vec::new(),
        };
        for (endpoint, listener) in inner.endpoints.iter().zip(listeners) {
            let accept_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(endpoint.acceptor_name().to_string())
                .spawn(move || accept_loop(accept_inner, listener));
            // On failure `net` drops, which stops the acceptors running.
            net.accept
                .push(spawned.map_err(|e| NetError::Io(format!("spawn acceptor: {e}")))?);
        }
        Ok(net)
    }

    /// The bound TCP address, if this is a TCP server.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.endpoints.iter().find_map(|e| match e {
            Endpoint::Tcp(a) => Some(*a),
            _ => None,
        })
    }

    /// The flow-control grant connections receive at handshake.
    pub fn grant(&self) -> Grant {
        self.inner.grant()
    }

    /// Connections whose thread has not exited yet (diagnostic).
    pub fn live_connections(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// The most reply bytes any one connection has had staged when it
    /// flushed (diagnostic): bounded by `frame_bytes` plus one reply.
    pub fn staged_high_water(&self) -> usize {
        self.inner.staged_high_water.load(Ordering::Relaxed) as usize // ordering: a statistic, read for its value only
    }

    /// Stop accepting on every listener, **drain** every live
    /// connection whichever listener it came in by, and join all
    /// server-side threads. Idempotent.
    ///
    /// The drain is graceful: only the *read* half of each live socket
    /// is closed, so a connection parked in `read` wakes with EOF while
    /// its send half stays open for the replies it has staged. Requests
    /// still in the pipe when the stop flag rises are answered with a
    /// typed [`NetError::Shutdown`] reply — they were **not** executed —
    /// instead of a torn connection. A peer that has stopped reading
    /// could wedge that drain, so a watchdog falls back to the old hard
    /// close of every socket after a grace period.
    pub fn shutdown(&mut self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Close only the receive half: parked connections wake and drain.
        let close_read_halves = || {
            for c in self.inner.conns.lock().values() {
                c.sock.shutdown_read();
            }
        };
        close_read_halves();
        // Each acceptor returns at its next connection and closes its
        // listener, which gives a lane's name back.
        for e in &self.inner.endpoints {
            e.poke();
        }
        for h in self.accept.drain(..) {
            let _ = h.join();
        }
        // The acceptors are gone, so the table is complete now; a
        // connection accepted after the first pass is closed here.
        close_read_halves();
        // Liveness net for the joins below: a peer that has stopped
        // reading blocks its connection mid-flush indefinitely. If the
        // drain outlives the grace period, hard-close what is left.
        let watchdog_inner = Arc::clone(&self.inner);
        let (drained_tx, drained_rx) = mpsc::channel::<()>();
        let watchdog = std::thread::Builder::new()
            .name("pario-net-shutdown-watchdog".to_string())
            .spawn(move || {
                if drained_rx.recv_timeout(Duration::from_secs(5)).is_err() {
                    for c in watchdog_inner.conns.lock().values() {
                        c.sock.shutdown();
                    }
                }
            });
        let threads: Vec<_> = {
            let mut conns = self.inner.conns.lock();
            conns.values_mut().filter_map(|c| c.thread.take()).collect()
        };
        for h in threads {
            let _ = h.join();
        }
        let _ = drained_tx.send(());
        if let Ok(h) = watchdog {
            let _ = h.join();
        }
        for e in &self.inner.endpoints {
            if let Endpoint::Unix(path) = e {
                let _ = std::fs::remove_file(path);
            }
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
        // The registry's clone comes first: a connection that cannot be
        // shut down from outside is not served.
        let accepted = listener
            .accept()
            .and_then(|s| Ok((s.try_clone().map_err(std::io::Error::other)?, s)));
        if inner.stop.load(Ordering::SeqCst) {
            return; // shutdown's wake-up connection, or an error under it
        }
        let Ok((ctl, sock)) = accepted else {
            // A persistent failure (EMFILE, typically) must not spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let id = inner.next_conn.fetch_add(1, Ordering::Relaxed); // ordering: id allocation needs uniqueness, not ordering
        let conn_inner = Arc::clone(&inner);
        // Held across the spawn: the thread's removal of its own entry,
        // however soon, comes after the insert.
        let mut conns = inner.conns.lock();
        let spawned = std::thread::Builder::new()
            .name(format!("pario-net-conn-{id}"))
            .spawn(move || {
                run_connection(&conn_inner, sock);
                conn_inner.conns.lock().remove(&id);
            });
        if let Ok(thread) = spawned {
            let thread = Some(thread);
            conns.insert(id, ConnEntry { sock: ctl, thread });
        }
    }
}

impl NetInner {
    /// The name the welcome carries: this server's lane, if it has one.
    fn lane(&self) -> &[u8] {
        self.endpoints
            .iter()
            .find_map(|e| match e {
                Endpoint::Lane(name) => Some(&name[..]),
                _ => None,
            })
            .unwrap_or_default()
    }

    fn grant(&self) -> Grant {
        Grant {
            credits: self.cfg.credits,
            max_payload: self.cfg.max_payload as u32,
        }
    }

    /// Send everything staged in `out` with one `write` and empty it.
    fn flush(&self, sock: &mut Sock, out: &mut Vec<u8>) -> std::io::Result<()> {
        let staged = out.len() as u64;
        // ordering: a statistic; nothing is published through it
        if staged > self.staged_high_water.load(Ordering::Relaxed) {
            self.staged_high_water.fetch_max(staged, Ordering::Relaxed); // ordering: as above
        }
        let sent = sock.write_all(out);
        out.clear();
        if out.capacity() > 2 * self.cfg.frame_bytes {
            out.shrink_to(self.cfg.frame_bytes); // one oversized reply is not kept
        }
        sent
    }
}

fn run_connection(inner: &NetInner, mut sock: Sock) {
    if server_handshake(&mut sock, inner.grant(), inner.lane()).is_err() {
        return; // fail closed: bad preamble or version mismatch
    }
    // The session opens with the first request: a connection that
    // handshakes and leaves (a client on its way to the lane, a port
    // probe) is not a session, and `ServerStats` never hears of it.
    let mut conn: Option<Conn> = None;
    let max_frame = inner.cfg.max_payload + FRAME_OVERHEAD + 64;
    let mut reader = BufReader::with_capacity(64 * 1024, sock);
    let mut out = Vec::new();

    // Clean EOF, connection loss, a failed write or a frame-level
    // protocol violation all end the loop and tear down this connection
    // only. Under a server shutdown the EOF comes from the closed read
    // half once the pipelined backlog has drained.
    loop {
        // Flush before a `read` that may block, or at the staging bound.
        // A write that blocks here (the peer is not reading) is the
        // backpressure: this connection reads no further request.
        let full = out.len() >= inner.cfg.frame_bytes;
        if !out.is_empty()
            && (full || !holds_frame(reader.buffer()))
            && inner.flush(reader.get_mut(), &mut out).is_err()
        {
            break;
        }
        let Ok(Some(frame)) = read_frame(&mut reader, max_frame) else {
            break;
        };
        if inner.stop.load(Ordering::SeqCst) {
            // Server-wide shutdown: this request was *not* executed.
            // Keep draining the pipeline and answer every frame with
            // the typed notice — all of them are flushed before the
            // socket closes, so no client is left mid-reply.
            push_error(&mut out, frame.request_id, &NetError::Shutdown);
            continue;
        }
        match Request::decode(frame.code, &frame.body) {
            Ok(req) => {
                let conn = conn.get_or_insert_with(|| Conn::new(&inner.server));
                conn.reply(&mut out, frame.request_id, req);
            }
            Err(e) => {
                // A malformed payload under a known-length frame: tell
                // the client which request died, then fail closed.
                push_error(&mut out, frame.request_id, &e.into());
                break;
            }
        }
    }

    // Dropping the handle table releases exclusive holds, partition and
    // slot claims, and any GDA range locks this connection still owns.
    drop(conn);
    // Any final error frame — including the typed shutdown notices —
    // must reach the socket *before* it is shut down. A flush stalled
    // under a server-wide shutdown is unwedged by the shutdown
    // watchdog's hard close after the grace period.
    let _ = inner.flush(reader.get_mut(), &mut out);
    reader.get_ref().shutdown();
}

/// Stage a `STATUS_ERR` reply frame carrying `e`.
fn push_error(out: &mut Vec<u8>, request_id: u64, e: &NetError) {
    let mut body = WireWriter::new();
    encode_reply_error(&mut body, e);
    encode_frame(out, request_id, STATUS_ERR, body.bytes());
}

/// Read one `n`-byte record straight into the tail of `out`, behind a
/// `1` flag and `gap` bytes the caller fills in (their offset is
/// returned with what `read` produced); at end of stream the body is
/// the lone `0` flag.
fn read_flagged<T>(
    out: &mut Vec<u8>,
    gap: usize,
    n: usize,
    read: impl FnOnce(&mut [u8]) -> pario_server::Result<Option<T>>,
) -> Result<Option<(usize, T)>> {
    let at = out.len();
    out.push(1);
    out.resize(at + 1 + gap + n, 0);
    match read(&mut out[at + 1 + gap..]).map_err(NetError::Server)? {
        Some(t) => Ok(Some((at + 1, t))),
        None => {
            out.truncate(at);
            out.push(0);
            Ok(None)
        }
    }
}

/// Read one flag-less `n`-byte record into the tail of `out`.
fn read_record(
    out: &mut Vec<u8>,
    n: usize,
    read: impl FnOnce(&mut [u8]) -> pario_server::Result<()>,
) -> Result<()> {
    let at = out.len();
    out.resize(at + n, 0);
    read(&mut out[at..]).map_err(NetError::Server)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

enum HandleObj {
    /// Boxed: two stream windows make it several times the others' size.
    Seq(Box<SeqClient>),
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
    handles: HashMap<u64, HandleEntry>,
    next_handle: u64,
}

fn unknown_handle(h: u64) -> NetError {
    NetError::Protocol(format!("unknown or closed handle {h}"))
}

fn unknown_lock(lock: u64) -> NetError {
    NetError::Protocol(format!("unknown lock id {lock}"))
}

/// `Conn::$name(h)`: handle `h` as a `$variant` — its record size, its
/// block size and the client — or the typed refusal.
macro_rules! lookup {
    ($name:ident, $variant:ident, $client:ty, $what:literal) => {
        fn $name(&mut self, h: u64) -> Result<(usize, usize, &mut $client)> {
            match self.handles.get_mut(&h) {
                Some(HandleEntry {
                    obj: HandleObj::$variant(c),
                    record_size,
                    block_bytes,
                }) => Ok((*record_size, *block_bytes, c)),
                Some(_) => Err(NetError::Protocol(format!("handle {h} is not {}", $what))),
                None => Err(unknown_handle(h)),
            }
        }
    };
}

impl Conn {
    fn new(server: &Server) -> Conn {
        Conn {
            server: server.clone(),
            session: server.connect(),
            handles: HashMap::new(),
            next_handle: 1,
        }
    }

    lookup!(seq, Seq, Box<SeqClient>, "seq");
    lookup!(ss, Ss, SsClient, "ss");
    lookup!(part, Part, PartitionClient, "a partition");
    lookup!(ilv, Ilv, InterleavedClient, "interleaved");
    lookup!(dir, Dir, DirState, "direct");

    /// Execute `req` and stage its reply frame in `out`: the OK body is
    /// written in place behind the header, and taken back if the
    /// request fails after staging part of it.
    fn reply(&mut self, out: &mut Vec<u8>, request_id: u64, req: Request) {
        let at = begin_frame(out, request_id, STATUS_OK);
        match self.execute(req, out) {
            Ok(()) => end_frame(out, at),
            Err(e) => {
                out.truncate(at);
                push_error(out, request_id, &e);
            }
        }
    }

    fn open(
        &mut self,
        out: &mut Vec<u8>,
        name: &str,
        make: impl FnOnce(&Session) -> pario_server::Result<(HandleObj, Option<(u64, u64)>)>,
    ) -> Result<()> {
        let st = self.session.stat(name).map_err(NetError::Server)?;
        let (obj, range) = make(&self.session).map_err(NetError::Server)?;
        let handle = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(
            handle,
            HandleEntry {
                obj,
                record_size: st.record_size,
                block_bytes: st.record_size * st.records_per_block,
            },
        );
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
        out.extend_from_slice(w.bytes());
        Ok(())
    }

    /// Append the OK body of `req`'s reply to `out`.
    fn execute(&mut self, req: Request, out: &mut Vec<u8>) -> Result<()> {
        match req {
            Request::Ping => {}
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
                out.extend_from_slice(w.bytes());
            }

            Request::OpenSeq { name } => self.open(out, &name, |s| {
                Ok((HandleObj::Seq(Box::new(s.open_sequential(&name)?)), None))
            })?,
            Request::OpenSs { name } => self.open(out, &name, |s| {
                Ok((HandleObj::Ss(s.open_self_sched(&name)?), None))
            })?,
            Request::OpenPartition { name, partition } => self.open(out, &name, |s| {
                let c = s.open_partition(&name, partition)?;
                let range = c.range();
                Ok((HandleObj::Part(c), Some(range)))
            })?,
            Request::OpenInterleaved { name, process } => self.open(out, &name, |s| {
                Ok((HandleObj::Ilv(s.open_interleaved(&name, process)?), None))
            })?,
            Request::OpenDirect { name } => self.open(out, &name, |s| {
                let client = s.open_direct(&name)?;
                let locks = HashMap::new();
                let dir = DirState {
                    client,
                    locks,
                    next_lock: 1,
                };
                Ok((HandleObj::Dir(dir), None))
            })?,
            Request::Close { handle } => {
                self.handles
                    .remove(&handle)
                    .ok_or_else(|| unknown_handle(handle))?;
            }

            Request::SeqRead { handle } => {
                let (n, _, c) = self.seq(handle)?;
                read_flagged(out, 0, n, |b| Ok(c.read_next(b)?.then_some(())))?;
            }
            Request::SeqWrite { handle, data } => {
                let (_, _, c) = self.seq(handle)?;
                c.write_next(&data).map_err(NetError::Server)?;
            }
            Request::SeqFinish { handle } => {
                let (_, _, c) = self.seq(handle)?;
                put_u64(out, c.finish().map_err(NetError::Server)?);
            }
            Request::SeqRewind { handle } => self.seq(handle)?.2.rewind(),

            Request::SsRead { handle } => {
                let (n, _, c) = self.ss(handle)?;
                if let Some((at, idx)) = read_flagged(out, 8, n, |b| c.read_next(b))? {
                    out[at..at + 8].copy_from_slice(&idx.to_le_bytes());
                }
            }
            Request::SsReadBlock { handle } => {
                let (rs, block, c) = self.ss(handle)?;
                // Read a full block, then ship only the records actually
                // claimed (the final block may be short).
                if let Some((at, (start, count))) =
                    read_flagged(out, 12, block, |b| c.read_next_block(b))?
                {
                    out[at..at + 8].copy_from_slice(&start.to_le_bytes());
                    out[at + 8..at + 12].copy_from_slice(&(count as u32).to_le_bytes());
                    out.truncate(at + 12 + count * rs);
                }
            }
            Request::SsWrite { handle, data } => {
                let (_, _, c) = self.ss(handle)?;
                put_u64(out, c.write_next(&data).map_err(NetError::Server)?);
            }
            Request::SsFinish { handle } => {
                let (_, _, c) = self.ss(handle)?;
                put_u64(out, c.finish_writes().map_err(NetError::Server)?);
            }
            Request::SsClaimed { handle } => put_u64(out, self.ss(handle)?.2.claimed()),

            Request::PartRead { handle, record } => {
                let (n, _, c) = self.part(handle)?;
                read_record(out, n, |b| c.read_record(record, b))?;
            }
            Request::PartWrite {
                handle,
                record,
                data,
            } => {
                let (_, _, c) = self.part(handle)?;
                c.write_record(record, &data).map_err(NetError::Server)?;
            }
            Request::PartReadNext { handle } => {
                let (n, _, c) = self.part(handle)?;
                read_flagged(out, 0, n, |b| Ok(c.read_next(b)?.then_some(())))?;
            }
            Request::PartWriteNext { handle, data } => {
                let (_, _, c) = self.part(handle)?;
                c.write_next(&data).map_err(NetError::Server)?;
            }
            Request::PartRewind { handle } => self.part(handle)?.2.rewind(),

            Request::IlvReadNext { handle } => {
                let (n, _, c) = self.ilv(handle)?;
                read_flagged(out, 0, n, |b| Ok(c.read_next(b)?.then_some(())))?;
            }
            Request::IlvWriteNext { handle, data } => {
                let (_, _, c) = self.ilv(handle)?;
                put_u64(out, c.write_next(&data).map_err(NetError::Server)?);
            }
            Request::IlvReadBlock { handle } => {
                let (_, block, c) = self.ilv(handle)?;
                if let Some((at, b)) = read_flagged(out, 8, block, |b| c.read_next_block(b))? {
                    out[at..at + 8].copy_from_slice(&b.to_le_bytes());
                }
            }
            Request::IlvWriteBlock { handle, data } => {
                let (_, _, c) = self.ilv(handle)?;
                put_u64(out, c.write_next_block(&data).map_err(NetError::Server)?);
            }

            Request::DirRead { handle, record } => {
                let (n, _, d) = self.dir(handle)?;
                read_record(out, n, |b| d.client.read_record(record, b))?;
            }
            Request::DirWrite {
                handle,
                record,
                data,
            } => {
                let (_, _, d) = self.dir(handle)?;
                d.client
                    .write_record(record, &data)
                    .map_err(NetError::Server)?;
            }
            Request::DirLock { handle, r_lo, r_hi } => {
                let (_, _, d) = self.dir(handle)?;
                let lock = d.client.lock_range(r_lo, r_hi).map_err(NetError::Server)?;
                let id = d.next_lock;
                d.next_lock += 1;
                d.locks.insert(id, lock);
                put_u64(out, id);
            }
            Request::DirUnlock { handle, lock } => {
                let (_, _, d) = self.dir(handle)?;
                let held = d.locks.remove(&lock).ok_or_else(|| unknown_lock(lock))?;
                d.client.unlock(held).map_err(NetError::Server)?;
            }
            Request::DirWriteLocked {
                handle,
                lock,
                record,
                data,
            } => {
                let (_, _, d) = self.dir(handle)?;
                let held = d.locks.get(&lock).ok_or_else(|| unknown_lock(lock))?;
                d.client
                    .write_record_locked(held, record, &data)
                    .map_err(NetError::Server)?;
            }
            Request::DirLen { handle } => put_u64(out, self.dir(handle)?.2.client.len_records()),
        }
        Ok(())
    }
}
