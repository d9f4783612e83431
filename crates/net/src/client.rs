//! The network client: a [`NetClient`] mirrors the [`Session`] API of
//! `pario-server` over a socket, with **pipelined** requests under a
//! credit window.
//!
//! A blocking call sends its frame and then reads the socket **on the
//! calling thread** until its reply arrives — no reader thread sits
//! between the caller and `recv`. Who reads when several threads share
//! the connection, or when replies are outstanding that nobody waits
//! for, is [`ReplyMux`]'s turn-taking (`reader.rs`); the
//! `pario-net-client-recv` thread is its fallback reader, started by
//! the first pipelined request and asleep on a condvar whenever a
//! caller reads or nothing pipelined is outstanding.
//!
//! One lock on the reply path, and one to send, ranked in DESIGN.md §8
//! and never nested:
//!
//! * `replies` (net.replies, 5) — the slot table: the flow-control
//!   window granted at handshake (a request's slot is its credit and its
//!   index the request's id; `submit` waits here while every slot the
//!   window allows is out), each slot's reply, and the receive half
//!   while nobody reads.
//! * `wire` (net.send, 7) — the send half of the socket plus its frame
//!   staging buffer; holds exactly one `write_all` per request.
//!
//! Requests submitted back-to-back overlap their network round trips —
//! the server executes them in order, but the wire carries many at
//! once.
//!
//! [`Session`]: pario_server::Session

use std::io::{BufReader, Write};
use std::sync::Arc;

use bytes::Bytes;
use pario_check::{LockLevel, Mutex};

use crate::error::{NetError, Result};
use crate::frame::{
    begin_frame, client_handshake, end_frame, read_frame, Grant, RawFrame, Welcome, FRAME_OVERHEAD,
};
use crate::proto::{Opened, Request, StatsSummary, View};
use crate::reader::{FrameSource, ReplyMux, Ticket};
use crate::sock::{self, Sock, Transport};
use crate::wire::{WireReader, WireWriter};

/// The receive half of the socket, held by whichever thread reads.
struct RecvHalf {
    sock: BufReader<Sock>,
    max_frame: usize,
}

impl FrameSource for RecvHalf {
    fn next_frame(&mut self) -> Result<Option<RawFrame>> {
        read_frame(&mut self.sock, self.max_frame)
    }
}

struct WireHalf {
    sock: Sock,
    /// The frame being sent: a request is encoded here, behind its
    /// header, and leaves from here.
    frame: WireWriter,
}

struct ClientCore {
    mux: Arc<ReplyMux<RecvHalf>>,
    wire: Mutex<WireHalf>,
    max_payload: usize,
    /// The fallback reader, started by the first pipelined request (the
    /// slot table says which: [`ReplyMux::sent`]) and joined at drop: a
    /// client that only makes blocking calls has no thread of its own.
    fallback: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One request in flight. Dropping it abandons the reply (whoever reads
/// the socket still consumes and discards it); [`Pending::wait`] blocks
/// for it.
#[must_use = "a pending request resolves only through wait()"]
pub struct Pending {
    core: Arc<ClientCore>,
    ticket: Ticket<RecvHalf>,
}

impl Pending {
    /// Block until the reply arrives; returns the raw OK body, or the
    /// decoded error.
    pub fn wait(self) -> Result<Vec<u8>> {
        self.core.mux.wait(self.ticket)
    }
}

impl ClientCore {
    /// Take a slot, the request's credit and id, and send the frame. A
    /// `pipelined` request is one the caller does not wait for at once.
    /// A request whose payload is over the server's limit is refused
    /// here, encoded but never sent.
    fn send(&self, req: &Request, pipelined: bool) -> Result<Ticket<RecvHalf>> {
        let (id, ticket) = self.mux.register(pipelined)?;
        let sent = {
            let mut wire = self.wire.lock();
            let WireHalf { sock, frame } = &mut *wire;
            frame.clear();
            let at = begin_frame(frame.buf_mut(), id, req.opcode());
            req.encode_payload(frame);
            end_frame(frame.buf_mut(), at);
            let len = frame.bytes().len() - 4 - FRAME_OVERHEAD;
            if len > self.max_payload {
                drop(frame.take()); // an oversized request's buffer is not kept
                let max = self.max_payload;
                Err(NetError::TooLarge { len, max })
            } else {
                sock.write_all(frame.bytes())
                    .map_err(|e| NetError::Io(e.to_string()))
            }
        };
        if let Err(e) = sent {
            self.mux.cancel(ticket);
            return Err(e);
        }
        Ok(ticket)
    }

    /// Send without waiting; the fallback thread reads the reply unless
    /// a caller gets to it first.
    fn submit(self: &Arc<Self>, req: &Request) -> Result<Pending> {
        let ticket = self.send(req, true)?;
        self.mux.sent(|| {
            let core = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name("pario-net-client-recv".to_string())
                .spawn(move || core.mux.run_fallback())
                .map_err(|e| NetError::Io(format!("spawn reader: {e}")))?;
            *self.fallback.lock() = Some(spawned);
            Ok(())
        })?;
        Ok(Pending {
            ticket,
            core: Arc::clone(self),
        })
    }

    /// Send, then read the socket on this thread until the reply.
    fn call(&self, req: &Request) -> Result<Vec<u8>> {
        self.mux.wait(self.send(req, false)?)
    }
}

/// `s` past the handshake, with what the server's welcome said.
fn shaken(mut s: Sock) -> Result<(Sock, Welcome)> {
    let welcome = client_handshake(&mut s)?;
    Ok((s, welcome))
}

/// A connection to a [`NetServer`](crate::NetServer), exposing the
/// session surface remotely. Open handles borrow the client's
/// connection; the client itself is cheap to share behind an `Arc`.
pub struct NetClient {
    core: Arc<ClientCore>,
    grant: Grant,
    ctl: Sock,
}

impl NetClient {
    /// Connect over TCP (e.g. `"127.0.0.1:9630"`). If the connection
    /// never left this host — both of its ends have one IP address —
    /// and the server's welcome names a lane, the client moves onto
    /// that Unix-domain socket and closes the TCP connection; if the
    /// lane cannot be reached (another network namespace, say) it stays
    /// where it is. [`transport`](NetClient::transport) tells which.
    pub fn connect_tcp(addr: &str) -> Result<NetClient> {
        let (tcp, welcome) = shaken(sock::connect_tcp(addr)?)?;
        if tcp.same_host() && !welcome.lane.is_empty() {
            if let Ok((lane, w)) = sock::connect_lane(&welcome.lane).and_then(shaken) {
                return NetClient::over(lane, w.grant);
            }
        }
        NetClient::over(tcp, welcome.grant)
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_unix(path: &std::path::Path) -> Result<NetClient> {
        let (s, welcome) = shaken(sock::connect_unix(path)?)?;
        NetClient::over(s, welcome.grant)
    }

    /// A client over `s`, which has shaken hands and been granted `grant`.
    fn over(s: Sock, grant: Grant) -> Result<NetClient> {
        let recv = RecvHalf {
            sock: BufReader::with_capacity(64 * 1024, s.try_clone()?),
            max_frame: grant.max_payload as usize + FRAME_OVERHEAD + 64,
        };
        let ctl = s.try_clone()?;
        let core = Arc::new(ClientCore {
            mux: Arc::new(ReplyMux::new(grant.credits, recv)),
            wire: Mutex::new_named(
                WireHalf {
                    sock: s,
                    frame: WireWriter::new(),
                },
                LockLevel::NetSend,
            ),
            max_payload: grant.max_payload as usize,
            fallback: Mutex::new(None),
        });
        Ok(NetClient { core, grant, ctl })
    }

    /// The transport this connection ended up on.
    pub fn transport(&self) -> Transport {
        self.ctl.transport()
    }

    /// The flow-control grant the server issued at handshake.
    pub fn grant(&self) -> Grant {
        self.grant
    }

    /// Credits not held by a request in flight (diagnostic); equals
    /// `grant().credits` on a quiet connection.
    pub fn credits_available(&self) -> u32 {
        self.core.mux.credits_available()
    }

    /// Round-trip liveness probe.
    pub fn ping(&self) -> Result<()> {
        self.core.call(&Request::Ping).map(|_| ())
    }

    /// The server's statistics snapshot, latency percentiles included.
    pub fn stats(&self) -> Result<StatsSummary> {
        let body = self.core.call(&Request::Stats)?;
        Ok(StatsSummary::decode(&body)?)
    }

    /// Open `name` as `view`: the remote side of `Session::open`. A
    /// type-S file is held exclusively and a partition or interleave
    /// slot is claimed (`ServerError::Exclusive` / `Claimed` while
    /// another session holds it) until the handle drops; an SS cursor
    /// is shared with every client and in-process session of the file.
    pub fn open(&self, name: &str, view: View) -> Result<RemoteHandle> {
        let name = name.into();
        let body = self.core.call(&Request::Open { name, view })?;
        let opened = Opened::decode(&body)?;
        Ok(RemoteHandle {
            core: Arc::clone(&self.core),
            view,
            opened,
        })
    }

    /// Open a GDA file for direct access with byte-range locking.
    pub fn open_direct(&self, name: &str) -> Result<RemoteDirect> {
        let h = self.open(name, View::Direct)?;
        Ok(RemoteDirect { h })
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Every request in flight fails, whoever is in `recv` sees EOF,
        // and handles that outlive the client find the connection dead.
        self.core.mux.close();
        self.ctl.shutdown();
        let fallback = self.core.fallback.lock().take();
        if let Some(h) = fallback {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Remote handles
// ---------------------------------------------------------------------

/// One open view of a remote file, served by the verbs of
/// [`pario_server::Handle`]: which views serve a verb is the server's to
/// say, and a verb the view lacks is refused with a protocol error.
/// Records are named by their global index.
pub struct RemoteHandle {
    core: Arc<ClientCore>,
    view: View,
    opened: Opened,
}

impl std::fmt::Debug for RemoteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteHandle")
            .field("view", &self.view)
            .field("opened", &self.opened)
            .finish_non_exhaustive()
    }
}

impl RemoteHandle {
    fn id(&self) -> u64 {
        self.opened.handle
    }

    /// The view this handle was opened as.
    pub fn view(&self) -> View {
        self.view
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.opened.record_size as usize
    }

    /// Records per file block: a block verb moves at most this many.
    pub fn records_per_block(&self) -> usize {
        self.opened.records_per_block as usize
    }

    /// File length in records when the handle opened.
    pub fn len_records(&self) -> u64 {
        self.opened.len_records
    }

    /// The global record range `[start, end)` this handle may touch: the
    /// claimed partition's, or the whole file's at open time.
    pub fn range(&self) -> (u64, u64) {
        (self.opened.start, self.opened.end)
    }

    /// Read the view's next record into `out`: its global index, or
    /// `None` at the end.
    pub fn read_next(&self, out: &mut [u8]) -> Result<Option<u64>> {
        take_record(
            &self.core.call(&Request::ReadNext { handle: self.id() })?,
            out,
        )
    }

    /// Pipelined [`read_next`](Self::read_next): send the request
    /// without waiting. Issue several, then
    /// [`finish_read_next`](Self::finish_read_next) them in order — the
    /// round trips overlap, which is where remote SS throughput comes
    /// from.
    pub fn submit_read_next(&self) -> Result<Pending> {
        self.core.submit(&Request::ReadNext { handle: self.id() })
    }

    /// Resolve a pipelined read into `out`.
    pub fn finish_read_next(&self, p: Pending, out: &mut [u8]) -> Result<Option<u64>> {
        take_record(&p.wait()?, out)
    }

    /// Write the view's next record; its global index.
    pub fn write_next(&self, data: &[u8]) -> Result<u64> {
        let data = Bytes::copy_from_slice(data);
        take_u64(&self.core.call(&Request::WriteNext {
            handle: self.id(),
            data,
        })?)
    }

    /// Read the view's next file block into `out`, which holds one file
    /// block: its first record's index and the records read, which the
    /// reply's length gives — fewer than a block where the file ends
    /// inside it. `None` at the end.
    ///
    /// # Panics
    ///
    /// If `out` is not one file block — checked before sending, since
    /// an SS claim the reply cannot land in would be lost to every
    /// reader.
    pub fn read_next_block(&self, out: &mut [u8]) -> Result<Option<(u64, usize)>> {
        let (rs, block) = (self.record_size(), self.records_per_block());
        assert_eq!(out.len(), rs * block, "block buffer size");
        let body = self
            .core
            .call(&Request::ReadNextBlock { handle: self.id() })?;
        let Some((first, recs)) = take_read(&body)? else {
            return Ok(None);
        };
        if recs.is_empty() || recs.len() % rs != 0 || recs.len() > out.len() {
            return Err(NetError::Protocol(format!(
                "block reply carries {} bytes, not 1 to {block} whole {rs}-byte records",
                recs.len()
            )));
        }
        out[..recs.len()].copy_from_slice(recs);
        Ok(Some((first, recs.len() / rs)))
    }

    /// Write the view's next whole file block; its first record's index.
    pub fn write_next_block(&self, data: &[u8]) -> Result<u64> {
        let data = Bytes::copy_from_slice(data);
        let handle = self.id();
        take_u64(&self.core.call(&Request::WriteNextBlock { handle, data })?)
    }

    /// Publish the length written (S, SS); the file's length in records.
    pub fn finish(&self) -> Result<u64> {
        take_u64(&self.core.call(&Request::Finish { handle: self.id() })?)
    }

    /// Rewind the read cursor (S, PS/PDA).
    pub fn rewind(&self) -> Result<()> {
        self.core.call(&Request::Rewind { handle: self.id() })?;
        Ok(())
    }

    /// Records claimed so far across every session of an SS file.
    pub fn claimed(&self) -> Result<u64> {
        take_u64(&self.core.call(&Request::Claimed { handle: self.id() })?)
    }

    /// Read global record `record` (GDA, and PS/PDA inside the claimed
    /// partition).
    pub fn read_record(&self, record: u64, out: &mut [u8]) -> Result<()> {
        let handle = self.id();
        copy_record(&self.core.call(&Request::DirRead { handle, record })?, out)
    }

    /// Write global record `record` (GDA, and PS/PDA inside the claimed
    /// partition).
    pub fn write_record(&self, record: u64, data: &[u8]) -> Result<()> {
        let data = Bytes::copy_from_slice(data);
        let handle = self.id();
        self.core.call(&Request::DirWrite {
            handle,
            record,
            data,
        })?;
        Ok(())
    }
}

impl Drop for RemoteHandle {
    fn drop(&mut self) {
        // Fire-and-forget close; the fallback reader consumes the reply.
        // On a dead connection the server-side drop already happened.
        let _ = self.core.submit(&Request::Close { handle: self.id() });
    }
}

/// Decode a `u8` flag, then, when 1, a `u64` first record and the
/// records' bytes.
fn take_read(body: &[u8]) -> Result<Option<(u64, &[u8])>> {
    let mut r = WireReader::new(body);
    match r.u8()? {
        0 => {
            r.finish()?;
            Ok(None)
        }
        1 => {
            let first = r.u64()?;
            Ok(Some((first, r.rest())))
        }
        other => Err(NetError::Protocol(format!("bad reply flag {other}"))),
    }
}

/// Decode a record read's reply into `out`: the record's index, or
/// `None` at the end.
fn take_record(body: &[u8], out: &mut [u8]) -> Result<Option<u64>> {
    let Some((r, rec)) = take_read(body)? else {
        return Ok(None);
    };
    copy_record(rec, out)?;
    Ok(Some(r))
}

fn copy_record(rec: &[u8], out: &mut [u8]) -> Result<()> {
    if rec.len() != out.len() {
        return Err(NetError::Protocol(format!(
            "reply carries {} record bytes, caller expected {}",
            rec.len(),
            out.len()
        )));
    }
    out.copy_from_slice(rec);
    Ok(())
}

fn take_u64(body: &[u8]) -> Result<u64> {
    let mut r = WireReader::new(body);
    let v = r.u64()?;
    r.finish()?;
    Ok(v)
}

/// A held remote byte-range lock (see [`RemoteDirect::lock_range`]).
/// Release it with [`RemoteDirect::unlock`] — that flushes the span on
/// the server before the release (durable-at-unlock). If it is simply
/// dropped, the server releases the range without the flush when the
/// handle or connection closes, same as dropping an in-process
/// `LockedRange`.
#[must_use = "locks must be released with RemoteDirect::unlock"]
#[derive(Debug)]
pub struct RemoteLock {
    id: u64,
}

/// Direct (GDA) access to a remote file: any record, any order, with
/// explicit byte-range locks for cross-record atomicity.
#[derive(Debug)]
pub struct RemoteDirect {
    h: RemoteHandle,
}

impl RemoteDirect {
    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.h.record_size()
    }

    /// Current file length in records (a server round trip).
    pub fn len_records(&self) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::DirLen {
            handle: self.h.id(),
        })?)
    }

    /// Read record `r`.
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        self.h.read_record(r, out)
    }

    /// Write record `r` (takes the record's byte-range lock server-side
    /// for the duration of the write).
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        self.h.write_record(r, data)
    }

    /// Pipelined write: send without waiting.
    pub fn submit_write(&self, r: u64, data: Bytes) -> Result<Pending> {
        self.h.core.submit(&Request::DirWrite {
            handle: self.h.id(),
            record: r,
            data,
        })
    }

    /// Lock records `[r_lo, r_hi)` exclusively across every client of
    /// the file, local or remote. Writes under the lock go through
    /// [`write_record_locked`](Self::write_record_locked); release with
    /// [`unlock`](Self::unlock).
    pub fn lock_range(&self, r_lo: u64, r_hi: u64) -> Result<RemoteLock> {
        let handle = self.h.id();
        let body = self.h.core.call(&Request::DirLock { handle, r_lo, r_hi })?;
        Ok(RemoteLock {
            id: take_u64(&body)?,
        })
    }

    /// Write record `r` under a held lock; refused with
    /// `ServerError::RangeNotLocked` if `r` lies outside it.
    pub fn write_record_locked(&self, lock: &RemoteLock, r: u64, data: &[u8]) -> Result<()> {
        self.h.core.call(&Request::DirWriteLocked {
            handle: self.h.id(),
            lock: lock.id,
            record: r,
            data: Bytes::copy_from_slice(data),
        })?;
        Ok(())
    }

    /// Flush the locked span to the devices, then release the lock: a
    /// reader that observes the release observes the data (the paper's
    /// durable-at-unlock contract for GDA files).
    pub fn unlock(&self, lock: RemoteLock) -> Result<()> {
        let handle = self.h.id();
        self.h.core.call(&Request::DirUnlock {
            handle,
            lock: lock.id,
        })?;
        Ok(())
    }

    /// Locked read-modify-write of record `r`: lock, read, apply `f`
    /// locally, write back, flush, unlock.
    pub fn update(&self, r: u64, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let lock = self.lock_range(r, r + 1)?;
        let mut rec = vec![0u8; self.record_size()];
        match self.read_record(r, &mut rec).and_then(|()| {
            f(&mut rec);
            self.write_record_locked(&lock, r, &rec)
        }) {
            Ok(()) => self.unlock(lock),
            Err(e) => {
                // Best-effort release; the read-modify-write error wins.
                let _ = self.unlock(lock);
                Err(e)
            }
        }
    }
}
