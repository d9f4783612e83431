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
//! Three locks, ranked in DESIGN.md §8 and acquired strictly in this
//! order (rank ascends), never nested:
//!
//! * `credits` (net.credits, 3) — the flow-control window granted at
//!   handshake; `submit` blocks here when the window is exhausted.
//! * `replies` (net.replies, 5) — the pending-request table, request
//!   id → reply slot, and the receive half while nobody reads.
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
use crate::proto::{Opened, Request, StatsSummary};
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
    mux: ReplyMux<RecvHalf>,
    wire: Mutex<WireHalf>,
    max_payload: usize,
    /// The fallback reader, started by the first pipelined request: a
    /// client that only makes blocking calls has no thread of its own.
    fallback: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One request in flight. Dropping it abandons the reply (whoever reads
/// the socket still consumes and discards it); [`Pending::wait`] blocks
/// for it.
#[must_use = "a pending request resolves only through wait()"]
pub struct Pending {
    core: Arc<ClientCore>,
    ticket: Ticket,
}

impl Pending {
    /// Block until the reply arrives; returns the raw OK body, or the
    /// decoded error.
    pub fn wait(self) -> Result<Vec<u8>> {
        self.core.mux.wait(self.ticket)
    }
}

impl ClientCore {
    /// Take a credit, register a reply slot, and send the frame. A
    /// `pipelined` request is one the caller does not wait for at once.
    /// A request whose payload is over the server's limit is refused
    /// here, encoded but never sent.
    fn send(&self, req: &Request, pipelined: bool) -> Result<Ticket> {
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
            self.mux.cancel(id);
            return Err(e);
        }
        Ok(ticket)
    }

    /// Send without waiting; the fallback thread reads the reply unless
    /// a caller gets to it first.
    fn submit(self: &Arc<Self>, req: &Request) -> Result<Pending> {
        let ticket = self.send(req, true)?;
        {
            let mut fallback = self.fallback.lock();
            if fallback.is_none() {
                let core = Arc::clone(self);
                let spawned = std::thread::Builder::new()
                    .name("pario-net-client-recv".to_string())
                    .spawn(move || core.mux.run_fallback());
                *fallback = Some(spawned.map_err(|e| NetError::Io(format!("spawn reader: {e}")))?);
            }
        }
        self.mux.sent();
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
            mux: ReplyMux::new(grant.credits, recv),
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

    fn open(&self, req: Request) -> Result<(Arc<ClientCore>, Opened)> {
        let body = self.core.call(&req)?;
        Ok((Arc::clone(&self.core), Opened::decode(&body)?))
    }

    /// Open a type-S file exclusively (see `Session::open_sequential`).
    pub fn open_sequential(&self, name: &str) -> Result<RemoteSeq> {
        let (core, opened) = self.open(Request::OpenSeq { name: name.into() })?;
        Ok(RemoteSeq {
            h: RemoteHandle { core, opened },
        })
    }

    /// Open an SS file; the record cursor is shared server-wide, so
    /// records are delivered exactly once across every client and
    /// in-process session (see `Session::open_self_sched`).
    pub fn open_self_sched(&self, name: &str) -> Result<RemoteSs> {
        let (core, opened) = self.open(Request::OpenSs { name: name.into() })?;
        Ok(RemoteSs {
            h: RemoteHandle { core, opened },
        })
    }

    /// Claim partition `p` of a PS/PDA file; refused with
    /// `ServerError::Claimed` while any other client holds it.
    pub fn open_partition(&self, name: &str, p: u32) -> Result<RemotePartition> {
        let (core, opened) = self.open(Request::OpenPartition {
            name: name.into(),
            partition: p,
        })?;
        Ok(RemotePartition {
            h: RemoteHandle { core, opened },
            partition: p,
        })
    }

    /// Claim interleave slot `p` of an IS file.
    pub fn open_interleaved(&self, name: &str, p: u32) -> Result<RemoteInterleaved> {
        let (core, opened) = self.open(Request::OpenInterleaved {
            name: name.into(),
            process: p,
        })?;
        Ok(RemoteInterleaved {
            h: RemoteHandle { core, opened },
        })
    }

    /// Open a GDA file for direct access with byte-range locking.
    pub fn open_direct(&self, name: &str) -> Result<RemoteDirect> {
        let (core, opened) = self.open(Request::OpenDirect { name: name.into() })?;
        Ok(RemoteDirect {
            h: RemoteHandle { core, opened },
        })
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

struct RemoteHandle {
    core: Arc<ClientCore>,
    opened: Opened,
}

impl std::fmt::Debug for RemoteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteHandle")
            .field("opened", &self.opened)
            .finish_non_exhaustive()
    }
}

impl RemoteHandle {
    fn id(&self) -> u64 {
        self.opened.handle
    }
}

impl Drop for RemoteHandle {
    fn drop(&mut self) {
        // Fire-and-forget close; the fallback reader consumes the reply.
        // On a dead connection the server-side drop already happened.
        let _ = self.core.submit(&Request::Close { handle: self.id() });
    }
}

/// Decode a `u8` flag + record body into `out`.
fn take_flagged(body: &[u8], out: &mut [u8]) -> Result<bool> {
    let mut r = WireReader::new(body);
    match r.u8()? {
        0 => {
            r.finish()?;
            Ok(false)
        }
        1 => {
            copy_record(r.rest(), out)?;
            Ok(true)
        }
        other => Err(NetError::Protocol(format!("bad reply flag {other}"))),
    }
}

/// Decode a `u8` flag + `u64` index + record body into `out`.
fn take_indexed(body: &[u8], out: &mut [u8]) -> Result<Option<u64>> {
    let mut r = WireReader::new(body);
    match r.u8()? {
        0 => {
            r.finish()?;
            Ok(None)
        }
        1 => {
            let idx = r.u64()?;
            copy_record(r.rest(), out)?;
            Ok(Some(idx))
        }
        other => Err(NetError::Protocol(format!("bad reply flag {other}"))),
    }
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

/// Exclusive sequential access to a remote type-S file.
#[derive(Debug)]
pub struct RemoteSeq {
    h: RemoteHandle,
}

impl RemoteSeq {
    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.h.opened.record_size as usize
    }

    /// File length in records at open time.
    pub fn len_records(&self) -> u64 {
        self.h.opened.len_records
    }

    /// Read the next record; `false` at end of file.
    pub fn read_next(&self, out: &mut [u8]) -> Result<bool> {
        let body = self.h.core.call(&Request::SeqRead {
            handle: self.h.id(),
        })?;
        take_flagged(&body, out)
    }

    /// Append the next record.
    pub fn write_next(&self, data: &[u8]) -> Result<()> {
        self.h
            .core
            .call(&Request::SeqWrite {
                handle: self.h.id(),
                data: Bytes::copy_from_slice(data),
            })
            .map(|_| ())
    }

    /// Flush buffered appends and publish the length.
    pub fn finish(&self) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::SeqFinish {
            handle: self.h.id(),
        })?)
    }

    /// Rewind the read cursor.
    pub fn rewind(&self) -> Result<()> {
        self.h
            .core
            .call(&Request::SeqRewind {
                handle: self.h.id(),
            })
            .map(|_| ())
    }
}

/// A claimed read from a remote SS cursor (see [`RemoteSs::submit_read_next`]).
pub struct SsReadTicket {
    pending: Pending,
}

/// A self-scheduled client over the wire: reads claim the globally next
/// record across all sessions — local or remote — of the file.
#[derive(Debug)]
pub struct RemoteSs {
    h: RemoteHandle,
}

impl RemoteSs {
    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.h.opened.record_size as usize
    }

    /// File length in records at open time.
    pub fn len_records(&self) -> u64 {
        self.h.opened.len_records
    }

    /// Claim and read the next unclaimed record; the index served, or
    /// `None` once the file is drained.
    pub fn read_next(&self, out: &mut [u8]) -> Result<Option<u64>> {
        let body = self.h.core.call(&Request::SsRead {
            handle: self.h.id(),
        })?;
        take_indexed(&body, out)
    }

    /// Pipelined read: send the claim without waiting. Issue several,
    /// then [`finish_read_next`](RemoteSs::finish_read_next) them in
    /// order — the round trips overlap, which is where remote SS
    /// throughput comes from.
    pub fn submit_read_next(&self) -> Result<SsReadTicket> {
        Ok(SsReadTicket {
            pending: self.h.core.submit(&Request::SsRead {
                handle: self.h.id(),
            })?,
        })
    }

    /// Resolve a pipelined read into `out`.
    pub fn finish_read_next(&self, t: SsReadTicket, out: &mut [u8]) -> Result<Option<u64>> {
        let body = t.pending.wait()?;
        take_indexed(&body, out)
    }

    /// Claim the next free slot and write `data` there; the slot index.
    pub fn write_next(&self, data: &[u8]) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::SsWrite {
            handle: self.h.id(),
            data: Bytes::copy_from_slice(data),
        })?)
    }

    /// Publish the final length once all writers are done.
    pub fn finish_writes(&self) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::SsFinish {
            handle: self.h.id(),
        })?)
    }

    /// Records claimed so far across all sessions of the file.
    pub fn claimed(&self) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::SsClaimed {
            handle: self.h.id(),
        })?)
    }
}

/// A claimed partition of a remote PS/PDA file; addresses records by
/// their global index, refused outside the claimed range.
#[derive(Debug)]
pub struct RemotePartition {
    h: RemoteHandle,
    partition: u32,
}

impl RemotePartition {
    /// The claimed partition index.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// The global record range `[start, end)` this client may touch.
    pub fn range(&self) -> (u64, u64) {
        (self.h.opened.start, self.h.opened.end)
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.h.opened.record_size as usize
    }

    /// Read global record `r` (must lie inside the partition).
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        let body = self.h.core.call(&Request::PartRead {
            handle: self.h.id(),
            record: r,
        })?;
        copy_record(&body, out)
    }

    /// Write global record `r` (must lie inside the partition).
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        self.h
            .core
            .call(&Request::PartWrite {
                handle: self.h.id(),
                record: r,
                data: Bytes::copy_from_slice(data),
            })
            .map(|_| ())
    }

    /// Read the next record of the partition; `false` at its end.
    pub fn read_next(&self, out: &mut [u8]) -> Result<bool> {
        let body = self.h.core.call(&Request::PartReadNext {
            handle: self.h.id(),
        })?;
        take_flagged(&body, out)
    }

    /// Append at the partition cursor.
    pub fn write_next(&self, data: &[u8]) -> Result<()> {
        self.h
            .core
            .call(&Request::PartWriteNext {
                handle: self.h.id(),
                data: Bytes::copy_from_slice(data),
            })
            .map(|_| ())
    }

    /// Rewind the partition cursor.
    pub fn rewind(&self) -> Result<()> {
        self.h
            .core
            .call(&Request::PartRewind {
                handle: self.h.id(),
            })
            .map(|_| ())
    }
}

/// A claimed interleave slot of a remote IS file.
#[derive(Debug)]
pub struct RemoteInterleaved {
    h: RemoteHandle,
}

impl RemoteInterleaved {
    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.h.opened.record_size as usize
    }

    /// Bytes in one file block (for [`read_next_block`](Self::read_next_block)).
    pub fn block_bytes(&self) -> usize {
        (self.h.opened.record_size * self.h.opened.records_per_block) as usize
    }

    /// Read this slot's next record; `false` when the stride passes the
    /// end of the file.
    pub fn read_next(&self, out: &mut [u8]) -> Result<bool> {
        let body = self.h.core.call(&Request::IlvReadNext {
            handle: self.h.id(),
        })?;
        take_flagged(&body, out)
    }

    /// Write this slot's next record; the global record index written.
    pub fn write_next(&self, data: &[u8]) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::IlvWriteNext {
            handle: self.h.id(),
            data: Bytes::copy_from_slice(data),
        })?)
    }

    /// Read this slot's next whole block into `out` (one block); the
    /// block index, or `None` past the end.
    pub fn read_next_block(&self, out: &mut [u8]) -> Result<Option<u64>> {
        let body = self.h.core.call(&Request::IlvReadBlock {
            handle: self.h.id(),
        })?;
        take_indexed(&body, out)
    }

    /// Write this slot's next whole block; the block index written.
    pub fn write_next_block(&self, data: &[u8]) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::IlvWriteBlock {
            handle: self.h.id(),
            data: Bytes::copy_from_slice(data),
        })?)
    }
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
        self.h.opened.record_size as usize
    }

    /// Current file length in records (a server round trip).
    pub fn len_records(&self) -> Result<u64> {
        take_u64(&self.h.core.call(&Request::DirLen {
            handle: self.h.id(),
        })?)
    }

    /// Read record `r`.
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        let body = self.h.core.call(&Request::DirRead {
            handle: self.h.id(),
            record: r,
        })?;
        copy_record(&body, out)
    }

    /// Write record `r` (takes the record's byte-range lock server-side
    /// for the duration of the write).
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        self.h
            .core
            .call(&Request::DirWrite {
                handle: self.h.id(),
                record: r,
                data: Bytes::copy_from_slice(data),
            })
            .map(|_| ())
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
        let body = self.h.core.call(&Request::DirLock {
            handle: self.h.id(),
            r_lo,
            r_hi,
        })?;
        Ok(RemoteLock {
            id: take_u64(&body)?,
        })
    }

    /// Write record `r` under a held lock; refused with
    /// `ServerError::RangeNotLocked` if `r` lies outside it.
    pub fn write_record_locked(&self, lock: &RemoteLock, r: u64, data: &[u8]) -> Result<()> {
        self.h
            .core
            .call(&Request::DirWriteLocked {
                handle: self.h.id(),
                lock: lock.id,
                record: r,
                data: Bytes::copy_from_slice(data),
            })
            .map(|_| ())
    }

    /// Flush the locked span to the devices, then release the lock: a
    /// reader that observes the release observes the data (the paper's
    /// durable-at-unlock contract for GDA files).
    pub fn unlock(&self, lock: RemoteLock) -> Result<()> {
        self.h
            .core
            .call(&Request::DirUnlock {
                handle: self.h.id(),
                lock: lock.id,
            })
            .map(|_| ())
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
