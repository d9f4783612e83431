//! The protocol layer: the handshake constants, the typed request set,
//! the fixed response bodies, and a lossless wire encoding of the whole
//! error taxonomy — a [`ServerError`] decoded on the client compares
//! equal to the one the server produced.
//!
//! Requests name an operation, not a file organization. The paper's
//! organizations are views a process takes on one file, each offering
//! the same few operations — read or write the next record, read or
//! write record *r* — so the view is fixed once, when a handle opens
//! ([`Request::Open`] names it), and one set of verbs serves every
//! handle. What a verb does, and whether the handle's view offers it at
//! all, the server decides from the handle.

use bytes::Bytes;
use pario_core::{intern_expected, CoreError, Organization};
use pario_disk::DiskError;
use pario_fs::{FsError, HealthState};
pub use pario_server::View;
use pario_server::{LatencyBucket, ServerError, ServerStats, LATENCY_BUCKETS};

use crate::error::NetError;
use crate::wire::{WireError, WireReader, WireResult, WireWriter};

/// First bytes of every connection, both directions.
pub const MAGIC: [u8; 4] = *b"PIO1";

/// Protocol version spoken by this build. The handshake carries it both
/// ways; a mismatch fails the connection with [`NetError::Handshake`]
/// instead of misparsing frames. Version 2 added the typed shutdown
/// error class (`ERR_CLASS_SHUTDOWN`) for graceful drain — a v1 peer
/// would decode that reply as malformed and tear the connection, so the
/// incompatibility is surfaced at the handshake instead. Version 3
/// retired opcode 0x12 (the big-lock SS open), which a v2 client may
/// still send. Version 4 lengthened the welcome by the server's lane
/// name (`frame::Welcome`): a v3 client would read its first frame
/// from the middle of that name. Version 5 replaced the requests of
/// each organization with one [`Request::Open`] and one set of verbs,
/// and retired 0x10–0x15, 0x20–0x23, 0x28–0x2C, 0x30–0x34 and
/// 0x38–0x3B: a v4 client's opens would be refused as unknown opcodes.
/// Version 6 gave each verb one reply shape on every view: a next-record
/// or next-block reply always names its first record, and a block is
/// named by its first record instead of its file-block index. A v5
/// client would read a partition's record index as record bytes.
/// Version 7 retired server-error tag 3 (a partition's own refusal): a
/// record outside a partition is refused with the view's
/// `CoreError::OutsideView`, which a v6 client would not expect there.
/// Version 8 made the [`Request::Stats`] reply the whole
/// [`ServerStats`] (`encode_server_stats`): a v7 client would misread
/// it as the old summary's four counters and three quantiles.
pub const VERSION: u16 = 8;

/// Reply status byte: the request succeeded; the body is the
/// operation's result.
pub const STATUS_OK: u8 = 0;

/// Reply status byte: the request failed; the body encodes the error.
pub const STATUS_ERR: u8 = 1;

// Error-body class tags under STATUS_ERR.
const ERR_CLASS_SERVER: u8 = 0;
const ERR_CLASS_PROTOCOL: u8 = 1;
const ERR_CLASS_SHUTDOWN: u8 = 2;

/// One request on the wire. Bulk write payloads are [`Bytes`], so a
/// benchmark replaying one record body across thousands of requests
/// clones a reference, not the buffer. Every verb after `Open` names a
/// handle, and serves the views its doc lists; on any other handle it
/// is refused with a protocol error, and the connection serves on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; empty OK reply.
    Ping,
    /// Server statistics snapshot; [`ServerStats`] reply
    /// ([`encode_server_stats`]).
    Stats,
    /// Open `name` as `view` (`Session::open`); [`Opened`] reply, with
    /// the claimed record range for a partition.
    Open {
        /// File name.
        name: String,
        /// The view the handle takes, fixed for its life.
        view: View,
    },
    /// Drop the server-side client behind `handle`, releasing any
    /// exclusive hold, partition/slot claim, or range locks it owns.
    Close {
        /// Handle to close.
        handle: u64,
    },
    /// Read the next record: S, SS, PS/PDA and IS. Reply: `u8` flag
    /// (0 = end); when 1, the `u64` record index, then the record bytes.
    ReadNext {
        /// Open handle.
        handle: u64,
    },
    /// Write the next record: S, SS, PS/PDA and IS. Reply: the `u64`
    /// record index written.
    WriteNext {
        /// Open handle.
        handle: u64,
        /// One record.
        data: Bytes,
    },
    /// Read the next file block: IS and SS. Reply: `u8` flag (0 = end);
    /// when 1, the `u64` index of the block's first record, then the
    /// records' bytes — on SS to the end of the file block the shared
    /// cursor was in, on either fewer than a block where the file ends
    /// inside it. The body's length gives the count.
    ReadNextBlock {
        /// Open handle.
        handle: u64,
    },
    /// Write the slot's next whole block: IS. Reply: the `u64` index of
    /// its first record.
    WriteNextBlock {
        /// Open handle.
        handle: u64,
        /// One file block.
        data: Bytes,
    },
    /// Publish the length written: S and SS. Reply: `u64` length.
    Finish {
        /// Open handle.
        handle: u64,
    },
    /// Rewind the read cursor: S and PS/PDA. Empty reply.
    Rewind {
        /// Open handle.
        handle: u64,
    },
    /// Records claimed so far across every session of the file: SS.
    /// Reply: `u64`.
    Claimed {
        /// Open handle.
        handle: u64,
    },
    /// Read record `record`: GDA, and PS/PDA inside the claimed
    /// partition. Reply: the record bytes.
    DirRead {
        /// Open handle.
        handle: u64,
        /// Record index.
        record: u64,
    },
    /// Write record `record`: GDA (under the record's range lock), and
    /// PS/PDA inside the claimed partition. Empty reply.
    DirWrite {
        /// Open handle.
        handle: u64,
        /// Record index.
        record: u64,
        /// One record.
        data: Bytes,
    },
    /// `DirectClient::lock_range`: GDA. Reply: `u64` lock id.
    DirLock {
        /// Open handle.
        handle: u64,
        /// First record of the range.
        r_lo: u64,
        /// One past the last record.
        r_hi: u64,
    },
    /// `DirectClient::unlock` — flushes the span (durable-at-unlock)
    /// then releases: GDA. Empty reply.
    DirUnlock {
        /// Open handle.
        handle: u64,
        /// Lock id from [`Request::DirLock`].
        lock: u64,
    },
    /// `DirectClient::write_record_locked`: GDA. Empty reply.
    DirWriteLocked {
        /// Open handle.
        handle: u64,
        /// Lock id from [`Request::DirLock`].
        lock: u64,
        /// Record index.
        record: u64,
        /// One record.
        data: Bytes,
    },
    /// `DirectClient::len_records`: GDA. Reply: `u64`.
    DirLen {
        /// Open handle.
        handle: u64,
    },
}

impl Request {
    /// The request's opcode byte. Bytes a retired request used (0x10–0x15,
    /// 0x20–0x23, 0x28–0x2C, 0x30–0x34, 0x38–0x3B) are reserved: they
    /// decode as unknown and are never reassigned.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => 0x01,
            Request::Stats => 0x02,
            Request::Close { .. } => 0x16,
            Request::Open { .. } => 0x17,
            Request::DirRead { .. } => 0x40,
            Request::DirWrite { .. } => 0x41,
            Request::DirLock { .. } => 0x42,
            Request::DirUnlock { .. } => 0x43,
            Request::DirWriteLocked { .. } => 0x44,
            Request::DirLen { .. } => 0x45,
            Request::ReadNext { .. } => 0x50,
            Request::WriteNext { .. } => 0x51,
            Request::ReadNextBlock { .. } => 0x52,
            Request::WriteNextBlock { .. } => 0x53,
            Request::Finish { .. } => 0x54,
            Request::Rewind { .. } => 0x55,
            Request::Claimed { .. } => 0x56,
        }
    }

    /// Every opcode this build understands, for exhaustive tests.
    pub const ALL_OPCODES: &'static [u8] = &[
        0x01, 0x02, 0x16, 0x17, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x50, 0x51, 0x52, 0x53, 0x54,
        0x55, 0x56,
    ];

    /// The handle the request names: every request but `Ping`, `Stats`
    /// and `Open`.
    pub fn handle(&self) -> Option<u64> {
        match *self {
            Request::Ping | Request::Stats | Request::Open { .. } => None,
            Request::Close { handle }
            | Request::ReadNext { handle }
            | Request::WriteNext { handle, .. }
            | Request::ReadNextBlock { handle }
            | Request::WriteNextBlock { handle, .. }
            | Request::Finish { handle }
            | Request::Rewind { handle }
            | Request::Claimed { handle }
            | Request::DirRead { handle, .. }
            | Request::DirWrite { handle, .. }
            | Request::DirLock { handle, .. }
            | Request::DirUnlock { handle, .. }
            | Request::DirWriteLocked { handle, .. }
            | Request::DirLen { handle } => Some(handle),
        }
    }

    /// Encode the payload (everything after the opcode byte): the
    /// handle first where there is one. Bulk data is always the
    /// trailing field, unprefixed, so the receiver can slice it without
    /// another length.
    pub fn encode_payload(&self, w: &mut WireWriter) {
        if let Some(handle) = self.handle() {
            w.u64(handle);
        }
        match self {
            Request::Open { name, view } => {
                w.str_prefixed(name);
                encode_view(w, *view);
            }
            Request::WriteNext { data, .. } | Request::WriteNextBlock { data, .. } => {
                w.raw(data);
            }
            Request::DirRead { record, .. } => {
                w.u64(*record);
            }
            Request::DirWrite { record, data, .. } => {
                w.u64(*record).raw(data);
            }
            Request::DirLock { r_lo, r_hi, .. } => {
                w.u64(*r_lo).u64(*r_hi);
            }
            Request::DirUnlock { lock, .. } => {
                w.u64(*lock);
            }
            Request::DirWriteLocked {
                lock, record, data, ..
            } => {
                w.u64(*lock).u64(*record).raw(data);
            }
            _ => {}
        }
    }

    /// Decode a request from its opcode and payload bytes. Unknown
    /// opcodes and malformed payloads are [`WireError`]s — the
    /// connection layer treats them as fatal for that connection.
    pub fn decode(opcode: u8, payload: &[u8]) -> WireResult<Request> {
        let mut r = WireReader::new(payload);
        let req = match opcode {
            0x01 => Request::Ping,
            0x02 => Request::Stats,
            0x16 => Request::Close { handle: r.u64()? },
            0x17 => Request::Open {
                name: r.str_prefixed()?,
                view: decode_view(&mut r)?,
            },
            0x40 => Request::DirRead {
                handle: r.u64()?,
                record: r.u64()?,
            },
            0x41 => Request::DirWrite {
                handle: r.u64()?,
                record: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x42 => Request::DirLock {
                handle: r.u64()?,
                r_lo: r.u64()?,
                r_hi: r.u64()?,
            },
            0x43 => Request::DirUnlock {
                handle: r.u64()?,
                lock: r.u64()?,
            },
            0x44 => Request::DirWriteLocked {
                handle: r.u64()?,
                lock: r.u64()?,
                record: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x45 => Request::DirLen { handle: r.u64()? },
            0x50 => Request::ReadNext { handle: r.u64()? },
            0x51 => Request::WriteNext {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x52 => Request::ReadNextBlock { handle: r.u64()? },
            0x53 => Request::WriteNextBlock {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x54 => Request::Finish { handle: r.u64()? },
            0x55 => Request::Rewind { handle: r.u64()? },
            0x56 => Request::Claimed { handle: r.u64()? },
            other => {
                return Err(WireError::Malformed(format!("unknown opcode {other:#04x}")));
            }
        };
        r.finish()?;
        Ok(req)
    }
}

fn encode_view(w: &mut WireWriter, view: View) {
    match view {
        View::Sequential => w.u8(0),
        View::SelfSched => w.u8(1),
        View::Partition(p) => w.u8(2).u32(p),
        View::Interleaved(p) => w.u8(3).u32(p),
        View::Direct => w.u8(4),
    };
}

fn decode_view(r: &mut WireReader<'_>) -> WireResult<View> {
    Ok(match r.u8()? {
        0 => View::Sequential,
        1 => View::SelfSched,
        2 => View::Partition(r.u32()?),
        3 => View::Interleaved(r.u32()?),
        4 => View::Direct,
        other => return Err(WireError::Malformed(format!("bad view tag {other}"))),
    })
}

/// The reply body of every successful open: the server-side handle and
/// the sizing the client needs before its first transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opened {
    /// Server-side handle for subsequent requests on this connection.
    pub handle: u64,
    /// Fixed record size in bytes.
    pub record_size: u32,
    /// Records per file block (block reads need
    /// `record_size * records_per_block` byte buffers).
    pub records_per_block: u32,
    /// File length in records when opened (point-in-time).
    pub len_records: u64,
    /// First record this handle may touch (partition opens; 0 otherwise).
    pub start: u64,
    /// One past the last record this handle may touch (partition opens;
    /// `len_records` otherwise).
    pub end: u64,
}

impl Opened {
    /// Encode as a reply body.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.handle)
            .u32(self.record_size)
            .u32(self.records_per_block)
            .u64(self.len_records)
            .u64(self.start)
            .u64(self.end);
    }

    /// Decode a reply body.
    pub fn decode(body: &[u8]) -> WireResult<Opened> {
        let mut r = WireReader::new(body);
        let v = Opened {
            handle: r.u64()?,
            record_size: r.u32()?,
            records_per_block: r.u32()?,
            len_records: r.u64()?,
            start: r.u64()?,
            end: r.u64()?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// Encode a [`ServerStats`] losslessly as the [`Request::Stats`] reply
/// body: the six counters as `u64`s, then a `u32` count and each
/// non-empty latency bucket's `le_nanos` and `count`.
pub fn encode_server_stats(w: &mut WireWriter, s: &ServerStats) {
    w.u64(s.sessions)
        .usize(s.in_flight)
        .usize(s.queue_depth_high_water)
        .usize(s.wait_high_water)
        .u64(s.rejected)
        .u64(s.total_admitted)
        .u32(s.latency.len() as u32);
    for b in &s.latency {
        w.u64(b.le_nanos).u64(b.count);
    }
}

/// Decode a reply body written by [`encode_server_stats`]. A body no
/// server snapshot encodes to is malformed: more than
/// [`LATENCY_BUCKETS`] buckets, an empty bucket, or buckets out of
/// order.
pub fn decode_server_stats(body: &[u8]) -> WireResult<ServerStats> {
    let mut r = WireReader::new(body);
    let mut s = ServerStats {
        sessions: r.u64()?,
        in_flight: r.usize()?,
        queue_depth_high_water: r.usize()?,
        wait_high_water: r.usize()?,
        rejected: r.u64()?,
        total_admitted: r.u64()?,
        latency: Vec::new(),
    };
    let n = r.u32()? as usize;
    if n > LATENCY_BUCKETS {
        return Err(WireError::Malformed(format!(
            "{n} latency buckets, past {LATENCY_BUCKETS}"
        )));
    }
    s.latency.reserve_exact(n);
    for _ in 0..n {
        let b = LatencyBucket {
            le_nanos: r.u64()?,
            count: r.u64()?,
        };
        if b.count == 0 || s.latency.last().is_some_and(|p| p.le_nanos >= b.le_nanos) {
            return Err(WireError::Malformed(format!(
                "latency bucket {b:?} empty or out of order"
            )));
        }
        s.latency.push(b);
    }
    r.finish()?;
    Ok(s)
}

// ---------------------------------------------------------------------
// Error taxonomy on the wire
// ---------------------------------------------------------------------

/// Encode the error body of a `STATUS_ERR` reply. Only the classes a
/// server produces are encodable losslessly: typed [`ServerError`]s,
/// the shutdown notice, and connection-survivable protocol complaints
/// (bad handle, oversized payload). Everything else a [`NetError`] can
/// hold is local to one endpoint and never crosses the wire; those
/// encode as their display string in the protocol class.
pub fn encode_reply_error(w: &mut WireWriter, e: &NetError) {
    match e {
        NetError::Server(se) => {
            w.u8(ERR_CLASS_SERVER);
            encode_server_error(w, se);
        }
        NetError::Shutdown => {
            w.u8(ERR_CLASS_SHUTDOWN);
        }
        other => {
            w.u8(ERR_CLASS_PROTOCOL);
            w.str_prefixed(&other.to_string());
        }
    }
}

/// Decode the error body of a `STATUS_ERR` reply.
pub fn decode_reply_error(body: &[u8]) -> WireResult<NetError> {
    let mut r = WireReader::new(body);
    let e = match r.u8()? {
        ERR_CLASS_SERVER => NetError::Server(decode_server_error(&mut r)?),
        ERR_CLASS_PROTOCOL => NetError::Protocol(r.str_prefixed()?),
        ERR_CLASS_SHUTDOWN => NetError::Shutdown,
        other => {
            return Err(WireError::Malformed(format!("bad error class {other}")));
        }
    };
    r.finish()?;
    Ok(e)
}

/// Encode a [`ServerError`] losslessly (tagged, exhaustive).
pub fn encode_server_error(w: &mut WireWriter, e: &ServerError) {
    match e {
        ServerError::Busy => {
            w.u8(0);
        }
        ServerError::Exclusive { name, by } => {
            w.u8(1).str_prefixed(name).u64(*by);
        }
        ServerError::Claimed { name, index, by } => {
            w.u8(2).str_prefixed(name).u32(*index).u64(*by);
        }
        ServerError::RangeNotLocked { lo, hi } => {
            w.u8(4).u64(*lo).u64(*hi);
        }
        ServerError::Degraded { device, state } => {
            w.u8(5).usize(*device).u8(state.wire_tag());
        }
        ServerError::Core(e) => {
            w.u8(6);
            encode_core_error(w, e);
        }
        ServerError::NotServed { view } => {
            w.u8(7);
            encode_view(w, *view);
        }
    }
}

/// Decode a [`ServerError`] written by [`encode_server_error`].
pub fn decode_server_error(r: &mut WireReader<'_>) -> WireResult<ServerError> {
    Ok(match r.u8()? {
        0 => ServerError::Busy,
        1 => ServerError::Exclusive {
            name: r.str_prefixed()?,
            by: r.u64()?,
        },
        2 => ServerError::Claimed {
            name: r.str_prefixed()?,
            index: r.u32()?,
            by: r.u64()?,
        },
        4 => ServerError::RangeNotLocked {
            lo: r.u64()?,
            hi: r.u64()?,
        },
        5 => ServerError::Degraded {
            device: r.usize()?,
            state: {
                let tag = r.u8()?;
                HealthState::from_wire_tag(tag)
                    .ok_or_else(|| WireError::Malformed(format!("bad health-state tag {tag}")))?
            },
        },
        6 => ServerError::Core(decode_core_error(r)?),
        7 => ServerError::NotServed {
            view: decode_view(r)?,
        },
        // 3 is reserved (a retired partition refusal, now the view's
        // `CoreError::OutsideView`) and decodes as malformed.
        other => {
            return Err(WireError::Malformed(format!(
                "bad server-error tag {other}"
            )));
        }
    })
}

fn encode_core_error(w: &mut WireWriter, e: &CoreError) {
    match e {
        CoreError::Fs(e) => {
            w.u8(0);
            encode_fs_error(w, e);
        }
        CoreError::WrongOrganization { expected, actual } => {
            w.u8(1).str_prefixed(expected).str_prefixed(&actual.tag());
        }
        CoreError::BadProcess { process, of } => {
            w.u8(2).u32(*process).u32(*of);
        }
        CoreError::BadTag(tag) => {
            w.u8(3).str_prefixed(tag);
        }
        CoreError::BadGeometry(msg) => {
            w.u8(4).str_prefixed(msg);
        }
        CoreError::OutsideView {
            record,
            start,
            end,
            piece,
            stride,
        } => {
            w.u8(5).u64(*record).u64(*start).u64(*end);
            w.u64(*piece).u64(*stride);
        }
    }
}

fn decode_core_error(r: &mut WireReader<'_>) -> WireResult<CoreError> {
    Ok(match r.u8()? {
        0 => CoreError::Fs(decode_fs_error(r)?),
        1 => {
            let expected = intern_expected(&r.str_prefixed()?);
            let tag = r.str_prefixed()?;
            let actual = Organization::from_tag(&tag)
                .ok_or_else(|| WireError::Malformed(format!("bad organization tag '{tag}'")))?;
            CoreError::WrongOrganization { expected, actual }
        }
        2 => CoreError::BadProcess {
            process: r.u32()?,
            of: r.u32()?,
        },
        3 => CoreError::BadTag(r.str_prefixed()?),
        4 => CoreError::BadGeometry(r.str_prefixed()?),
        5 => CoreError::OutsideView {
            record: r.u64()?,
            start: r.u64()?,
            end: r.u64()?,
            piece: r.u64()?,
            stride: r.u64()?,
        },
        other => {
            return Err(WireError::Malformed(format!("bad core-error tag {other}")));
        }
    })
}

fn encode_fs_error(w: &mut WireWriter, e: &FsError) {
    match e {
        FsError::Disk(e) => {
            w.u8(0);
            encode_disk_error(w, e);
        }
        FsError::NoSpace { device, requested } => {
            w.u8(1).usize(*device).u64(*requested);
        }
        FsError::NotFound(name) => {
            w.u8(2).str_prefixed(name);
        }
        FsError::AlreadyExists(name) => {
            w.u8(3).str_prefixed(name);
        }
        FsError::BadSpec(msg) => {
            w.u8(4).str_prefixed(msg);
        }
        FsError::OutOfBounds { record, len } => {
            w.u8(5).u64(*record).u64(*len);
        }
        FsError::CapacityExceeded {
            requested,
            capacity,
        } => {
            w.u8(6).u64(*requested).u64(*capacity);
        }
        FsError::Meta(msg) => {
            w.u8(7).str_prefixed(msg);
        }
        FsError::DirectoryFull { needed, limit } => {
            w.u8(8).u64(*needed).u64(*limit);
        }
    }
}

fn decode_fs_error(r: &mut WireReader<'_>) -> WireResult<FsError> {
    Ok(match r.u8()? {
        0 => FsError::Disk(decode_disk_error(r)?),
        1 => FsError::NoSpace {
            device: r.usize()?,
            requested: r.u64()?,
        },
        2 => FsError::NotFound(r.str_prefixed()?),
        3 => FsError::AlreadyExists(r.str_prefixed()?),
        4 => FsError::BadSpec(r.str_prefixed()?),
        5 => FsError::OutOfBounds {
            record: r.u64()?,
            len: r.u64()?,
        },
        6 => FsError::CapacityExceeded {
            requested: r.u64()?,
            capacity: r.u64()?,
        },
        7 => FsError::Meta(r.str_prefixed()?),
        8 => FsError::DirectoryFull {
            needed: r.u64()?,
            limit: r.u64()?,
        },
        other => {
            return Err(WireError::Malformed(format!("bad fs-error tag {other}")));
        }
    })
}

fn encode_disk_error(w: &mut WireWriter, e: &DiskError) {
    match e {
        DiskError::DeviceFailed { device } => {
            w.u8(0).str_prefixed(device);
        }
        DiskError::OutOfRange { block, capacity } => {
            w.u8(1).u64(*block).u64(*capacity);
        }
        DiskError::BadBufferSize { got, expected } => {
            w.u8(2).usize(*got).usize(*expected);
        }
        DiskError::Corruption { block } => {
            w.u8(3).u64(*block);
        }
        DiskError::Transient { device } => {
            w.u8(4).str_prefixed(device);
        }
        DiskError::Io(msg) => {
            w.u8(6).str_prefixed(msg);
        }
    }
}

fn decode_disk_error(r: &mut WireReader<'_>) -> WireResult<DiskError> {
    Ok(match r.u8()? {
        0 => DiskError::DeviceFailed {
            device: r.str_prefixed()?,
        },
        1 => DiskError::OutOfRange {
            block: r.u64()?,
            capacity: r.u64()?,
        },
        2 => DiskError::BadBufferSize {
            got: r.usize()?,
            expected: r.usize()?,
        },
        3 => DiskError::Corruption { block: r.u64()? },
        4 => DiskError::Transient {
            device: r.str_prefixed()?,
        },
        6 => DiskError::Io(r.str_prefixed()?),
        // 5 is reserved (a retired deadline error) and decodes as malformed.
        other => {
            return Err(WireError::Malformed(format!("bad disk-error tag {other}")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let mut w = WireWriter::new();
        req.encode_payload(&mut w);
        let back = Request::decode(req.opcode(), w.bytes()).expect("decode");
        assert_eq!(back, req);
    }

    #[test]
    fn request_round_trips() {
        round_trip(Request::Ping);
        for view in [
            View::Sequential,
            View::SelfSched,
            View::Partition(3),
            View::Interleaved(u32::MAX),
            View::Direct,
        ] {
            let name = "grid".into();
            round_trip(Request::Open { name, view });
        }
        round_trip(Request::WriteNext {
            handle: 9,
            data: Bytes::copy_from_slice(b"payload"),
        });
        round_trip(Request::DirWriteLocked {
            handle: 1,
            lock: 2,
            record: 3,
            data: Bytes::copy_from_slice(&[0u8; 64]),
        });
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(Request::decode(0xEE, &[]).is_err());
    }

    /// The GDA requests a benchmark replays are byte for byte what
    /// version 4 sent: opcode, handle, record, then the data.
    #[test]
    fn dir_read_and_write_keep_their_bytes() {
        let mut w = WireWriter::new();
        let data = Bytes::copy_from_slice(b"rec");
        let write = Request::DirWrite {
            handle: 7,
            record: 9,
            data,
        };
        write.encode_payload(&mut w);
        let mut want = 7u64.to_le_bytes().to_vec();
        want.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(
            (write.opcode(), w.bytes()),
            (0x41, &[&want[..], b"rec"].concat()[..])
        );
        let mut w = WireWriter::new();
        let read = Request::DirRead {
            handle: 7,
            record: 9,
        };
        read.encode_payload(&mut w);
        assert_eq!((read.opcode(), w.bytes()), (0x40, &want[..]));
    }

    #[test]
    fn a_bad_view_tag_is_malformed() {
        let mut w = WireWriter::new();
        w.str_prefixed("f").u8(5);
        assert!(Request::decode(0x17, w.bytes()).is_err());
    }

    #[test]
    fn server_error_round_trips_exactly() {
        let samples = vec![
            ServerError::Busy,
            ServerError::Claimed {
                name: "grid".into(),
                index: 2,
                by: 77,
            },
            ServerError::Degraded {
                device: 3,
                state: HealthState::Rebuilding,
            },
            ServerError::Core(CoreError::WrongOrganization {
                expected: "SS",
                actual: Organization::PartitionedSeq { partitions: 8 },
            }),
            ServerError::Core(CoreError::Fs(FsError::Disk(DiskError::Transient {
                device: "mem3".into(),
            }))),
            ServerError::Core(CoreError::OutsideView {
                record: 31,
                start: 32,
                end: 64,
                piece: 32,
                stride: 32,
            }),
            ServerError::Core(CoreError::OutsideView {
                record: 9,
                start: 4,
                end: u64::MAX,
                piece: 4,
                stride: 8,
            }),
            ServerError::NotServed {
                view: View::Interleaved(4),
            },
        ];
        for e in samples {
            let mut w = WireWriter::new();
            encode_server_error(&mut w, &e);
            let mut r = WireReader::new(w.bytes());
            let back = decode_server_error(&mut r).expect("decode");
            r.finish().expect("no trailing bytes");
            assert_eq!(back, e);
        }
    }

    #[test]
    fn server_error_tag_3_is_reserved() {
        let mut w = WireWriter::new();
        w.u8(3).u64(55).u32(1).u64(56).u64(108);
        let mut r = WireReader::new(w.bytes());
        assert!(matches!(
            decode_server_error(&mut r),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn disk_error_tag_5_is_reserved() {
        let mut w = WireWriter::new();
        w.u8(5).str_prefixed("mem3");
        let mut r = WireReader::new(w.bytes());
        assert!(matches!(
            decode_disk_error(&mut r),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn opened_round_trips() {
        let o = Opened {
            handle: 5,
            record_size: 128,
            records_per_block: 32,
            len_records: 4096,
            start: 1024,
            end: 2048,
        };
        let mut w = WireWriter::new();
        o.encode(&mut w);
        assert_eq!(Opened::decode(w.bytes()).expect("decode"), o);
    }

    /// A stats body with one latency bucket (`le`, `count`) per pair,
    /// under a declared bucket count of `n`.
    fn stats_body(n: u32, buckets: &[(u64, u64)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for v in [9, 2, 8, 3, 14, 7_700] {
            w.u64(v);
        }
        w.u32(n);
        for &(le, count) in buckets {
            w.u64(le).u64(count);
        }
        w.bytes().to_vec()
    }

    #[test]
    fn a_stats_body_no_snapshot_encodes_to_is_malformed() {
        let past = LATENCY_BUCKETS as u32 + 1;
        let full: Vec<_> = (1..=u64::from(past)).map(|le| (le, 1)).collect();
        for body in [
            stats_body(past, &full),
            stats_body(u32::MAX, &[]),
            stats_body(1, &[(5, 0)]),
            stats_body(2, &[(5, 1), (5, 1)]),
            stats_body(2, &[(6, 1), (5, 1)]),
        ] {
            assert!(
                matches!(decode_server_stats(&body), Err(WireError::Malformed(_))),
                "{body:?}"
            );
        }
        let body = stats_body(1, &[(5, 1)]);
        assert!(matches!(
            decode_server_stats(&body[..body.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
        let mut body = stats_body(0, &[]);
        body.push(0);
        assert!(matches!(
            decode_server_stats(&body),
            Err(WireError::Malformed(_))
        ));
    }
}
