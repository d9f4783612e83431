//! The protocol layer: the handshake constants, the typed request set
//! (one variant per operation on the [`pario_server::Session`]
//! surface), the fixed response bodies, and a lossless wire encoding of
//! the whole error taxonomy — a [`ServerError`] decoded on the client
//! compares equal to the one the server produced.

use bytes::Bytes;
use pario_core::{intern_expected, CoreError, Organization};
use pario_disk::DiskError;
use pario_fs::{FsError, HealthState};
use pario_server::ServerError;

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
/// from the middle of that name.
pub const VERSION: u16 = 4;

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
/// clones a reference, not the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; empty OK reply.
    Ping,
    /// Server statistics snapshot; [`StatsSummary`] reply.
    Stats,
    /// `Session::open_sequential`; [`Opened`] reply.
    OpenSeq {
        /// File name.
        name: String,
    },
    /// `Session::open_self_sched`; [`Opened`] reply.
    OpenSs {
        /// File name.
        name: String,
    },
    /// `Session::open_partition`; [`Opened`] reply with the claimed
    /// record range.
    OpenPartition {
        /// File name.
        name: String,
        /// Partition index to claim.
        partition: u32,
    },
    /// `Session::open_interleaved`; [`Opened`] reply.
    OpenInterleaved {
        /// File name.
        name: String,
        /// Interleave slot to claim.
        process: u32,
    },
    /// `Session::open_direct`; [`Opened`] reply.
    OpenDirect {
        /// File name.
        name: String,
    },
    /// Drop the server-side client behind `handle`, releasing any
    /// exclusive hold, partition/slot claim, or range locks it owns.
    Close {
        /// Handle to close.
        handle: u64,
    },

    /// `SeqClient::read_next`. Reply: `u8` flag (0 = EOF), then the
    /// record bytes.
    SeqRead {
        /// Open handle.
        handle: u64,
    },
    /// `SeqClient::write_next`. Empty reply.
    SeqWrite {
        /// Open handle.
        handle: u64,
        /// One record.
        data: Bytes,
    },
    /// `SeqClient::finish`. Reply: `u64` published length.
    SeqFinish {
        /// Open handle.
        handle: u64,
    },
    /// `SeqClient::rewind`. Empty reply.
    SeqRewind {
        /// Open handle.
        handle: u64,
    },

    /// `SsClient::read_next`. Reply: `u8` flag; when 1, `u64` record
    /// index then the record bytes.
    SsRead {
        /// Open handle.
        handle: u64,
    },
    /// `SsClient::read_next_block`. Reply: `u8` flag; when 1, `u64`
    /// first record index, `u32` record count, then the block bytes.
    SsReadBlock {
        /// Open handle.
        handle: u64,
    },
    /// `SsClient::write_next`. Reply: `u64` slot written.
    SsWrite {
        /// Open handle.
        handle: u64,
        /// One record.
        data: Bytes,
    },
    /// `SsClient::finish_writes`. Reply: `u64` published length.
    SsFinish {
        /// Open handle.
        handle: u64,
    },
    /// `SsClient::claimed`. Reply: `u64`.
    SsClaimed {
        /// Open handle.
        handle: u64,
    },

    /// `PartitionClient::read_record`. Reply: the record bytes.
    PartRead {
        /// Open handle.
        handle: u64,
        /// Global record index.
        record: u64,
    },
    /// `PartitionClient::write_record`. Empty reply.
    PartWrite {
        /// Open handle.
        handle: u64,
        /// Global record index.
        record: u64,
        /// One record.
        data: Bytes,
    },
    /// `PartitionClient::read_next`. Reply: `u8` flag, record bytes.
    PartReadNext {
        /// Open handle.
        handle: u64,
    },
    /// `PartitionClient::write_next`. Empty reply.
    PartWriteNext {
        /// Open handle.
        handle: u64,
        /// One record.
        data: Bytes,
    },
    /// `PartitionClient::rewind`. Empty reply.
    PartRewind {
        /// Open handle.
        handle: u64,
    },

    /// `InterleavedClient::read_next`. Reply: `u8` flag, record bytes.
    IlvReadNext {
        /// Open handle.
        handle: u64,
    },
    /// `InterleavedClient::write_next`. Reply: `u64` record written.
    IlvWriteNext {
        /// Open handle.
        handle: u64,
        /// One record.
        data: Bytes,
    },
    /// `InterleavedClient::read_next_block`. Reply: `u8` flag; when 1,
    /// `u64` block index then the block bytes.
    IlvReadBlock {
        /// Open handle.
        handle: u64,
    },
    /// `InterleavedClient::write_next_block`. Reply: `u64` block index.
    IlvWriteBlock {
        /// Open handle.
        handle: u64,
        /// One file block.
        data: Bytes,
    },

    /// `DirectClient::read_record`. Reply: the record bytes.
    DirRead {
        /// Open handle.
        handle: u64,
        /// Record index.
        record: u64,
    },
    /// `DirectClient::write_record`. Empty reply.
    DirWrite {
        /// Open handle.
        handle: u64,
        /// Record index.
        record: u64,
        /// One record.
        data: Bytes,
    },
    /// `DirectClient::lock_range`. Reply: `u64` lock id.
    DirLock {
        /// Open handle.
        handle: u64,
        /// First record of the range.
        r_lo: u64,
        /// One past the last record.
        r_hi: u64,
    },
    /// `DirectClient::unlock` — flushes the span (durable-at-unlock)
    /// then releases. Empty reply.
    DirUnlock {
        /// Open handle.
        handle: u64,
        /// Lock id from [`Request::DirLock`].
        lock: u64,
    },
    /// `DirectClient::write_record_locked`. Empty reply.
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
    /// `DirectClient::len_records`. Reply: `u64`.
    DirLen {
        /// Open handle.
        handle: u64,
    },
}

impl Request {
    /// The request's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => 0x01,
            Request::Stats => 0x02,
            Request::OpenSeq { .. } => 0x10,
            Request::OpenSs { .. } => 0x11,
            // 0x12 is reserved: retired in protocol version 3, decoded
            // as an unknown opcode, never to be reassigned.
            Request::OpenPartition { .. } => 0x13,
            Request::OpenInterleaved { .. } => 0x14,
            Request::OpenDirect { .. } => 0x15,
            Request::Close { .. } => 0x16,
            Request::SeqRead { .. } => 0x20,
            Request::SeqWrite { .. } => 0x21,
            Request::SeqFinish { .. } => 0x22,
            Request::SeqRewind { .. } => 0x23,
            Request::SsRead { .. } => 0x28,
            Request::SsReadBlock { .. } => 0x29,
            Request::SsWrite { .. } => 0x2A,
            Request::SsFinish { .. } => 0x2B,
            Request::SsClaimed { .. } => 0x2C,
            Request::PartRead { .. } => 0x30,
            Request::PartWrite { .. } => 0x31,
            Request::PartReadNext { .. } => 0x32,
            Request::PartWriteNext { .. } => 0x33,
            Request::PartRewind { .. } => 0x34,
            Request::IlvReadNext { .. } => 0x38,
            Request::IlvWriteNext { .. } => 0x39,
            Request::IlvReadBlock { .. } => 0x3A,
            Request::IlvWriteBlock { .. } => 0x3B,
            Request::DirRead { .. } => 0x40,
            Request::DirWrite { .. } => 0x41,
            Request::DirLock { .. } => 0x42,
            Request::DirUnlock { .. } => 0x43,
            Request::DirWriteLocked { .. } => 0x44,
            Request::DirLen { .. } => 0x45,
        }
    }

    /// Every opcode this build understands, for exhaustive tests.
    pub const ALL_OPCODES: &'static [u8] = &[
        0x01, 0x02, 0x10, 0x11, 0x13, 0x14, 0x15, 0x16, 0x20, 0x21, 0x22, 0x23, 0x28, 0x29, 0x2A,
        0x2B, 0x2C, 0x30, 0x31, 0x32, 0x33, 0x34, 0x38, 0x39, 0x3A, 0x3B, 0x40, 0x41, 0x42, 0x43,
        0x44, 0x45,
    ];

    /// Encode the payload (everything after the opcode byte). Bulk data
    /// is always the trailing field, unprefixed, so the receiver can
    /// slice it without another length.
    pub fn encode_payload(&self, w: &mut WireWriter) {
        match self {
            Request::Ping | Request::Stats => {}
            Request::OpenSeq { name } | Request::OpenSs { name } | Request::OpenDirect { name } => {
                w.str_prefixed(name);
            }
            Request::OpenPartition { name, partition } => {
                w.str_prefixed(name).u32(*partition);
            }
            Request::OpenInterleaved { name, process } => {
                w.str_prefixed(name).u32(*process);
            }
            Request::Close { handle }
            | Request::SeqRead { handle }
            | Request::SeqFinish { handle }
            | Request::SeqRewind { handle }
            | Request::SsRead { handle }
            | Request::SsReadBlock { handle }
            | Request::SsFinish { handle }
            | Request::SsClaimed { handle }
            | Request::PartReadNext { handle }
            | Request::PartRewind { handle }
            | Request::IlvReadNext { handle }
            | Request::IlvReadBlock { handle }
            | Request::DirLen { handle } => {
                w.u64(*handle);
            }
            Request::SeqWrite { handle, data }
            | Request::SsWrite { handle, data }
            | Request::PartWriteNext { handle, data }
            | Request::IlvWriteNext { handle, data }
            | Request::IlvWriteBlock { handle, data } => {
                w.u64(*handle);
                w.raw(data);
            }
            Request::PartRead { handle, record } | Request::DirRead { handle, record } => {
                w.u64(*handle).u64(*record);
            }
            Request::PartWrite {
                handle,
                record,
                data,
            }
            | Request::DirWrite {
                handle,
                record,
                data,
            } => {
                w.u64(*handle).u64(*record);
                w.raw(data);
            }
            Request::DirLock { handle, r_lo, r_hi } => {
                w.u64(*handle).u64(*r_lo).u64(*r_hi);
            }
            Request::DirUnlock { handle, lock } => {
                w.u64(*handle).u64(*lock);
            }
            Request::DirWriteLocked {
                handle,
                lock,
                record,
                data,
            } => {
                w.u64(*handle).u64(*lock).u64(*record);
                w.raw(data);
            }
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
            0x10 => Request::OpenSeq {
                name: r.str_prefixed()?,
            },
            0x11 => Request::OpenSs {
                name: r.str_prefixed()?,
            },
            0x13 => Request::OpenPartition {
                name: r.str_prefixed()?,
                partition: r.u32()?,
            },
            0x14 => Request::OpenInterleaved {
                name: r.str_prefixed()?,
                process: r.u32()?,
            },
            0x15 => Request::OpenDirect {
                name: r.str_prefixed()?,
            },
            0x16 => Request::Close { handle: r.u64()? },
            0x20 => Request::SeqRead { handle: r.u64()? },
            0x21 => Request::SeqWrite {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x22 => Request::SeqFinish { handle: r.u64()? },
            0x23 => Request::SeqRewind { handle: r.u64()? },
            0x28 => Request::SsRead { handle: r.u64()? },
            0x29 => Request::SsReadBlock { handle: r.u64()? },
            0x2A => Request::SsWrite {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x2B => Request::SsFinish { handle: r.u64()? },
            0x2C => Request::SsClaimed { handle: r.u64()? },
            0x30 => Request::PartRead {
                handle: r.u64()?,
                record: r.u64()?,
            },
            0x31 => Request::PartWrite {
                handle: r.u64()?,
                record: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x32 => Request::PartReadNext { handle: r.u64()? },
            0x33 => Request::PartWriteNext {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x34 => Request::PartRewind { handle: r.u64()? },
            0x38 => Request::IlvReadNext { handle: r.u64()? },
            0x39 => Request::IlvWriteNext {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
            },
            0x3A => Request::IlvReadBlock { handle: r.u64()? },
            0x3B => Request::IlvWriteBlock {
                handle: r.u64()?,
                data: Bytes::copy_from_slice(r.rest()),
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
            other => {
                return Err(WireError::Malformed(format!("unknown opcode {other:#04x}")));
            }
        };
        r.finish()?;
        Ok(req)
    }
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

/// The reply body of [`Request::Stats`]: the remote-visible slice of
/// [`pario_server::ServerStats`], including the latency percentiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSummary {
    /// Sessions currently connected (one per network connection, plus
    /// any in-process sessions).
    pub sessions: u64,
    /// Operations in flight right now.
    pub in_flight: u64,
    /// Requests rejected with `Busy`.
    pub rejected: u64,
    /// Cumulative operations ever admitted — remote clients compute
    /// achieved (goodput) rates from two snapshots of this.
    pub total_admitted: u64,
    /// Median end-to-end operation latency, nanoseconds.
    pub p50_nanos: Option<u64>,
    /// 99th-percentile latency, nanoseconds.
    pub p99_nanos: Option<u64>,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_nanos: Option<u64>,
}

fn encode_opt_u64(w: &mut WireWriter, v: Option<u64>) {
    match v {
        Some(n) => {
            w.u8(1).u64(n);
        }
        None => {
            w.u8(0);
        }
    }
}

fn decode_opt_u64(r: &mut WireReader<'_>) -> WireResult<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        other => Err(WireError::Malformed(format!("bad option tag {other}"))),
    }
}

impl StatsSummary {
    /// Encode as a reply body.
    pub fn encode(&self, w: &mut WireWriter) {
        w.u64(self.sessions)
            .u64(self.in_flight)
            .u64(self.rejected)
            .u64(self.total_admitted);
        encode_opt_u64(w, self.p50_nanos);
        encode_opt_u64(w, self.p99_nanos);
        encode_opt_u64(w, self.p999_nanos);
    }

    /// Decode a reply body.
    pub fn decode(body: &[u8]) -> WireResult<StatsSummary> {
        let mut r = WireReader::new(body);
        let v = StatsSummary {
            sessions: r.u64()?,
            in_flight: r.u64()?,
            rejected: r.u64()?,
            total_admitted: r.u64()?,
            p50_nanos: decode_opt_u64(&mut r)?,
            p99_nanos: decode_opt_u64(&mut r)?,
            p999_nanos: decode_opt_u64(&mut r)?,
        };
        r.finish()?;
        Ok(v)
    }
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
        ServerError::OutsidePartition {
            record,
            partition,
            start,
            end,
        } => {
            w.u8(3).u64(*record).u32(*partition).u64(*start).u64(*end);
        }
        ServerError::RangeNotLocked { lo, hi } => {
            w.u8(4).u64(*lo).u64(*hi);
        }
        ServerError::Degraded { device, state } => {
            w.u8(5).u64(*device as u64).u8(state.wire_tag());
        }
        ServerError::Core(e) => {
            w.u8(6);
            encode_core_error(w, e);
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
        3 => ServerError::OutsidePartition {
            record: r.u64()?,
            partition: r.u32()?,
            start: r.u64()?,
            end: r.u64()?,
        },
        4 => ServerError::RangeNotLocked {
            lo: r.u64()?,
            hi: r.u64()?,
        },
        5 => ServerError::Degraded {
            device: r.u64()? as usize,
            state: {
                let tag = r.u8()?;
                HealthState::from_wire_tag(tag)
                    .ok_or_else(|| WireError::Malformed(format!("bad health-state tag {tag}")))?
            },
        },
        6 => ServerError::Core(decode_core_error(r)?),
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
            w.u8(1).u64(*device as u64).u64(*requested);
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
    }
}

fn decode_fs_error(r: &mut WireReader<'_>) -> WireResult<FsError> {
    Ok(match r.u8()? {
        0 => FsError::Disk(decode_disk_error(r)?),
        1 => FsError::NoSpace {
            device: r.u64()? as usize,
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
            w.u8(2).u64(*got as u64).u64(*expected as u64);
        }
        DiskError::Corruption { block } => {
            w.u8(3).u64(*block);
        }
        DiskError::Transient { device } => {
            w.u8(4).str_prefixed(device);
        }
        DiskError::Timeout { device } => {
            w.u8(5).str_prefixed(device);
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
            got: r.u64()? as usize,
            expected: r.u64()? as usize,
        },
        3 => DiskError::Corruption { block: r.u64()? },
        4 => DiskError::Transient {
            device: r.str_prefixed()?,
        },
        5 => DiskError::Timeout {
            device: r.str_prefixed()?,
        },
        6 => DiskError::Io(r.str_prefixed()?),
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
        round_trip(Request::OpenPartition {
            name: "grid".into(),
            partition: 3,
        });
        round_trip(Request::SsWrite {
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
            ServerError::Core(CoreError::Fs(FsError::Disk(DiskError::Timeout {
                device: "mem3".into(),
            }))),
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
    fn opened_and_stats_round_trip() {
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

        let s = StatsSummary {
            sessions: 9,
            in_flight: 2,
            rejected: 14,
            total_admitted: 7_700,
            p50_nanos: Some(1_000),
            p99_nanos: Some(9_000),
            p999_nanos: None,
        };
        let mut w = WireWriter::new();
        s.encode(&mut w);
        assert_eq!(StatsSummary::decode(w.bytes()).expect("decode"), s);
    }
}
