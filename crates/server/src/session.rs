//! The server proper: sessions, the shared-file registry, and the typed
//! per-organization client handles.
//!
//! The registry is the load-bearing piece: every session that opens the
//! same file gets a clone of *one* [`ParallelFile`], so SS cursors are
//! shared across sessions (clones share `SsState`) and the sharing
//! ledger — exclusive holder, partition claims, interleave slots — and
//! the GDA byte-range locks live next to the file they protect.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use pario_check::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use pario_core::{
    CoreError, DirectHandle, InterleavedHandle, Organization, ParallelFile, PartitionHandle,
    SelfSchedReader, SelfSchedWriter,
};
use pario_fs::{FsError, GlobalReader, GlobalWriter, Volume};

use crate::admission::{Admission, Saturation};
use crate::error::{Result, ServerError};
use crate::locks::ByteRangeLocks;
use crate::stats::{LatencyHistogram, ServerStats, SessionCounters, SessionStats};

/// Tuning knobs for a [`Server`].
#[derive(Copy, Clone, Debug)]
pub struct ServerConfig {
    /// Most operations in flight at once across all sessions. Size this
    /// to the volume's device parallelism; the default of 8 suits a
    /// 4-device volume with some pipelining slack.
    pub max_in_flight: usize,
    /// What to do with requests that arrive past the limit.
    pub saturation: Saturation,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_in_flight: 8,
            saturation: Saturation::Block,
        }
    }
}

/// Cross-session sharing ledger of one file.
#[derive(Default)]
struct Sharing {
    /// Session holding a type-S file exclusively.
    exclusive: Option<u64>,
    /// PS/PDA partition index -> owning session.
    partitions: HashMap<u32, u64>,
    /// IS process slot -> owning session.
    slots: HashMap<u32, u64>,
}

/// One registered file: the single `ParallelFile` all sessions share
/// (hence one SS cursor), its sharing ledger, and its GDA range locks.
struct FileEntry {
    pfile: ParallelFile,
    sharing: Mutex<Sharing>,
    ranges: ByteRangeLocks,
}

struct Inner {
    volume: Volume,
    admission: Admission,
    latency: LatencyHistogram,
    files: Mutex<HashMap<String, Arc<FileEntry>>>,
    sessions: Mutex<Vec<(u64, Arc<SessionCounters>)>>,
    next_session: AtomicU64,
}

impl Inner {
    /// Open-or-get the shared entry for `name`.
    fn entry(&self, name: &str) -> Result<Arc<FileEntry>> {
        let mut files = self.files.lock();
        if let Some(e) = files.get(name) {
            return Ok(Arc::clone(e));
        }
        let pfile = ParallelFile::open(&self.volume, name)?;
        let e = Arc::new(FileEntry {
            pfile,
            sharing: Mutex::new(Sharing::default()),
            ranges: ByteRangeLocks::default(),
        });
        files.insert(name.to_string(), Arc::clone(&e));
        Ok(e)
    }
}

/// A thread-safe file service in front of a [`Volume`]. Cheap to clone;
/// clones share everything.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Put a server in front of `volume`.
    pub fn new(volume: Volume, config: ServerConfig) -> Server {
        Server {
            inner: Arc::new(Inner {
                volume,
                admission: Admission::new(config.max_in_flight, config.saturation),
                latency: LatencyHistogram::default(),
                files: Mutex::new(HashMap::new()),
                sessions: Mutex::new(Vec::new()),
                next_session: AtomicU64::new(0),
            }),
        }
    }

    /// The volume behind the server (for file creation and experiments).
    pub fn volume(&self) -> &Volume {
        &self.inner.volume
    }

    /// Connect a new client session.
    pub fn connect(&self) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed); // ordering: id allocation needs uniqueness, not ordering
        let counters = Arc::new(SessionCounters::default());
        self.inner.sessions.lock().push((id, Arc::clone(&counters)));
        Session {
            inner: Arc::clone(&self.inner),
            id,
            counters,
        }
    }

    /// Snapshot server-wide statistics.
    pub fn stats(&self) -> ServerStats {
        let sessions = self
            .inner
            .sessions
            .lock()
            .iter()
            .map(|(id, c)| SessionStats {
                id: *id,
                reads: c.reads.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
                writes: c.writes.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            })
            .collect();
        ServerStats::from_parts(
            sessions,
            self.inner.admission.stats(),
            self.inner.latency.snapshot(),
            self.inner.volume.executor_stats(),
            self.inner.volume.health_snapshot(),
            self.inner.volume.cache_stats(),
        )
    }

    /// The current brownout advisory, if any: the first degraded device
    /// as a ready-made [`ServerError::Degraded`]. Clients can poll this
    /// to distinguish "volume browned out" from "my request was wrong".
    pub fn advisory(&self) -> Option<ServerError> {
        self.inner
            .volume
            .health()
            .first_degraded()
            .map(|(device, state)| ServerError::Degraded { device, state })
    }
}

/// One client's connection to a [`Server`]. Sessions are independent —
/// hand them to separate threads — and open typed per-organization
/// clients. Clones share the session identity (id and counters).
#[derive(Clone)]
pub struct Session {
    inner: Arc<Inner>,
    id: u64,
    counters: Arc<SessionCounters>,
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Run one data operation: admission permit, the transfer, then
    /// latency and per-session accounting. Latency includes admission
    /// wait — that is the latency the client observes.
    ///
    /// A disk-level failure on a volume whose health board blames a
    /// degraded device is rewritten into the typed
    /// [`ServerError::Degraded`] advisory: the client learns *which*
    /// device browned out and that redundant layouts keep serving,
    /// instead of an opaque device error.
    fn run<T>(&self, write: bool, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let t0 = Instant::now();
        let permit = self.inner.admission.acquire(self.id)?;
        let r = f();
        drop(permit);
        self.inner.latency.record(t0.elapsed());
        match r {
            Ok(v) => {
                let c = if write {
                    &self.counters.writes
                } else {
                    &self.counters.reads
                };
                c.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
                Ok(v)
            }
            Err(ServerError::Core(CoreError::Fs(FsError::Disk(e)))) => {
                Err(match self.inner.volume.health().first_degraded() {
                    Some((device, state)) => ServerError::Degraded { device, state },
                    None => ServerError::Core(CoreError::Fs(FsError::Disk(e))),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Metadata for `name` without opening a typed client — what a
    /// remote protocol needs to size its buffers before the first
    /// transfer. `len_records` is a point-in-time value; concurrent
    /// writers may have moved it by the time the caller acts on it.
    pub fn stat(&self, name: &str) -> Result<FileStat> {
        let entry = self.inner.entry(name)?;
        Ok(FileStat {
            organization: entry.pfile.organization(),
            record_size: entry.pfile.record_size(),
            records_per_block: entry.pfile.records_per_block(),
            len_records: entry.pfile.len_records(),
        })
    }

    /// Open a type-S file exclusively. Fails with
    /// [`ServerError::Exclusive`] while any other client holds it.
    pub fn open_sequential(&self, name: &str) -> Result<SeqClient> {
        let entry = self.inner.entry(name)?;
        let org = entry.pfile.organization();
        if org != Organization::Sequential {
            return Err(CoreError::WrongOrganization {
                expected: "S",
                actual: org,
            }
            .into());
        }
        {
            let mut sh = entry.sharing.lock();
            if let Some(by) = sh.exclusive {
                return Err(ServerError::Exclusive {
                    name: name.to_string(),
                    by,
                });
            }
            sh.exclusive = Some(self.id);
        }
        let reader = entry.pfile.global_reader();
        Ok(SeqClient {
            sess: self.clone(),
            entry,
            reader,
            writer: None,
        })
    }

    /// Open an SS file. Every session's client shares one server-side
    /// cursor: across all of them, each record is delivered exactly once.
    pub fn open_self_sched(&self, name: &str) -> Result<SsClient> {
        let entry = self.inner.entry(name)?;
        Ok(SsClient {
            sess: self.clone(),
            reader: entry.pfile.self_sched_reader()?,
            writer: entry.pfile.self_sched_writer()?,
        })
    }

    /// Claim partition `p` of a PS or PDA file. Fails with
    /// [`ServerError::Claimed`] while another client owns the partition;
    /// the claim releases when the returned client drops.
    pub fn open_partition(&self, name: &str, p: u32) -> Result<PartitionClient> {
        let entry = self.inner.entry(name)?;
        let handle = entry.pfile.partition_handle(p)?;
        {
            let mut sh = entry.sharing.lock();
            if let Some(&by) = sh.partitions.get(&p) {
                return Err(ServerError::Claimed {
                    name: name.to_string(),
                    index: p,
                    by,
                });
            }
            sh.partitions.insert(p, self.id);
        }
        let (start, end) = handle.range();
        Ok(PartitionClient {
            sess: self.clone(),
            entry,
            handle,
            partition: p,
            start,
            end,
        })
    }

    /// Claim interleave slot `p` of an IS file (released on drop).
    pub fn open_interleaved(&self, name: &str, p: u32) -> Result<InterleavedClient> {
        let entry = self.inner.entry(name)?;
        let handle = entry.pfile.interleaved_handle(p)?;
        {
            let mut sh = entry.sharing.lock();
            if let Some(&by) = sh.slots.get(&p) {
                return Err(ServerError::Claimed {
                    name: name.to_string(),
                    index: p,
                    by,
                });
            }
            sh.slots.insert(p, self.id);
        }
        Ok(InterleavedClient {
            sess: self.clone(),
            entry,
            handle,
            process: p,
        })
    }

    /// Open a GDA file: any record, any order; writes take byte-range
    /// locks so overlapping writers are serialised, and
    /// [`DirectClient::update`] gives a locked read-modify-write.
    pub fn open_direct(&self, name: &str) -> Result<DirectClient> {
        let entry = self.inner.entry(name)?;
        let handle = entry.pfile.direct_handle()?;
        let record_size = entry.pfile.record_size();
        Ok(DirectClient {
            sess: self.clone(),
            entry,
            handle,
            record_size,
        })
    }
}

/// Point-in-time file metadata returned by [`Session::stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    /// The file's organization.
    pub organization: Organization,
    /// Fixed record size in bytes.
    pub record_size: usize,
    /// Records per file block.
    pub records_per_block: usize,
    /// Length in records when the stat was taken.
    pub len_records: u64,
}

// ---------------------------------------------------------------------
// Typed clients
// ---------------------------------------------------------------------

/// Exclusive sequential access to a type-S file.
pub struct SeqClient {
    sess: Session,
    entry: Arc<FileEntry>,
    reader: GlobalReader,
    writer: Option<GlobalWriter>,
}

impl SeqClient {
    /// Read the next record; `false` at end of file.
    pub fn read_next(&mut self, out: &mut [u8]) -> Result<bool> {
        let (sess, reader) = (&self.sess, &mut self.reader);
        sess.run(false, || Ok(reader.read_record(out)?))
    }

    /// Append the next record. Appends are buffered a window at a time
    /// and written behind the caller, so an error may be an earlier
    /// record's; call [`finish`](SeqClient::finish) to publish the final
    /// length (dropping the client also flushes, best-effort).
    pub fn write_next(&mut self, data: &[u8]) -> Result<()> {
        let raw = self.entry.pfile.raw().clone();
        let (sess, writer) = (&self.sess, &mut self.writer);
        sess.run(true, || {
            Ok(writer
                .get_or_insert_with(|| GlobalWriter::append(raw))
                .write_record(data)?)
        })
    }

    /// Flush buffered appends and publish the length.
    pub fn finish(&mut self) -> Result<u64> {
        match self.writer.take() {
            Some(w) => Ok(w.finish()?),
            None => Ok(self.entry.pfile.len_records()),
        }
    }

    /// Rewind the read cursor.
    pub fn rewind(&mut self) {
        self.reader.seek_record(0);
    }
}

impl Drop for SeqClient {
    fn drop(&mut self) {
        if let Some(w) = self.writer.take() {
            let _ = w.finish();
        }
        self.entry.sharing.lock().exclusive = None;
    }
}

/// A self-scheduled client: reads claim the globally next record across
/// *all* sessions of the file.
pub struct SsClient {
    sess: Session,
    reader: SelfSchedReader,
    writer: SelfSchedWriter,
}

impl SsClient {
    /// Claim and read the next unclaimed record anywhere in the server.
    /// Returns the index served, or `None` once the file is drained.
    pub fn read_next(&self, out: &mut [u8]) -> Result<Option<u64>> {
        self.sess.run(false, || Ok(self.reader.read_next(out)?))
    }

    /// Claim and read the next whole file block (the paper's
    /// self-scheduling by block); `out` must hold one file block.
    pub fn read_next_block(&self, out: &mut [u8]) -> Result<Option<(u64, usize)>> {
        self.sess
            .run(false, || Ok(self.reader.read_next_block(out)?))
    }

    /// Claim the next free slot and write `data` there.
    pub fn write_next(&self, data: &[u8]) -> Result<u64> {
        self.sess.run(true, || Ok(self.writer.write_next(data)?))
    }

    /// Publish the final length once all sessions' writers are done.
    pub fn finish_writes(&self) -> Result<u64> {
        Ok(self.writer.finish()?)
    }

    /// Records claimed so far across all sessions.
    pub fn claimed(&self) -> u64 {
        self.reader.claimed()
    }
}

/// A claimed partition of a PS/PDA file. Addresses records by their
/// *global* index; anything outside the claimed range fails with
/// [`ServerError::OutsidePartition`]. The claim releases on drop.
pub struct PartitionClient {
    sess: Session,
    entry: Arc<FileEntry>,
    handle: PartitionHandle,
    partition: u32,
    start: u64,
    end: u64,
}

impl PartitionClient {
    /// The claimed partition index.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// The global record range `[start, end)` this client may touch.
    pub fn range(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// Map a global record index into the partition, or refuse it.
    fn local(&self, r: u64) -> Result<u64> {
        if r < self.start || r >= self.end {
            return Err(ServerError::OutsidePartition {
                record: r,
                partition: self.partition,
                start: self.start,
                end: self.end,
            });
        }
        Ok(r - self.start)
    }

    /// The error for running the sequential cursor off the partition end.
    fn exhausted(&self) -> ServerError {
        ServerError::OutsidePartition {
            record: self.end,
            partition: self.partition,
            start: self.start,
            end: self.end,
        }
    }

    /// Read the record at *global* index `r` (PDA direct access).
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        let local = self.local(r)?;
        self.sess
            .run(false, || Ok(self.handle.read_at(local, out)?))
    }

    /// Write the record at *global* index `r` (PDA direct access).
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        let local = self.local(r)?;
        self.sess
            .run(true, || Ok(self.handle.write_at(local, data)?))
    }

    /// Read the partition's next record (PS); `false` at partition end.
    pub fn read_next(&mut self, out: &mut [u8]) -> Result<bool> {
        let (sess, handle) = (&self.sess, &mut self.handle);
        sess.run(false, || Ok(handle.read_next(out)?))
    }

    /// Write the partition's next record (PS). A full partition fails
    /// with [`ServerError::OutsidePartition`] — never a spill into the
    /// neighbour's blocks.
    pub fn write_next(&mut self, data: &[u8]) -> Result<()> {
        let exhausted = self.exhausted();
        let (sess, handle) = (&self.sess, &mut self.handle);
        sess.run(true, || {
            handle.write_next(data).map_err(|e| match e {
                CoreError::Fs(FsError::OutOfBounds { .. }) => exhausted,
                e => e.into(),
            })
        })
    }

    /// Rewind the sequential cursor.
    pub fn rewind(&mut self) {
        self.handle.rewind();
    }
}

impl Drop for PartitionClient {
    fn drop(&mut self) {
        self.entry.sharing.lock().partitions.remove(&self.partition);
    }
}

/// A claimed interleave slot of an IS file (released on drop).
pub struct InterleavedClient {
    sess: Session,
    entry: Arc<FileEntry>,
    handle: InterleavedHandle,
    process: u32,
}

impl InterleavedClient {
    /// The claimed process slot.
    pub fn process(&self) -> u32 {
        self.process
    }

    /// Read this slot's next strided record; `false` past end of file.
    pub fn read_next(&mut self, out: &mut [u8]) -> Result<bool> {
        let (sess, handle) = (&self.sess, &mut self.handle);
        sess.run(false, || Ok(handle.read_next(out)?))
    }

    /// Write this slot's next strided record; returns the global index.
    pub fn write_next(&mut self, data: &[u8]) -> Result<u64> {
        let (sess, handle) = (&self.sess, &mut self.handle);
        sess.run(true, || Ok(handle.write_next(data)?))
    }

    /// Read this slot's next whole file block; `None` past end of file.
    pub fn read_next_block(&mut self, out: &mut [u8]) -> Result<Option<u64>> {
        let (sess, handle) = (&self.sess, &mut self.handle);
        sess.run(false, || Ok(handle.read_next_block(out)?))
    }

    /// Write this slot's next whole file block.
    pub fn write_next_block(&mut self, data: &[u8]) -> Result<u64> {
        let (sess, handle) = (&self.sess, &mut self.handle);
        sess.run(true, || Ok(handle.write_next_block(data)?))
    }
}

impl Drop for InterleavedClient {
    fn drop(&mut self) {
        self.entry.sharing.lock().slots.remove(&self.process);
    }
}

/// Global direct access to a GDA file through the server. Reads are
/// unsynchronised (the paper's GDA view offers no read consistency);
/// writes take a byte-range lock so overlapping writers serialise, and
/// [`update`](DirectClient::update) is a locked read-modify-write.
pub struct DirectClient {
    sess: Session,
    entry: Arc<FileEntry>,
    handle: DirectHandle,
    record_size: usize,
}

impl DirectClient {
    /// Records currently in the file.
    pub fn len_records(&self) -> u64 {
        self.handle.len_records()
    }

    /// Byte range of record `r`.
    fn byte_range(&self, r: u64) -> (u64, u64) {
        let rs = self.record_size as u64;
        (r * rs, (r + 1) * rs)
    }

    /// Read record `r`.
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        self.sess
            .run(false, || Ok(self.handle.read_record(r, out)?))
    }

    /// Write record `r` under a byte-range lock (extends the file).
    ///
    /// On a volume with a write-back cache tier the written span is
    /// flushed to the devices before the range lock releases, so
    /// cross-session readers keep the uncached durability semantics.
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        let (lo, hi) = self.byte_range(r);
        self.sess.run(true, || {
            let _g = self.entry.ranges.acquire(lo, hi);
            self.handle.write_record(r, data)?;
            self.flush_span(lo, hi)
        })
    }

    /// Atomically read-modify-write record `r`: the byte-range lock is
    /// held across the read, `f`, and the write-back, so concurrent
    /// updates of the same record never lose increments. Extends the
    /// file with a zeroed record when `r` is past the end.
    pub fn update(&self, r: u64, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let (lo, hi) = self.byte_range(r);
        self.sess.run(true, || {
            let _g = self.entry.ranges.acquire(lo, hi);
            let mut buf = vec![0u8; self.record_size];
            if r < self.handle.len_records() {
                self.handle.read_record(r, &mut buf)?;
            }
            f(&mut buf);
            self.handle.write_record(r, &buf)?;
            self.flush_span(lo, hi)
        })
    }

    /// Push the byte span `[lo, hi)` out of the volume cache tier while
    /// the caller still holds its range lock; a no-op without a cache.
    fn flush_span(&self, lo: u64, hi: u64) -> Result<()> {
        let raw = self.entry.pfile.raw();
        if raw.volume().cache().is_some() {
            raw.flush_span(lo, hi - lo)?;
        }
        Ok(())
    }

    /// Explicitly lock records `[r_lo, r_hi)`, returning an owned lock
    /// handle that can outlive this call (unlike the borrowed guard
    /// inside [`write_record`](DirectClient::write_record)). This is the
    /// wire-protocol hook: a network client acquires the lock in one
    /// request, writes under it with
    /// [`write_record_locked`](DirectClient::write_record_locked), and
    /// releases it with [`unlock`](DirectClient::unlock) — the same
    /// lock table plain `write_record`/`update` callers serialise on.
    pub fn lock_range(&self, r_lo: u64, r_hi: u64) -> Result<LockedRange> {
        if r_lo >= r_hi {
            return Err(
                CoreError::BadGeometry(format!("empty record range [{r_lo}, {r_hi})")).into(),
            );
        }
        let rs = self.record_size as u64;
        let (lo, hi) = (r_lo * rs, r_hi * rs);
        let ticket = self.entry.ranges.acquire_ticket(lo, hi);
        Ok(LockedRange {
            entry: Arc::clone(&self.entry),
            ticket,
            lo,
            hi,
        })
    }

    /// Write record `r` under an explicitly held range lock. The lock
    /// must cover the record's bytes ([`ServerError::RangeNotLocked`]
    /// otherwise); durability is deferred to
    /// [`unlock`](DirectClient::unlock), which flushes the whole locked
    /// span before the lock releases — the same durable-at-unlock
    /// contract as [`write_record`](DirectClient::write_record).
    pub fn write_record_locked(&self, lock: &LockedRange, r: u64, data: &[u8]) -> Result<()> {
        let (lo, hi) = self.byte_range(r);
        if lo < lock.lo || hi > lock.hi {
            return Err(ServerError::RangeNotLocked { lo, hi });
        }
        self.sess
            .run(true, || Ok(self.handle.write_record(r, data)?))
    }

    /// Release an explicit range lock, flushing the locked span out of
    /// any write-back cache tier *before* the lock releases so the next
    /// lock holder (or raw-media reader) sees every locked write.
    pub fn unlock(&self, lock: LockedRange) -> Result<()> {
        let r = self.flush_span(lock.lo, lock.hi);
        drop(lock);
        r
    }
}

/// An explicitly held GDA byte-range lock (see
/// [`DirectClient::lock_range`]). Owned — it keeps the file entry alive
/// and may be stored across calls. Dropping it releases the range
/// *without* the durability flush; release through
/// [`DirectClient::unlock`] for the durable-at-unlock contract.
#[must_use = "the byte range is locked until this handle is unlocked or dropped"]
pub struct LockedRange {
    entry: Arc<FileEntry>,
    ticket: u64,
    lo: u64,
    hi: u64,
}

impl Drop for LockedRange {
    fn drop(&mut self) {
        self.entry.ranges.release_ticket(self.ticket);
    }
}
