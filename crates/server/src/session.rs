//! The server proper: sessions, the shared-file registry, and the one
//! handle every view opens as.
//!
//! The registry is the load-bearing piece: every session that opens the
//! same file gets a clone of *one* [`ParallelFile`], so SS cursors are
//! shared across sessions (clones share `SsState`) and the claim table —
//! a type-S file's exclusive hold, partition claims, interleave slots —
//! and the GDA byte-range locks live next to the file they protect. The
//! registry holds its entries weakly: an entry lives as long as a
//! [`Handle`], [`DirectClient`] or [`LockedRange`] holds it. So a file
//! opened again after its last handle closed is a new program run with
//! a fresh SS cursor, and a removed file gives its blocks back once its
//! handles are gone.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use pario_check::{AtomicU64, LockLevel, Mutex};
use std::sync::{Arc, Weak};
use std::time::Instant;

use pario_core::{
    CoreError, DirectHandle, Organization, ParallelFile, ProcessView, SelfSchedReader,
    SelfSchedWriter,
};
use pario_fs::{FsError, GlobalReader, GlobalWriter, RangeLocks, Volume};

use crate::admission::{Admission, Saturation};
use crate::error::{Result, ServerError};
use crate::stats::{LatencyHistogram, ServerStats};

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

/// The view a handle takes on its file — the paper's organizations are
/// views that processes take on one file. It is fixed when the handle
/// opens ([`Session::open`]) and decides which verbs the handle serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum View {
    /// A type-S file, held exclusively.
    Sequential,
    /// The SS file's shared cursor.
    SelfSched,
    /// This partition of a PS or PDA file, claimed.
    Partition(u32),
    /// This slot of an IS file, claimed.
    Interleaved(u32),
    /// A GDA file.
    Direct,
}

/// One registered file: the single `ParallelFile` all sessions share
/// (hence one SS cursor), its claim table, and its GDA range locks.
struct FileEntry {
    pfile: ParallelFile,
    /// Claimed views -> owning session: `Sequential` (the exclusive
    /// hold), `Partition(p)` and `Interleaved(p)`.
    claims: Mutex<HashMap<View, u64>>,
    ranges: RangeLocks,
}

impl FileEntry {
    /// Byte range of records `first..first + n`; refused where no
    /// offset addresses it.
    fn byte_range(&self, first: u64, n: u64) -> Result<(u64, u64)> {
        Ok(self.pfile.raw().record_bytes(first, n)?)
    }

    /// Push the byte span `[lo, hi)` out of the volume cache tier while
    /// the caller still holds its range lock; a no-op without a cache.
    fn flush_span(&self, lo: u64, hi: u64) -> Result<()> {
        let raw = self.pfile.raw();
        if raw.volume().cache().is_some() {
            raw.flush_span(lo, hi - lo)?;
        }
        Ok(())
    }
}

struct Inner {
    volume: Volume,
    admission: Admission,
    latency: LatencyHistogram,
    /// The files some handle holds, by id (see the module docs).
    files: Mutex<HashMap<u64, Weak<FileEntry>>>,
    next_session: AtomicU64,
}

impl Inner {
    /// Open-or-get the shared entry for `name`. The name is resolved on
    /// the volume every time: a file removed and created again under it
    /// is another file (another id), and the entry of the one before
    /// must not serve it. Entries no handle holds are dropped here.
    fn entry(&self, name: &str) -> Result<Arc<FileEntry>> {
        let pfile = ParallelFile::open(&self.volume, name)?;
        let id = pfile.raw().id();
        let mut files = self.files.lock();
        if let Some(e) = files.get(&id).and_then(Weak::upgrade) {
            return Ok(e);
        }
        files.retain(|_, e| e.strong_count() > 0);
        let e = Arc::new(FileEntry {
            pfile,
            claims: Mutex::new(HashMap::new()),
            ranges: RangeLocks::new(LockLevel::RangeLock),
        });
        files.insert(id, Arc::downgrade(&e));
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
        Session {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// Snapshot server-wide statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            sessions: self.inner.next_session.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            latency: self.inner.latency.snapshot(),
            ..self.inner.admission.stats()
        }
    }
}

/// One client's connection to a [`Server`]. Sessions are independent —
/// hand them to separate threads — and open [`Handle`]s, one view of a
/// file each. Clones share the session id.
#[derive(Clone)]
pub struct Session {
    inner: Arc<Inner>,
    id: u64,
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Run one data operation: admission permit, the transfer, then
    /// its latency. Latency includes admission wait — that is the
    /// latency the client observes.
    ///
    /// A disk-level failure on a volume whose health board blames a
    /// degraded device is rewritten into the typed
    /// [`ServerError::Degraded`] advisory: the client learns *which*
    /// device browned out and that redundant layouts keep serving,
    /// instead of an opaque device error.
    fn run<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let t0 = Instant::now();
        let permit = self.inner.admission.acquire(self.id)?;
        let r = f();
        drop(permit);
        self.inner.latency.record(t0.elapsed());
        match r {
            Err(ServerError::Core(CoreError::Fs(FsError::Disk(e)))) => {
                Err(match self.inner.volume.health().first_degraded() {
                    Some((device, state)) => ServerError::Degraded { device, state },
                    None => ServerError::Core(CoreError::Fs(FsError::Disk(e))),
                })
            }
            r => r,
        }
    }

    /// Open `name` as `view`. The file must have the view's
    /// organization (S, SS, PS or PDA, IS, GDA). A type-S file is held
    /// exclusively ([`ServerError::Exclusive`] while another handle
    /// holds it); a partition or interleave slot is claimed
    /// ([`ServerError::Claimed`] while another handle owns it). The
    /// hold or claim releases when the handle drops.
    pub fn open(&self, name: &str, view: View) -> Result<Handle> {
        let entry = self.inner.entry(name)?;
        let pfile = &entry.pfile;
        let cursor = match view {
            View::Sequential => {
                let org = pfile.organization();
                if org != Organization::Sequential {
                    return Err(CoreError::WrongOrganization {
                        expected: "S",
                        actual: org,
                    }
                    .into());
                }
                Cursor::Seq(Box::new((pfile.global_reader(), None)))
            }
            View::SelfSched => Cursor::Ss(pfile.self_sched_reader()?, pfile.self_sched_writer()?),
            View::Partition(p) => Cursor::Proc(pfile.partition_handle(p)?),
            View::Interleaved(p) => Cursor::Proc(pfile.interleaved_handle(p)?),
            View::Direct => Cursor::Dir(DirectClient::new(self, Arc::clone(&entry))?),
        };
        if !matches!(view, View::SelfSched | View::Direct) {
            let mut table = entry.claims.lock();
            if let Some(&by) = table.get(&view) {
                let name = name.to_string();
                return Err(match view {
                    View::Partition(index) | View::Interleaved(index) => {
                        ServerError::Claimed { name, index, by }
                    }
                    _ => ServerError::Exclusive { name, by },
                });
            }
            table.insert(view, self.id);
        }
        Ok(Handle {
            sess: self.clone(),
            entry,
            view,
            cursor,
        })
    }

    /// Open a GDA file: any record, any order; writes take byte-range
    /// locks so overlapping writers are serialised, and
    /// [`DirectClient::update`] gives a locked read-modify-write. The
    /// same client serves a [`View::Direct`] handle.
    pub fn open_direct(&self, name: &str) -> Result<DirectClient> {
        DirectClient::new(self, self.inner.entry(name)?)
    }
}

/// The core handle behind a view.
enum Cursor {
    /// The global reader, and the appender once the first write opens
    /// it. Boxed: two stream windows make it several times the others'
    /// size.
    Seq(Box<(GlobalReader, Option<GlobalWriter>)>),
    Ss(SelfSchedReader, SelfSchedWriter),
    /// A partition (PS/PDA) or an interleave slot (IS): one strided view.
    Proc(ProcessView),
    Dir(DirectClient),
}

/// The strided view behind a handle opened as a partition (PS/PDA,
/// `partition == true`) or as an interleave slot (IS).
fn process_view(cursor: &mut Cursor, view: View, partition: bool) -> Result<&mut ProcessView> {
    match cursor {
        Cursor::Proc(v) if matches!(view, View::Partition(_)) == partition => Ok(v),
        _ => Err(ServerError::NotServed { view }),
    }
}

/// One open view of a file: the session, the view's claim (if it takes
/// one) and its cursor. Every view is served by the same verbs, each of
/// which names the views it serves; a verb the view does not offer is
/// refused with [`ServerError::NotServed`] before admission, so it takes
/// no permit and counts no operation.
pub struct Handle {
    sess: Session,
    entry: Arc<FileEntry>,
    view: View,
    cursor: Cursor,
}

impl Handle {
    /// The view this handle was opened as.
    pub fn view(&self) -> View {
        self.view
    }

    /// The organization of the file this handle opened.
    pub fn organization(&self) -> Organization {
        self.entry.pfile.organization()
    }

    /// Fixed record size in bytes.
    pub fn record_size(&self) -> usize {
        self.entry.pfile.record_size()
    }

    /// Records per file block: a block verb moves this many records.
    pub fn records_per_block(&self) -> usize {
        self.entry.pfile.records_per_block()
    }

    /// Records in the file: a point-in-time value, which concurrent
    /// writers may have moved by the time the caller acts on it.
    pub fn len_records(&self) -> u64 {
        self.entry.pfile.len_records()
    }

    /// The global record range `[start, end)` this handle may touch: the
    /// claimed partition's, or `[0, len_records)` for every other view.
    pub fn range(&self) -> (u64, u64) {
        match (&self.cursor, self.view) {
            (Cursor::Proc(v), View::Partition(_)) => v.range(),
            _ => (0, self.len_records()),
        }
    }

    fn not_served(&self) -> ServerError {
        ServerError::NotServed { view: self.view }
    }

    /// Refuse record `r` outside a process view before admission, with
    /// the view's own refusal.
    fn inside(&self, r: u64) -> Result<()> {
        match &self.cursor {
            Cursor::Proc(v) => Ok(v.inside(r)?),
            _ => Ok(()),
        }
    }

    /// Read the view's next record: the file's (S), the shared cursor's
    /// (SS), the partition's (PS/PDA) or the slot's strided sequence
    /// (IS). Returns the record's global index, or `None` at the end.
    pub fn read_next(&mut self, out: &mut [u8]) -> Result<Option<u64>> {
        let sess = &self.sess;
        match &mut self.cursor {
            Cursor::Seq(s) => sess.run(|| {
                let r = s.0.position();
                Ok(s.0.read_record(out)?.then_some(r))
            }),
            Cursor::Ss(reader, _) => sess.run(|| Ok(reader.read_next(out)?)),
            Cursor::Proc(v) => sess.run(|| Ok(v.read_next(out)?)),
            Cursor::Dir(_) => Err(self.not_served()),
        }
    }

    /// Write the view's next record and return its global index. On S
    /// the records are appended a window at a time and written behind
    /// the caller, so an error may be an earlier record's; call
    /// [`finish`](Handle::finish) to publish the final length (dropping
    /// the handle also flushes, best-effort). A full partition fails
    /// with the view's `CoreError::OutsideView` before admission — never
    /// a spill into the neighbour's blocks.
    pub fn write_next(&mut self, data: &[u8]) -> Result<u64> {
        if let Cursor::Proc(v) = &self.cursor {
            self.inside(v.next_record())?;
        }
        let (sess, entry) = (&self.sess, &self.entry);
        match &mut self.cursor {
            Cursor::Seq(s) => sess.run(|| {
                let w =
                    s.1.get_or_insert_with(|| GlobalWriter::append(entry.pfile.raw().clone()));
                let r = w.position();
                w.write_record(data)?;
                Ok(r)
            }),
            Cursor::Ss(_, writer) => sess.run(|| Ok(writer.write_next(data)?)),
            Cursor::Proc(v) => sess.run(|| Ok(v.write_next(data)?)),
            Cursor::Dir(_) => Err(self.not_served()),
        }
    }

    /// Read the view's next file block into `out`, which holds one file
    /// block, and return its first record's index and the records read:
    /// SS claims to the end of the block the shared cursor is in (the
    /// paper's self-scheduling by block), IS reads the slot's next
    /// block. Either is short where the file ends inside the block.
    /// `None` at the end.
    pub fn read_next_block(&mut self, out: &mut [u8]) -> Result<Option<(u64, usize)>> {
        match &mut self.cursor {
            Cursor::Ss(reader, _) => self.sess.run(|| Ok(reader.read_next_block(out)?)),
            cursor => {
                let v = process_view(cursor, self.view, false)?;
                self.sess.run(|| Ok(v.read_next_block(out)?))
            }
        }
    }

    /// Write the slot's next whole file block (IS); returns its first
    /// record's index.
    pub fn write_next_block(&mut self, data: &[u8]) -> Result<u64> {
        let v = process_view(&mut self.cursor, self.view, false)?;
        self.sess.run(|| Ok(v.write_next_block(data)?))
    }

    /// Publish the length written: S flushes its buffered appends, SS
    /// publishes every slot claimed so far (call it once all sessions'
    /// writers are done). Returns the file's length in records.
    pub fn finish(&mut self) -> Result<u64> {
        match &mut self.cursor {
            Cursor::Seq(s) => match s.1.take() {
                Some(w) => Ok(w.finish()?),
                None => Ok(self.entry.pfile.len_records()),
            },
            Cursor::Ss(_, writer) => Ok(writer.finish()?),
            _ => Err(self.not_served()),
        }
    }

    /// Rewind the read cursor (S, PS/PDA).
    pub fn rewind(&mut self) -> Result<()> {
        match &mut self.cursor {
            Cursor::Seq(s) => s.0.seek_record(0),
            cursor => process_view(cursor, self.view, true)?.rewind(),
        }
        Ok(())
    }

    /// Records claimed so far across all sessions of an SS file.
    pub fn claimed(&self) -> Result<u64> {
        match &self.cursor {
            Cursor::Ss(reader, _) => Ok(reader.claimed()),
            _ => Err(self.not_served()),
        }
    }

    /// Read the record at global index `r`: GDA, and PS/PDA inside the
    /// claimed partition (the view's `CoreError::OutsideView` outside
    /// it, refused before admission).
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        match (&self.cursor, self.view) {
            (Cursor::Proc(v), View::Partition(_)) => {
                self.inside(r)?;
                self.sess.run(|| Ok(v.read_record(r, out)?))
            }
            (Cursor::Dir(d), _) => d.read_record(r, out),
            _ => Err(self.not_served()),
        }
    }

    /// Write the record at global index `r`: GDA (under the record's
    /// range lock, see [`DirectClient::write_record`]), and PS/PDA
    /// inside the claimed partition.
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        match (&self.cursor, self.view) {
            (Cursor::Proc(v), View::Partition(_)) => {
                self.inside(r)?;
                self.sess.run(|| Ok(v.write_record(r, data)?))
            }
            (Cursor::Dir(d), _) => d.write_record(r, data),
            _ => Err(self.not_served()),
        }
    }

    /// The GDA client behind a [`View::Direct`] handle: its range locks,
    /// locked writes, read-modify-write and length are this view's verbs.
    pub fn direct(&self) -> Result<&DirectClient> {
        match &self.cursor {
            Cursor::Dir(d) => Ok(d),
            _ => Err(self.not_served()),
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        // Buffered appends are flushed, best-effort.
        if self.view == View::Sequential {
            let _ = self.finish();
        }
        // The views that take no claim are never in the table.
        self.entry.claims.lock().remove(&self.view);
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
}

impl DirectClient {
    fn new(sess: &Session, entry: Arc<FileEntry>) -> Result<DirectClient> {
        Ok(DirectClient {
            sess: sess.clone(),
            handle: entry.pfile.direct_handle()?,
            entry,
        })
    }

    /// Records currently in the file.
    pub fn len_records(&self) -> u64 {
        self.handle.len_records()
    }

    /// Read record `r`.
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        self.sess.run(|| Ok(self.handle.read_record(r, out)?))
    }

    /// Write record `r` under a byte-range lock (extends the file).
    ///
    /// On a volume with a write-back cache tier the written span is
    /// flushed to the devices before the range lock releases, so
    /// cross-session readers keep the uncached durability semantics.
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        let (lo, hi) = self.entry.byte_range(r, 1)?;
        self.sess.run(|| {
            let _g = self.entry.ranges.acquire(lo, hi);
            self.handle.write_record(r, data)?;
            self.entry.flush_span(lo, hi)
        })
    }

    /// Atomically read-modify-write record `r`: the byte-range lock is
    /// held across the read, `f`, and the write-back, so concurrent
    /// updates of the same record never lose increments. Extends the
    /// file with a zeroed record when `r` is past the end.
    pub fn update(&self, r: u64, f: impl FnOnce(&mut [u8])) -> Result<()> {
        let (lo, hi) = self.entry.byte_range(r, 1)?;
        self.sess.run(|| {
            let _g = self.entry.ranges.acquire(lo, hi);
            let mut buf = vec![0u8; self.entry.pfile.record_size()];
            if r < self.handle.len_records() {
                self.handle.read_record(r, &mut buf)?;
            }
            f(&mut buf);
            self.handle.write_record(r, &buf)?;
            self.entry.flush_span(lo, hi)
        })
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
        let (lo, hi) = self.entry.byte_range(r_lo, r_hi - r_lo)?;
        let ticket = self.entry.ranges.acquire_ticket(lo, hi);
        Ok(LockedRange {
            entry: Arc::clone(&self.entry),
            ticket,
            lo,
            hi,
        })
    }

    /// Write record `r` under an explicitly held range lock. The lock
    /// must have been taken on this client's file and cover the record's
    /// bytes ([`ServerError::RangeNotLocked`] otherwise); durability is
    /// deferred to [`unlock`](DirectClient::unlock), which flushes the
    /// whole locked span before the lock releases — the same
    /// durable-at-unlock contract as
    /// [`write_record`](DirectClient::write_record).
    pub fn write_record_locked(&self, lock: &LockedRange, r: u64, data: &[u8]) -> Result<()> {
        let (lo, hi) = self.entry.byte_range(r, 1)?;
        if !Arc::ptr_eq(&lock.entry, &self.entry) || lo < lock.lo || hi > lock.hi {
            return Err(ServerError::RangeNotLocked { lo, hi });
        }
        self.sess.run(|| Ok(self.handle.write_record(r, data)?))
    }

    /// Release an explicit range lock, flushing the locked span of the
    /// file it was taken on out of any write-back cache tier *before*
    /// the lock releases, so the next lock holder (or raw-media reader)
    /// sees every locked write.
    pub fn unlock(&self, lock: LockedRange) -> Result<()> {
        let r = lock.entry.flush_span(lock.lo, lock.hi);
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
