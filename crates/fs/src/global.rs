//! The global view: a parallel file as a conventional sequential file.
//!
//! "The global view is the logical structure of the file perceived as a
//! unit … typically held by operating system utilities and other
//! sequential programs" (§2). [`GlobalReader`] and [`GlobalWriter`] present
//! any parallel file — whatever its internal organization — as an ordinary
//! sequential stream of records. It is also the internal view of a type-S
//! file: "since the order of accesses is predictable, reading ahead and
//! deferred writing can be used to overlap I/O operations with
//! computation" (§4).
//!
//! Every stream here — record or byte, reading or writing, and both ends
//! of [`copy_global`] — is one [`Window`]: two multi-block buffers, one
//! the caller drains or fills while the stream's worker thread (the
//! paper's "dedicated I/O processor", for this stream) runs one whole
//! [`RawFile::read_span`] or [`RawFile::write_span`] on the other: one
//! vectored request per device, retried, hedged, reconstructed, stripe
//! locked, cached and steered by device health like any other span. The
//! call begins and ends inside the worker, so a stream parked between
//! windows holds nothing a rebuild's `quiesce_io` waits for.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use pario_layout::LayoutSpec;

use crate::error::{FsError, Result};
use crate::file::RawFile;

/// Blocks per window: a sequential scan costs `1 / WINDOW_BLOCKS`
/// requests per device block instead of one.
const WINDOW_BLOCKS: usize = 32;

/// One window's worth of work for a stream's worker: the buffer, where
/// in the file it goes, and — on the way back — how the span call ended.
struct Transfer {
    buf: Vec<u8>,
    start: u64,
    len: usize,
    res: Result<()>,
}

/// A stream's I/O thread. It runs one span call per [`Transfer`] sent
/// and sends it back; it leaves when the stream hangs up, or by a panic
/// in a span call — which the stream's next `lend` or `reclaim` makes
/// the caller's, as it would have been had the caller made that call.
struct Worker {
    jobs: Sender<Transfer>,
    done: Receiver<Transfer>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// `None` when the system has no thread to give; the stream then
    /// stays synchronous.
    fn spawn(mut span: impl FnMut(&mut Transfer) -> Result<()> + Send + 'static) -> Option<Worker> {
        let (jobs, todo) = channel::<Transfer>();
        let (finished, done) = channel();
        let thread = std::thread::Builder::new()
            .name("pario-fs-stream".into())
            .spawn(move || {
                for mut t in todo {
                    t.res = span(&mut t);
                    if finished.send(t).is_err() {
                        return;
                    }
                }
            })
            .ok()?;
        Some(Worker { jobs, done, thread })
    }
}

/// A sequential stream's window onto `file`, reading or writing (never
/// both): the bytes `[start, start + len)` in `buf`, and at most one
/// more window with the worker.
///
/// A reader starts its worker only once a refill continues the window
/// before it, a writer once it has filled a window: a stream that is
/// opened and never streams has no thread.
struct Window {
    file: RawFile,
    /// Bytes in a window, whole blocks.
    size: usize,
    /// The window the caller drains or fills.
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    start: u64,
    /// Bytes of `buf` read in (all of them below the length the file
    /// published when they were read) or filled and not yet written.
    len: usize,
    /// The other buffer, unless the worker has it. Allocated with the
    /// worker.
    spare: Vec<u8>,
    worker: Option<Worker>,
    /// The window the worker has: where it starts and how much of it
    /// the stream will own.
    in_flight: Option<(u64, usize)>,
    /// The first error. The stream is dead from then on: every later
    /// call returns it again.
    dead: Option<FsError>,
}

impl Window {
    fn new(file: RawFile, start: u64, blocks: usize) -> Window {
        let size = file.block_size() * blocks;
        Window {
            file,
            size,
            buf: vec![0u8; size],
            start,
            len: 0,
            spare: Vec::new(),
            worker: None,
            in_flight: None,
            dead: None,
        }
    }

    /// A reading window, empty.
    fn reader(file: RawFile) -> Window {
        Window::new(file, 0, WINDOW_BLOCKS)
    }

    /// A writing window at the end of `file`, cut to whole stripes so
    /// that every full window of a parity file is written without a
    /// read.
    fn appender(file: RawFile) -> Window {
        let stripe = match file.meta_snapshot().layout {
            LayoutSpec::Parity { data_devices, .. } => data_devices,
            _ => 1,
        };
        let end = file.len_records() * file.record_size() as u64;
        Window::new(file, end, (WINDOW_BLOCKS / stripe).max(1) * stripe)
    }

    /// Run `op` unless the stream is dead; an error kills it.
    fn alive<T>(&mut self, op: impl FnOnce(&mut Window) -> Result<T>) -> Result<T> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        op(self).inspect_err(|e| self.dead = Some(e.clone()))
    }

    /// Whether the stream has a worker, started now (to run `span` on
    /// the file) if this is the first call. `false` if there is no
    /// thread to be had.
    fn staffed(&mut self, span: fn(&RawFile, &mut Transfer) -> Result<()>) -> bool {
        if self.worker.is_none() {
            let file = self.file.clone();
            if let Some(worker) = Worker::spawn(move |t| span(&file, t)) {
                self.worker = Some(worker);
                self.spare = vec![0u8; self.size];
            }
        }
        self.worker.is_some()
    }

    /// Give the spare buffer to the worker for the `len` bytes at
    /// `start`, of which the stream will own `owned`.
    fn lend(&mut self, start: u64, len: usize, owned: usize) {
        let (buf, res) = (std::mem::take(&mut self.spare), Ok(()));
        // invariant: callers ask `staffed` first.
        let worker = self.worker.as_ref().expect("a staffed stream");
        let sent = worker.jobs.send(Transfer {
            buf,
            start,
            len,
            res,
        });
        // invariant: hung up on only by drop (see `Worker`).
        sent.expect("the stream's worker panicked");
        self.in_flight = Some((start, owned));
    }

    /// Wait for the oldest window with the worker and take it back.
    fn reclaim(&mut self) -> Transfer {
        // invariant: callers have seen `in_flight` set, which `lend` does.
        let worker = self.worker.as_ref().expect("a worker in flight");
        // invariant: it answers every transfer sent (see `Worker`).
        worker.done.recv().expect("the stream's worker panicked")
    }

    /// After a hand-off, before the caller goes back to work that may
    /// well be computing: the worker and the device threads its span
    /// call wakes go first. Else they wait out the caller's time slice —
    /// milliseconds, a window's device time and more — before the
    /// transfer starts: `read_ahead_overlaps_io_with_compute` takes 0.57
    /// of its synchronous loop's time with this yield and 0.96 without,
    /// on one pinned CPU and on two (medians of ten; Linux 6.18).
    fn resume(&self) {
        if self.in_flight.is_some() {
            std::thread::yield_now();
        }
    }

    /// File offset just past the window's bytes: where a reader's next
    /// window starts, and where a writer has got to.
    fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    // ------------------------------------------------------------------
    // Reading
    // ------------------------------------------------------------------

    /// What a window read at block-aligned `start` covers: the bytes to
    /// read (whole blocks) and how many of them lie below the file's
    /// published length. Past it is allocated run-ahead that an append
    /// through another handle may fill at any time: no window owns that.
    fn extent(&self, start: u64) -> (usize, usize) {
        let bs = self.file.block_size();
        let published = self.file.len_records() * self.file.record_size() as u64;
        let owned = (self.size as u64).min(published.saturating_sub(start)) as usize;
        (owned.div_ceil(bs) * bs, owned)
    }

    /// Have the window at `next` read ahead into the spare buffer, if
    /// the file has published anything there.
    fn read_ahead(&mut self, next: u64) {
        let (whole, owned) = self.extent(next);
        let aligned = next.is_multiple_of(self.file.block_size() as u64);
        if aligned
            && owned > 0
            && self.staffed(|file, t| file.read_span(t.start, &mut t.buf[..t.len]))
        {
            self.lend(next, whole, owned);
        }
    }

    /// Make the window hold `byte` (below the published length): the
    /// window read ahead if it is that one, else a read here and now.
    /// Either way, once one window follows another the next is read
    /// ahead.
    fn refill(&mut self, byte: u64) -> Result<()> {
        let bs = self.file.block_size() as u64;
        let start = byte / bs * bs;
        let continues = self.len > 0 && start == self.end() / bs * bs;
        match self.in_flight.take() {
            Some((ahead, owned)) if (ahead..ahead + owned as u64).contains(&byte) => {
                // The drained buffer goes out for the window after
                // before the wait for this one, so that a worker still
                // busy goes from one to the next without a pause.
                std::mem::swap(&mut self.buf, &mut self.spare);
                self.read_ahead(ahead + owned as u64);
                let t = self.reclaim();
                // The error of a window read ahead surfaces when, and
                // only if, the caller gets to that window.
                t.res?;
                (self.buf, self.start, self.len) = (t.buf, ahead, owned);
            }
            stale => {
                // A seek or an append made the window read ahead
                // useless, whatever became of it.
                if stale.is_some() {
                    self.spare = self.reclaim().buf;
                }
                let (whole, owned) = self.extent(start);
                if owned == 0 {
                    return Err(FsError::OutOfBounds {
                        record: byte / self.file.record_size() as u64,
                        len: self.file.len_records(),
                    });
                }
                self.file.read_span(start, &mut self.buf[..whole])?;
                (self.start, self.len) = (start, owned);
                if continues {
                    self.read_ahead(self.end());
                }
            }
        }
        self.resume();
        Ok(())
    }

    /// The window's bytes from `byte` (below the published length) to
    /// its end — at least one.
    fn bytes_at(&mut self, byte: u64) -> Result<&[u8]> {
        self.alive(|w| {
            if !(w.start..w.end()).contains(&byte) {
                w.refill(byte)?;
            }
            Ok(())
        })?;
        Ok(&self.buf[(byte - self.start) as usize..self.len])
    }

    /// Fill `out` from the stream at `byte`; all of it must lie below
    /// the published length.
    fn read(&mut self, mut byte: u64, mut out: &mut [u8]) -> Result<()> {
        while !out.is_empty() {
            let src = self.bytes_at(byte)?;
            let take = src.len().min(out.len());
            out[..take].copy_from_slice(&src[..take]);
            out = &mut out[take..];
            byte += take as u64;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writing
    // ------------------------------------------------------------------

    /// Bytes the window takes before it must be written: up to the next
    /// multiple of the window size in the file, so that a stream that
    /// starts anywhere writes whole aligned windows from its second on.
    fn room(&self) -> usize {
        self.size - (self.start % self.size as u64) as usize - self.len
    }

    /// Write out what the window holds: a window filled to its boundary
    /// behind the caller's back, the ragged end of a stream here and
    /// now. Either way waits for the window before it, whose error is
    /// this call's — after handing over a full one, as `refill` does.
    fn flush(&mut self) -> Result<()> {
        let (start, len, full) = (self.start, self.len, self.room() == 0);
        (self.start, self.len) = (self.end(), 0);
        let before = self.in_flight.take();
        if full && self.staffed(|file, t| file.write_span(t.start, &t.buf[..t.len])) {
            std::mem::swap(&mut self.buf, &mut self.spare);
            self.lend(start, len, len);
            if before.is_some() {
                let t = self.reclaim();
                t.res?;
                self.buf = t.buf;
            }
            self.resume();
            return Ok(());
        }
        if before.is_some() {
            let t = self.reclaim();
            self.spare = t.buf;
            t.res?;
        }
        self.file.write_span(start, &self.buf[..len])
    }

    /// Append `data` to the stream, writing out each window it fills.
    fn write(&mut self, mut data: &[u8]) -> Result<()> {
        self.alive(|w| {
            while !data.is_empty() {
                let take = w.room().min(data.len());
                w.buf[w.len..w.len + take].copy_from_slice(&data[..take]);
                w.len += take;
                data = &data[take..];
                if w.room() == 0 {
                    w.flush()?;
                }
            }
            Ok(())
        })
    }

    /// Wait for every write, write the tail and raise the file's length
    /// to the records the stream ends at; or return the first error of
    /// the stream's life.
    fn publish(&mut self) -> Result<u64> {
        self.alive(Window::flush)?;
        let records = self.end() / self.file.record_size() as u64;
        self.file.extend_len_records(records);
        Ok(records)
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        // Hung up on, the worker finishes the span call it is in and
        // leaves. Its panic, if any, has nowhere to go from a drop.
        if let Some(Worker { jobs, thread, .. }) = self.worker.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

/// Sequential record reader over the global view, reading ahead.
///
/// Reads a multi-block window at a time through the coalesced span
/// path, and from the second consecutive window on has the next one
/// read while the caller works on this one.
pub struct GlobalReader {
    win: Window,
    pos: u64,
}

impl GlobalReader {
    /// Start reading `file` from record 0.
    pub fn new(file: RawFile) -> GlobalReader {
        GlobalReader {
            win: Window::reader(file),
            pos: 0,
        }
    }

    /// Current record position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Reposition to record `r`.
    pub fn seek_record(&mut self, r: u64) {
        self.pos = r;
    }

    /// Read the record at the current position into `out`; advances.
    /// Returns `false` (and leaves `out` untouched) at end of file. A
    /// failed read leaves the reader dead: every later call fails alike.
    pub fn read_record(&mut self, out: &mut [u8]) -> Result<bool> {
        let file = &self.win.file;
        assert_eq!(out.len(), file.record_size(), "record buffer size");
        if self.pos >= file.len_records() {
            return Ok(false);
        }
        let byte = self.pos * file.record_size() as u64;
        self.win.read(byte, out)?;
        self.pos += 1;
        Ok(true)
    }

    /// Read every remaining record, calling `f(record_index, bytes)`.
    pub fn for_each(&mut self, mut f: impl FnMut(u64, &[u8])) -> Result<u64> {
        let mut rec = vec![0u8; self.win.file.record_size()];
        let mut n = 0;
        loop {
            let idx = self.pos;
            if !self.read_record(&mut rec)? {
                return Ok(n);
            }
            f(idx, &rec);
            n += 1;
        }
    }

    /// The underlying file.
    pub fn file(&self) -> &RawFile {
        &self.win.file
    }
}

/// Sequential record appender over the global view, writing behind.
///
/// Records accumulate in a multi-block window — whole stripes of a
/// parity file — that is written as one span while the caller fills the
/// next; [`finish`](GlobalWriter::finish) writes the tail, reports the
/// first failed write of the stream's life, and publishes the length.
pub struct GlobalWriter {
    win: Window,
}

impl GlobalWriter {
    /// Append to `file` starting at its current length.
    pub fn append(file: RawFile) -> GlobalWriter {
        GlobalWriter {
            win: Window::appender(file),
        }
    }

    /// Overwrite `file` from record 0 (length resets at finish).
    pub fn truncate(file: RawFile) -> Result<GlobalWriter> {
        file.set_len_records(0)?;
        Ok(GlobalWriter::append(file))
    }

    /// The next record index: the file's length once this writer has
    /// finished.
    pub fn position(&self) -> u64 {
        self.win.end() / self.win.file.record_size() as u64
    }

    /// Append one record. An error may be that of an earlier record's
    /// deferred write; the writer is dead after it.
    pub fn write_record(&mut self, data: &[u8]) -> Result<()> {
        assert_eq!(
            data.len(),
            self.win.file.record_size(),
            "record buffer size"
        );
        self.win.write(data)
    }

    /// Wait for every deferred write, write the tail and publish the
    /// file length.
    pub fn finish(mut self) -> Result<u64> {
        self.win.publish()
    }
}

/// The global view as a standard byte stream: implements
/// [`std::io::Read`] and [`std::io::Seek`], so any conventional Rust
/// code — compression, parsing, `std::io::copy` — consumes a parallel
/// file without knowing it is one. This is the paper's "standard
/// sequential software such as editors, graphics utilities, print
/// spoolers" interface, in Rust idiom.
pub struct ByteReader {
    win: Window,
    pos: u64,
}

impl ByteReader {
    /// Read the file's logical bytes (`len_records * record_size`).
    pub fn new(file: RawFile) -> ByteReader {
        ByteReader {
            win: Window::reader(file),
            pos: 0,
        }
    }

    /// Total logical bytes.
    pub fn len_bytes(&self) -> u64 {
        self.win.file.len_records() * self.win.file.record_size() as u64
    }
}

impl std::io::Read for ByteReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let left = self.len_bytes().saturating_sub(self.pos);
        let take = (out.len() as u64).min(left) as usize;
        self.win
            .read(self.pos, &mut out[..take])
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        self.pos += take as u64;
        Ok(take)
    }
}

impl std::io::Seek for ByteReader {
    fn seek(&mut self, from: std::io::SeekFrom) -> std::io::Result<u64> {
        use std::io::SeekFrom;
        let total = self.len_bytes() as i64;
        let target = match from {
            SeekFrom::Start(o) => o as i64,
            SeekFrom::End(d) => total + d,
            SeekFrom::Current(d) => self.pos as i64 + d,
        };
        if target < 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "seek before start",
            ));
        }
        self.pos = target as u64;
        Ok(self.pos)
    }
}

/// The appending global view as a standard byte sink: implements
/// [`std::io::Write`]. Bytes must form whole records by the time
/// [`finish`](ByteWriter::finish) is called; a ragged tail is an error
/// (the paper assumes fixed-size records).
pub struct ByteWriter {
    win: Window,
}

impl ByteWriter {
    /// Append bytes to `file`, packing them into records.
    pub fn append(file: RawFile) -> ByteWriter {
        ByteWriter {
            win: Window::appender(file),
        }
    }

    /// Write what is buffered and publish the new length. Fails, and
    /// publishes nothing, on a partial trailing record.
    pub fn finish(mut self) -> Result<u64> {
        let rs = self.win.file.record_size() as u64;
        let ragged = self.win.end() % rs;
        if ragged != 0 {
            return Err(FsError::BadSpec(format!(
                "byte stream ended mid-record ({ragged} of {rs} bytes)"
            )));
        }
        self.win.publish()
    }
}

impl std::io::Write for ByteWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.win
            .write(data)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Copy `src` into `dst` through the global views.
///
/// The two files may have entirely different layouts and organizations;
/// only record sizes must match. This is the paper's "conversion utility"
/// escape hatch for internal-view mismatches (§5), and the transparent
/// standard-file pathway for sequential tools.
///
/// The copy is a reading stream drained into a writing one: each side
/// moves a window per span call, at most one vectored request per device,
/// and `src` is read ahead while `dst` is written behind.
pub fn copy_global(src: &RawFile, dst: &RawFile) -> Result<u64> {
    if src.record_size() != dst.record_size() {
        return Err(FsError::BadSpec(format!(
            "record sizes differ: {} vs {}",
            src.record_size(),
            dst.record_size()
        )));
    }
    let total = src.len_records() * src.record_size() as u64;
    dst.set_len_records(0)?;
    let mut from = Window::reader(src.clone());
    let mut to = Window::appender(dst.clone());
    while to.end() < total {
        let chunk = from.bytes_at(to.end())?;
        let take = chunk.len().min((total - to.end()) as usize);
        to.write(&chunk[..take])?;
    }
    to.publish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{FileSpec, Volume, VolumeConfig};
    use crate::VolumeCacheConfig;
    use pario_disk::{DeviceRef, MemDisk};
    use std::io::{Read, Seek, SeekFrom, Write};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One window of the 256-byte-block volumes here, in bytes.
    const WINDOW: usize = 256 * WINDOW_BLOCKS;

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 256,
            block_size: 256,
        })
        .unwrap()
    }

    /// Four devices that sleep `delay` per request.
    fn slow_vol(delay: Duration) -> Volume {
        let devices = (0..4)
            .map(|_| Arc::new(MemDisk::new(512, 256).with_delay(delay)) as DeviceRef)
            .collect();
        Volume::new(devices).unwrap()
    }

    fn rec(i: u64, size: usize) -> Vec<u8> {
        (0..size).map(|j| (i as usize * 7 + j) as u8).collect()
    }

    fn striped(devices: usize) -> LayoutSpec {
        LayoutSpec::Striped { devices, unit: 1 }
    }

    const ROTATED_PARITY: LayoutSpec = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };

    /// An empty file of `size`-byte records, four to a file block.
    fn empty(v: &Volume, name: &str, size: usize, layout: LayoutSpec) -> RawFile {
        v.create_file(FileSpec::new(name, size, 4, layout)).unwrap()
    }

    /// A file of `n` `size`-byte records, written as one span.
    fn filled(v: &Volume, name: &str, size: usize, layout: LayoutSpec, n: u64) -> RawFile {
        let f = empty(v, name, size, layout);
        let data: Vec<u8> = (0..n).flat_map(|i| rec(i, size)).collect();
        f.write_span(0, &data).unwrap();
        f.set_len_records(n).unwrap();
        f
    }

    /// Device requests `(reads, writes)` on the volume so far.
    fn requests(v: &Volume) -> (u64, u64) {
        (0..v.num_devices())
            .map(|d| v.device(d).counters())
            .fold((0, 0), |(r, w), c| (r + c.reads, w + c.writes))
    }

    fn spin(d: Duration) {
        let end = Instant::now() + d;
        while Instant::now() < end {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn records_come_back_in_order_across_many_windows() {
        let v = vol();
        // 100-byte records straddle blocks and windows; 500 of them are
        // six windows and a bit.
        let f = empty(&v, "o", 100, striped(4));
        let mut w = GlobalWriter::append(f.clone());
        for i in 0..500u64 {
            assert_eq!(w.position(), i);
            w.write_record(&rec(i, 100)).unwrap();
        }
        assert!(w.win.worker.is_some(), "full windows are written behind");
        assert_eq!(w.finish().unwrap(), 500);
        assert_eq!(f.len_records(), 500);

        let mut r = GlobalReader::new(f.clone());
        let mut seen = 0u64;
        let n = r.for_each(|idx, bytes| {
            assert_eq!(idx, seen);
            assert_eq!(bytes, rec(idx, 100).as_slice(), "record {idx}");
            seen += 1;
        });
        assert_eq!((n.unwrap(), seen), (500, 500));
        assert!(r.win.worker.is_some(), "a scan reads ahead");
        // EOF is sticky.
        assert!(!r.read_record(&mut [0u8; 100]).unwrap());

        let mut all = Vec::new();
        ByteReader::new(f).read_to_end(&mut all).unwrap();
        let expect: Vec<u8> = (0..500u64).flat_map(|i| rec(i, 100)).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn copy_between_different_layouts() {
        let v = vol();
        let bounds = LayoutSpec::Partitioned {
            bounds: vec![0, 8, 16],
            devices: 2,
        };
        let src = v
            .create_file(FileSpec::new("ps", 64, 4, bounds).fixed_capacity(64))
            .unwrap();
        for i in 0..64u64 {
            src.write_record(i, &rec(i, 64)).unwrap();
        }
        let dst = empty(&v, "is", 64, striped(4));
        assert_eq!(copy_global(&src, &dst).unwrap(), 64);
        let mut buf = vec![0u8; 64];
        for i in 0..64u64 {
            dst.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 64), "record {i}");
        }
        let other = empty(&v, "b", 128, striped(1));
        assert!(matches!(
            copy_global(&src, &other),
            Err(FsError::BadSpec(_))
        ));
    }

    #[test]
    fn byte_reader_is_a_standard_stream() {
        let v = vol();
        let mut r = ByteReader::new(filled(&v, "b", 100, striped(4), 20));
        assert_eq!(r.len_bytes(), 2000);
        // std::io::copy drains the whole logical stream.
        let mut all = Vec::new();
        std::io::copy(&mut r, &mut all).unwrap();
        let expect: Vec<u8> = (0..20u64).flat_map(|i| rec(i, 100)).collect();
        assert_eq!(all, expect);
        // Seek and partial reads.
        r.seek(SeekFrom::Start(150)).unwrap();
        let mut b = [0u8; 10];
        r.read_exact(&mut b).unwrap();
        assert_eq!(&b, &rec(1, 100)[50..60]);
        r.seek(SeekFrom::End(-5)).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, &rec(19, 100)[95..]);
        assert!(r.seek(SeekFrom::Current(-100_000)).is_err());
    }

    #[test]
    fn byte_writer_packs_records_and_rejects_a_ragged_tail() {
        let v = vol();
        let f = empty(&v, "bw", 100, striped(2));
        let mut w = ByteWriter::append(f.clone());
        // Seven records' worth of bytes in awkward chunk sizes.
        let stream: Vec<u8> = (0..7u64).flat_map(|i| rec(i, 100)).collect();
        for chunk in stream.chunks(37) {
            w.write_all(chunk).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 7);
        let mut buf = vec![0u8; 100];
        for i in 0..7u64 {
            f.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 100));
        }
        let mut w = ByteWriter::append(f.clone());
        w.write_all(&[1u8; 150]).unwrap();
        assert!(matches!(w.finish(), Err(FsError::BadSpec(_))));
        assert_eq!(f.len_records(), 7);
    }

    /// A window holds only bytes below the length published when it was
    /// read: clamped to the allocation instead, it would keep the zeros
    /// of the run-ahead and serve records 10..15 from them.
    #[test]
    fn a_window_does_not_outlive_an_append() {
        let v = vol();
        let f = filled(&v, "a", 100, striped(4), 10);
        let mut r = GlobalReader::new(f.clone());
        let mut bytes = ByteReader::new(f.clone());
        let mut buf = vec![0u8; 100];
        assert!(r.read_record(&mut buf).unwrap());
        bytes.read_exact(&mut buf).unwrap();

        let mut w = GlobalWriter::append(f);
        for i in 10..16u64 {
            w.write_record(&rec(i, 100)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 16);
        for i in 1..16u64 {
            assert!(r.read_record(&mut buf).unwrap());
            assert_eq!(buf, rec(i, 100), "record {i}");
            bytes.read_exact(&mut buf).unwrap();
            assert_eq!(buf, rec(i, 100), "bytes of record {i}");
        }
        assert!(!r.read_record(&mut buf).unwrap());
        assert_eq!(bytes.read(&mut buf).unwrap(), 0);
    }

    /// Only the first flush carries the misalignment an append starts
    /// with; carried into every span it is two partial-block reads a
    /// block for the life of the writer.
    #[test]
    fn a_misaligned_append_realigns_at_the_first_window_boundary() {
        let v = vol();
        let f = filled(&v, "m", 100, striped(4), 33);
        let (reads, _) = requests(&v);
        let mut w = GlobalWriter::append(f.clone());
        // 64 blocks and a bit: 33 + 164 records end mid-block too.
        for i in 33..197u64 {
            w.write_record(&rec(i, 100)).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 197);
        let read = requests(&v).0 - reads;
        assert!(
            read <= 2,
            "the ragged head and the ragged tail: {read} reads"
        );
        let mut buf = vec![0u8; 100];
        for i in 0..197u64 {
            f.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, rec(i, 100), "record {i}");
        }
    }

    #[test]
    fn a_stream_that_never_streams_has_no_thread() {
        let v = vol();
        // Two windows, start to end: the second continues the first, but
        // there is no third to read ahead.
        let mut r = GlobalReader::new(filled(&v, "two", 256, striped(4), 64));
        assert_eq!(r.for_each(|_, _| {}).unwrap(), 64);
        assert!(r.win.worker.is_none());
        // Seeks, window to window but never onward.
        let f = filled(&v, "seek", 256, striped(4), 200);
        let mut r = GlobalReader::new(f.clone());
        let mut buf = vec![0u8; 256];
        for at in [170u64, 3, 100, 40, 199, 0, 130, 196] {
            r.seek_record(at);
            assert!(r.read_record(&mut buf).unwrap());
            assert_eq!(buf, rec(at, 256));
        }
        let rest = r.for_each(|idx, bytes| assert_eq!(bytes, rec(idx, 256).as_slice()));
        assert_eq!((rest.unwrap(), r.position()), (3, 200));
        assert!(r.win.worker.is_none());
        // Less than a window written.
        let mut w = GlobalWriter::append(f);
        for i in 200..220u64 {
            w.write_record(&rec(i, 256)).unwrap();
        }
        assert!(w.win.worker.is_none());
        assert_eq!(w.finish().unwrap(), 220);
        // Nothing at all.
        let f = empty(&v, "e", 64, striped(4));
        let created = requests(&v);
        assert_eq!(GlobalReader::new(f.clone()).for_each(|_, _| {}).unwrap(), 0);
        assert_eq!(ByteReader::new(f.clone()).read(&mut [0u8; 8]).unwrap(), 0);
        assert_eq!(GlobalWriter::append(f).finish().unwrap(), 0);
        assert_eq!(requests(&v), created);
    }

    #[test]
    fn a_failed_read_ahead_surfaces_at_its_record_and_the_reader_stays_dead() {
        let v = vol();
        let f = filled(&v, "r", 256, striped(4), 128);
        let (before, _) = requests(&v);
        let mut r = GlobalReader::new(f);
        let mut buf = vec![0u8; 256];
        for i in 0..33u64 {
            assert!(r.read_record(&mut buf).unwrap(), "record {i}");
        }
        // Windows one and two were read by this thread and the third is
        // with the worker: wait until it has all four devices' answers,
        // so that the failure can only meet the fourth.
        while requests(&v).0 - before < 12 {
            std::thread::yield_now();
        }
        v.device(2).fail();
        for i in 33..96u64 {
            assert!(r.read_record(&mut buf).unwrap(), "record {i}");
            assert_eq!(buf, rec(i, 256));
        }
        let failed = r.read_record(&mut buf).unwrap_err();
        assert!(matches!(failed, FsError::Disk(_)), "{failed:?}");
        assert_eq!(r.position(), 96);
        v.device(2).heal();
        r.seek_record(0);
        assert_eq!(r.read_record(&mut buf).unwrap_err(), failed);
    }

    #[test]
    fn a_failed_write_behind_surfaces_by_finish_and_the_writer_stays_dead() {
        let v = vol();
        let f = empty(&v, "w", 256, striped(4));
        f.ensure_capacity_records(128).unwrap();
        v.device(2).fail();
        let mut w = GlobalWriter::append(f.clone());
        // The first window fills and fails behind the writer's back.
        for i in 0..32u64 {
            w.write_record(&rec(i, 256)).unwrap();
        }
        assert!(matches!(w.finish(), Err(FsError::Disk(_))));
        assert_eq!(f.len_records(), 0, "nothing is published");

        // A writer that goes on meets the error no later than the end of
        // its next window, and at every call after that.
        let mut w = GlobalWriter::append(f);
        let failed = (0..64u64)
            .find_map(|i| w.write_record(&rec(i, 256)).err())
            .expect("the deferred error");
        v.device(2).heal();
        assert_eq!(w.write_record(&rec(0, 256)).unwrap_err(), failed);
        assert_eq!(w.finish().unwrap_err(), failed);
    }

    #[test]
    fn dropping_a_stream_with_a_window_in_flight_returns() {
        let v = slow_vol(Duration::from_millis(20));
        let f = filled(&v, "d", 256, striped(4), 128);
        let mut r = GlobalReader::new(f.clone());
        for _ in 0..33 {
            assert!(r.read_record(&mut [0u8; 256]).unwrap());
        }
        assert!(r.win.in_flight.is_some());
        drop(r);
        let mut w = GlobalWriter::truncate(f).unwrap();
        for i in 0..32u64 {
            w.write_record(&rec(i, 256)).unwrap();
        }
        assert!(w.win.in_flight.is_some());
        drop(w);
    }

    /// Devices that take 2 ms a request (slept, as a thread blocked on a
    /// real device would) and 2 ms of computing (spun) a window,
    /// twenty-four windows: a loop of `read_span`s takes the sum, ~96 ms;
    /// the stream hides each read but the first two behind the
    /// computing, ~52 ms. One CPU is enough, because a sleeping device
    /// does not occupy it — but the tests that run beside this one do,
    /// when they like, so the claim is held to the best of five tries.
    #[test]
    fn read_ahead_overlaps_io_with_compute() {
        let cost = Duration::from_millis(2);
        let v = slow_vol(cost);
        let f = filled(&v, "o", 256, striped(4), 24 * WINDOW_BLOCKS as u64);
        let attempt = || {
            let t0 = Instant::now();
            let mut buf = vec![0u8; WINDOW];
            for w in 0..24 {
                f.read_span((w * WINDOW) as u64, &mut buf).unwrap();
                spin(cost);
            }
            let synchronous = t0.elapsed();

            let t0 = Instant::now();
            let mut r = GlobalReader::new(f.clone());
            while r.read_record(&mut buf[..256]).unwrap() {
                if r.position().is_multiple_of(WINDOW_BLOCKS as u64) {
                    spin(cost);
                }
            }
            (t0.elapsed(), synchronous)
        };
        let mut tries = Vec::new();
        let overlapped = (0..5).any(|_| {
            let (stream, synchronous) = attempt();
            tries.push((stream, synchronous));
            stream < synchronous * 8 / 10
        });
        assert!(overlapped, "stream not clearly faster in any of {tries:?}");
    }

    /// The stream goes through the planner, so parity rows, mirror
    /// copies and cached frames are kept like any other span's — the
    /// redundant files with a data device lost mid-stream.
    #[test]
    fn redundant_layouts_and_cached_volumes_stream_like_any_other() {
        let shadowed = LayoutSpec::Shadowed(Box::new(striped(2)));
        for (layout, cached) in [
            (ROTATED_PARITY, false),
            (shadowed, false),
            (striped(4), true),
        ] {
            let ctx = format!("{layout:?}, cached: {cached}");
            let v = match cached {
                true => vol()
                    .enable_cache(VolumeCacheConfig::write_back(8))
                    .unwrap(),
                false => vol(),
            };
            let streamed = empty(&v, "streamed", 100, layout.clone());
            let reference = empty(&v, "reference", 100, layout);
            // A file does not grow onto a failed device: both have their
            // blocks before one is lost.
            streamed.ensure_capacity_records(400).unwrap();
            reference.ensure_capacity_records(400).unwrap();
            let mut w = GlobalWriter::append(streamed.clone());
            for i in 0..400u64 {
                if i == 250 && !cached {
                    v.device(1).fail();
                }
                w.write_record(&rec(i, 100)).unwrap();
                reference.write_record(i, &rec(i, 100)).unwrap();
            }
            assert_eq!(w.finish().unwrap(), 400, "{ctx}");

            let mut r = GlobalReader::new(streamed.clone());
            let (mut a, mut b) = (vec![0u8; 100], vec![0u8; 100]);
            for i in 0..400u64 {
                assert!(r.read_record(&mut a).unwrap(), "{ctx}: record {i}");
                reference.read_record(i, &mut b).unwrap();
                assert_eq!(a, rec(i, 100), "{ctx}: streamed record {i}");
                assert_eq!(a, b, "{ctx}: record {i} against the reference");
                streamed.read_record(i, &mut b).unwrap();
                assert_eq!(a, b, "{ctx}: record {i} read singly");
            }
            assert!(!r.read_record(&mut a).unwrap(), "{ctx}");
        }
    }

    /// 384 one-block records onto a preallocated file, counted at the
    /// devices. A block a span would be 768 reads and 768 writes on the
    /// parity file, 384 writes on the stripe.
    #[test]
    fn a_streamed_file_costs_a_request_per_device_per_window() {
        for (layout, most_writes) in [(ROTATED_PARITY, 96), (striped(4), 48)] {
            let v = vol();
            let spec = FileSpec::new("f", 256, 1, layout.clone()).initial_records(384);
            let f = v.create_file(spec).unwrap();
            let before = requests(&v);
            let mut w = GlobalWriter::truncate(f.clone()).unwrap();
            for i in 0..384u64 {
                w.write_record(&rec(i, 256)).unwrap();
            }
            assert_eq!(w.finish().unwrap(), 384);
            let (reads, writes) = requests(&v);
            // 384 blocks are whole stripes: nothing is read to write them.
            assert_eq!(reads - before.0, 0, "{layout:?}");
            let writes = writes - before.1;
            assert!(writes <= most_writes, "{layout:?}: {writes} writes");

            let n = GlobalReader::new(f)
                .for_each(|i, bytes| assert_eq!(bytes, rec(i, 256).as_slice()))
                .unwrap();
            assert_eq!(n, 384);
            // Read back: a request a window from every device, each for
            // its share (and the parity rows a parity file's runs read
            // through).
            for d in 0..4 {
                let c = v.device(d).counters();
                assert_eq!(c.reads, 12, "{layout:?}: device {d}");
                assert!(
                    (96..=128).contains(&c.blocks_read),
                    "{layout:?}: device {d}"
                );
            }
        }
    }

    /// A window read ahead is a span call that has returned: a reader
    /// left parked on it holds nothing `quiesce_io` waits for.
    #[test]
    fn an_idle_stream_does_not_stall_quiesce_io() {
        let v = vol();
        let f = filled(&v, "q", 256, ROTATED_PARITY, 128);
        let mut r = GlobalReader::new(f.clone());
        let mut buf = vec![0u8; 256];
        for _ in 0..33 {
            assert!(r.read_record(&mut buf).unwrap());
        }
        assert!(r.win.in_flight.is_some(), "the third window is read ahead");
        let (done, quiesced) = std::sync::mpsc::channel();
        let rebuild = std::thread::spawn(move || {
            f.quiesce_io();
            done.send(()).unwrap();
        });
        quiesced
            .recv_timeout(Duration::from_secs(10))
            .expect("quiesce_io waits on an idle reader");
        rebuild.join().unwrap();
        // The reader goes on where it was.
        assert!(r.read_record(&mut buf).unwrap());
        assert_eq!(buf, rec(33, 256));
    }

    /// Two streams at once on the same devices and their executors: one
    /// file read ahead while another is written behind.
    #[test]
    fn two_streams_share_a_volume() {
        let v = vol();
        let old = filled(&v, "old", 256, striped(4), 200);
        let new = empty(&v, "new", 256, striped(4));
        std::thread::scope(|s| {
            s.spawn(|| {
                let n = GlobalReader::new(old.clone())
                    .for_each(|i, bytes| assert_eq!(bytes, rec(i, 256).as_slice()));
                assert_eq!(n.unwrap(), 200);
            });
            s.spawn(|| {
                let mut w = GlobalWriter::append(new.clone());
                for i in 0..200u64 {
                    w.write_record(&rec(i + 1000, 256)).unwrap();
                }
                assert_eq!(w.finish().unwrap(), 200);
            });
        });
        let n = GlobalReader::new(new)
            .for_each(|i, bytes| assert_eq!(bytes, rec(i + 1000, 256).as_slice()));
        assert_eq!(n.unwrap(), 200);
        assert_eq!(v.executor_stats().in_flight, 0);
    }
}
