//! `RawFile`: block- and record-level access to one file.
//!
//! This is the layer every internal view is built on. It owns three jobs:
//!
//! 1. **Address translation** — logical block → layout → device slot →
//!    extent → absolute device block. `RawFile::plan` turns a span of
//!    whole blocks into merged per-device runs and
//!    `RawFile::run_segments` resolves a run to device extents; every
//!    transfer of more than one run, and the cache flush hooks, start
//!    from that one plan. A span that is one transfer
//!    (`RawFile::one_transfer`, which allocates nothing) skips the plan
//!    and moves in one call between the caller's buffer and the volume's
//!    data path — the cache tier where there is one, the device's
//!    executor handle otherwise; any other span is staged run by run, in
//!    buffers taken from and handed back to the volume's free list
//!    (`crate::staging`), so a warm span path allocates no block. A
//!    cached run stages exactly as an uncached one: the tier reads into
//!    the run's buffer and its ticket hands it back.
//! 2. **Redundancy maintenance** — one reader (`RawFile::read_blocks`)
//!    and one writer (`RawFile::write_blocks`) over whole blocks,
//!    whatever their count, each a submission and a wait
//!    (`SpanTicket`) that a sequential stream may keep apart. `RawFile::route` is the only place device
//!    health steers a read; recovery is one step per redundancy (the
//!    other copy of a shadowed run, `RawFile::reconstruct` for a parity
//!    column), and parity is maintained by `RawFile::submit_parity`.
//! 3. **Byte/record framing** — records are fixed-size spans of the
//!    logical byte stream and may straddle volume blocks; `read_span` /
//!    `write_span` handle the block arithmetic once, for everyone above,
//!    and hand their ragged ends to the same reader and writer as
//!    one-block spans, in one-block staging buffers. There is no other
//!    one-block entry: a block is a one-block span, and a device row is
//!    a one-run `read_device_rows` / `write_device_rows`.

use std::ops::Range;
use std::sync::atomic::Ordering;

use pario_check::AtomicU64;
use std::sync::Arc;

use pario_buffer::{CacheReadTicket, VolumeCache};
use pario_check::{LockLevel, Mutex};
use pario_disk::{DeviceRef, DiskError, Ticket};
use pario_layout::{Layout, LayoutSpec, MergedRun, ParityPlacement, ParityStriped, PhysBlock};

use crate::error::{FsError, Result};
use crate::health::HealthState;
use crate::locks::{Land, RangeGuard};
use crate::meta::FileMeta;
use crate::volume::{FileState, Volume};

/// How the file's layout protects (or doesn't) against device failure.
#[derive(Clone, Debug)]
enum Redundancy {
    /// No redundancy: a failed device loses its blocks.
    None,
    /// One parity block per stripe; any single failed device is
    /// reconstructible.
    Parity(ParityStriped),
    /// Every primary device has a shadow at `device + primaries`.
    Shadow {
        /// Number of primary devices.
        primaries: usize,
    },
}

/// An open file: cheap to clone and share across threads.
#[derive(Clone)]
pub struct RawFile {
    vol: Volume,
    pub(crate) state: Arc<FileState>,
    layout: Arc<dyn Layout>,
    redundancy: Redundancy,
    record_size: usize,
    records_per_block: usize,
    name: String,
    id: u64,
    /// Whether span transfers submit to the volume's I/O executor
    /// asynchronously (`true`) or wait out each request at submission
    /// (`false`, the serial reference path for experiments).
    span_parallel: bool,
}

/// XOR `src` into `dst` (equal lengths): the parity arithmetic.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// XOR a slot's `column` — its rows from row `from`, `bs` bytes each —
/// into `out`, which holds rows from row `at`, over the rows both
/// cover. A column that ends short adds nothing past its end: a partial
/// last stripe leaves some slots a row short, and the row a slot lacks
/// is zeros to the parity.
fn xor_rows(out: &mut [u8], at: u64, column: &[u8], from: u64, bs: usize) {
    let end = |start: u64, rows: &[u8]| start + (rows.len() / bs) as u64;
    let (lo, hi) = (at.max(from), end(at, out).min(end(from, column)));
    if lo < hi {
        let n = (hi - lo) as usize * bs;
        let (to, from) = ((lo - at) as usize * bs, (lo - from) as usize * bs);
        xor_into(&mut out[to..to + n], &column[from..from + n]);
    }
}

/// The rows `[first, end)` that `runs` cover, whichever slots they are
/// on: what a write or a reconstruction over them locks.
fn rows_of<'a>(runs: impl IntoIterator<Item = &'a MergedRun>) -> Range<u64> {
    let (mut first, mut end) = (u64::MAX, 0);
    for m in runs {
        first = first.min(m.dblock);
        end = end.max(m.dblock + m.count);
    }
    first..end
}

/// Whether a read error is recoverable through redundancy: fail-stop,
/// detected corruption, and transient faults that survived executor
/// retries all leave a live copy elsewhere.
fn recoverable(e: &DiskError) -> bool {
    e.is_transient()
        || matches!(
            e,
            DiskError::DeviceFailed { .. } | DiskError::Corruption { .. }
        )
}

/// RAII token for the rebuild quiesce protocol (see
/// [`RawFile::enter_io`]): an entry in the file's unlocked-read counter
/// of generation `gen`.
struct IoPhase<'a> {
    counter: &'a AtomicU64,
    gen: u64,
}

impl Drop for IoPhase<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The caller's side of a span: the buffer a read fills, or the bytes a
/// write lands.
pub(crate) enum Direct<'a> {
    Read(&'a mut [u8]),
    Write(&'a [u8]),
}

/// A span submitted to the I/O nodes and not yet waited
/// ([`RawFile::submit_read_blocks`], [`RawFile::submit_write_blocks`]).
/// A parked ticket holds nothing recovery waits for: a read left its
/// I/O phase at submission, and a write parks the ranges it holds with
/// its transfers ([`crate::RangeLocks`]), to be landed and released by
/// whoever needs them first — its wait, or anyone else. Dropped
/// unwaited, a read is abandoned, and a write stays parked until then.
#[must_use = "a span completes only when waited"]
pub(crate) enum SpanTicket {
    /// Complete at submission.
    Done(Result<()>),
    Read(Reads),
    Write(Writes),
}

/// A run's copy in flight: its slot and its segment tickets.
type Replica = (usize, Vec<RunTicket>);

/// A read's runs in flight, routed when the file's `io_gen` was `gen`:
/// each at its copy, with its next copy and its hedge; and the runs no
/// copy served.
#[derive(Default)]
pub(crate) struct Reads {
    first: u64,
    gen: u64,
    inflight: Vec<(MergedRun, Replica, Option<usize>, Option<Replica>)>,
    lost: Vec<(MergedRun, DiskError)>,
}

/// A write's transfer runs — a parity span's one a device, a shadowed
/// run then its copy — with their tickets. Landed, each ticket is its
/// outcome, ready.
type Transfers = Mutex<Vec<(MergedRun, Vec<RunTicket>)>>;

impl Land for Transfers {
    fn land(&self) {
        for t in self.lock().iter_mut().flat_map(|(_, t)| t) {
            let taken = std::mem::replace(t, RunTicket::Dev(Ticket::ready(Ok(Box::default()))));
            // Write tickets are executor tickets: no cache to wait through.
            *t = RunTicket::Dev(Ticket::ready(taken.wait(None)));
        }
    }
}

/// A write in flight: its transfers, and the tickets of the blocks and
/// rows it parked them on.
pub(crate) struct Writes {
    first: u64,
    held: [Option<u64>; 2],
    transfers: Arc<Transfers>,
}

impl SpanTicket {
    /// Complete the span with the bytes it was submitted with: settle
    /// each run on the health board, race a hedge, recover what no copy
    /// served, and scatter a read into `bytes`.
    pub(crate) fn wait(self, file: &RawFile, bytes: Direct<'_>) -> Result<()> {
        match (self, bytes) {
            (SpanTicket::Done(res), _) => res,
            (SpanTicket::Read(r), Direct::Read(buf)) => {
                let (first, gen) = (r.first, r.gen);
                let read = file.land_reads(r, buf);
                // Routed before a `quiesce_io`: a device may have turned
                // Rebuilding under the runs, its media stale.
                match file.state.io_gen.load(Ordering::SeqCst) == gen {
                    true => read,
                    false => file.read_blocks(first, buf),
                }
            }
            (SpanTicket::Write(w), Direct::Write(data)) => file.wait_writes(w, data),
            // invariant: a span is waited with the bytes it was submitted with.
            _ => unreachable!("a span waited with the other direction's bytes"),
        }
    }
}

/// One in-flight segment transfer of a merged run: an executor ticket
/// (already complete in serial mode, and for a write the cache tier
/// absorbed), or a cache read ticket when the tier fronts the executor.
enum RunTicket {
    Dev(Ticket<Box<[u8]>>),
    CacheRead(CacheReadTicket),
}

impl RunTicket {
    /// Complete the segment: a read yields its bytes, a write whatever
    /// buffer comes back (none from the tier). `cache` is the volume's
    /// tier, present whenever cache tickets exist.
    fn wait(self, cache: Option<&Arc<VolumeCache>>) -> pario_disk::Result<Box<[u8]>> {
        match self {
            RunTicket::Dev(t) => t.wait(),
            // invariant: cache tickets are only created with a cache.
            RunTicket::CacheRead(ct) => ct.wait(cache.expect("cache ticket implies cache")),
        }
    }
}

/// A write as submitted: the rows it holds, and its transfer runs.
type Submitted<'a> = (Option<RangeGuard<'a>>, Vec<(MergedRun, Vec<RunTicket>)>);

/// Where a read of one merged run goes — the answer of
/// [`RawFile::route`].
struct Route {
    /// The slots holding a copy worth reading, best first. A Rebuilding
    /// slot is never among them (its media reads stale); a Failed one
    /// comes last, as a probe: fail-stop answers at once, and a device
    /// healed behind the board's back keeps serving.
    copies: [Option<usize>; 2],
    /// Hedge: submit both copies at once and take the first success.
    race: bool,
    /// The board already routes around the run's home slot.
    down: bool,
}

impl RawFile {
    pub(crate) fn from_state(vol: Volume, state: Arc<FileState>) -> Result<RawFile> {
        let (layout_spec, record_size, records_per_block, name, id) = {
            let meta = state.meta.read();
            (
                meta.layout.clone(),
                meta.record_size,
                meta.records_per_block,
                meta.name.clone(),
                meta.id,
            )
        };
        let layout: Arc<dyn Layout> = Arc::from(layout_spec.build());
        let redundancy = match &layout_spec {
            LayoutSpec::Parity {
                data_devices,
                rotated,
            } => Redundancy::Parity(ParityStriped::new(
                *data_devices,
                if *rotated {
                    ParityPlacement::Rotated
                } else {
                    ParityPlacement::Dedicated
                },
            )),
            LayoutSpec::Shadowed(inner) => Redundancy::Shadow {
                primaries: inner.devices_required(),
            },
            _ => Redundancy::None,
        };
        Ok(RawFile {
            vol,
            state,
            layout,
            redundancy,
            record_size,
            records_per_block,
            name,
            id,
            span_parallel: true,
        })
    }

    /// Disable (or re-enable) asynchronous submission on this handle,
    /// keeping span coalescing: with it off, every executor request is
    /// waited out before the next is submitted, so devices are serviced
    /// one at a time. For experiments that isolate request-count savings
    /// from parallelism, and as the reference path in equivalence tests.
    pub fn with_span_parallel(mut self, on: bool) -> RawFile {
        self.span_parallel = on;
        self
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Unique id within the volume.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The organization tag recorded at creation.
    pub fn org(&self) -> String {
        self.state.meta.read().org.clone()
    }

    /// Record size in bytes.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Records per logical file block (the paper's block grain).
    pub fn records_per_block(&self) -> usize {
        self.records_per_block
    }

    /// Bytes per logical file block.
    pub fn file_block_bytes(&self) -> usize {
        self.record_size * self.records_per_block
    }

    /// Volume block size in bytes.
    pub fn block_size(&self) -> usize {
        self.vol.block_size()
    }

    /// Current length in records.
    pub fn len_records(&self) -> u64 {
        self.state.meta.read().len_records
    }

    /// The fixed capacity in records, if the file was created with one.
    pub fn fixed_capacity_records(&self) -> Option<u64> {
        self.state.meta.read().fixed_capacity_records
    }

    /// Whether the file's layout keeps a parity block per stripe.
    pub fn is_parity(&self) -> bool {
        matches!(self.redundancy, Redundancy::Parity(_))
    }

    /// Data blocks per parity stripe: a parity file's data devices, 1
    /// for any other file.
    pub(crate) fn stripe_width(&self) -> usize {
        match &self.redundancy {
            Redundancy::Parity(ps) => ps.stripe_width(),
            _ => 1,
        }
    }

    /// Allocated logical blocks. For a growable file the allocation runs
    /// ahead of the appends (`Volume::grow_file`): the count includes
    /// zero-filled blocks past the last one written — at most as many
    /// again as were written, and never more than that function's
    /// `RUN_AHEAD`. What has been written is bounded by
    /// [`RawFile::len_records`].
    pub fn nblocks(&self) -> u64 {
        self.state.meta.read().nblocks
    }

    /// The placement mapping.
    pub fn layout(&self) -> &dyn Layout {
        &*self.layout
    }

    /// The volume this file lives on.
    pub fn volume(&self) -> &Volume {
        &self.vol
    }

    /// A copy of the durable metadata.
    pub fn meta_snapshot(&self) -> FileMeta {
        self.state.meta.read().clone()
    }

    // ------------------------------------------------------------------
    // Length and capacity
    // ------------------------------------------------------------------

    /// Guarantee room for `records` records. Already allocated — every
    /// overwrite, and every append the run-ahead covers — is decided
    /// under one shared hold of the file's `meta` lock; only a request
    /// the allocation is short of enters `Volume::grow_file`, which
    /// checks again under the exclusive lock and may allocate past
    /// `records` (see there).
    pub fn ensure_capacity_records(&self, records: u64) -> Result<()> {
        let bytes = records.checked_mul(self.record_size as u64);
        let bytes = bytes.ok_or_else(|| self.unaddressable(records))?;
        let lblocks = bytes.div_ceil(self.block_size() as u64);
        {
            let meta = self.state.meta.read();
            if let Some(cap) = meta.fixed_capacity_records {
                if records > cap {
                    return Err(FsError::CapacityExceeded {
                        requested: records,
                        capacity: cap,
                    });
                }
            }
            if lblocks <= meta.nblocks {
                return Ok(());
            }
        }
        self.vol.grow_file(&self.state, lblocks)
    }

    /// Set the length in records, growing the allocation if needed.
    pub fn set_len_records(&self, records: u64) -> Result<()> {
        self.ensure_capacity_records(records)?;
        self.state.meta.write().len_records = records;
        Ok(())
    }

    /// Raise the length to at least `records` (never shrinks). A write
    /// below the length takes the `meta` lock shared only.
    pub fn extend_len_records(&self, records: u64) {
        if records <= self.state.meta.read().len_records {
            return;
        }
        let mut meta = self.state.meta.write();
        if records > meta.len_records {
            meta.len_records = records;
        }
    }

    // ------------------------------------------------------------------
    // Health and the rebuild quiesce protocol
    // ------------------------------------------------------------------

    /// Volume device backing layout slot `slot`.
    fn slot_vdev(&self, slot: usize) -> usize {
        self.state.meta.read().device_map[slot]
    }

    /// Health state of the device backing layout slot `slot`.
    fn slot_state(&self, slot: usize) -> HealthState {
        self.vol.health().state(self.slot_vdev(slot))
    }

    /// Enter the unlocked-read window: increments the current
    /// generation's in-flight counter *before* the caller samples device
    /// health, while [`RawFile::quiesce_io`] flips health first and
    /// bumps the generation second — Dekker's protocol, so a rebuild
    /// can wait out every read that might have seen the old state.
    /// Writes need no window: every write that maintains redundancy
    /// holds its rows ([`RawFile::lock_rows`]), whatever the board says.
    fn enter_io(&self) -> IoPhase<'_> {
        let gen = self.state.io_gen.load(Ordering::SeqCst);
        let counter = &self.state.io_active[(gen & 1) as usize];
        counter.fetch_add(1, Ordering::SeqCst);
        IoPhase { counter, gen }
    }

    /// Wait until every unlocked read that began before this call has
    /// drained — left its submission — and mark every read routed
    /// before it for a second reading at its wait. Recovery tooling
    /// calls this after flipping a device to Rebuilding so no straggler
    /// that sampled the old health state returns the device's bytes. A
    /// read that enters afterwards routes by the new state and counts
    /// against the next generation, so the wait terminates even under
    /// continuous foreground traffic.
    pub fn quiesce_io(&self) {
        let g = self.state.io_gen.fetch_add(1, Ordering::SeqCst);
        let old = &self.state.io_active[(g & 1) as usize];
        while old.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Feed an I/O error to the health board. A fail-stop report is
    /// re-checked against the media there, under the board mutex, so
    /// one raised before a repair cannot abort the rebuild that
    /// followed it (see [`crate::HealthBoard::note_error`]).
    fn note_io_error(&self, vdev: usize, e: &DiskError) {
        let still_failed = || self.vol.device(vdev).is_failed();
        self.vol.health().note_error(vdev, e, still_failed);
    }

    /// Report one device outcome on volume device `vdev` to the health
    /// board and pass it on.
    fn settle<T>(&self, vdev: usize, res: pario_disk::Result<T>) -> Result<T> {
        match &res {
            Ok(_) => self.vol.health().note_ok(vdev),
            Err(e) => self.note_io_error(vdev, e),
        }
        res.map_err(FsError::Disk)
    }

    /// Where a read of a run homed on layout slot `slot` goes, sampled
    /// inside the unlocked-I/O window — the only place device health
    /// steers a read, whatever the read's size:
    ///
    /// | home slot | live mirror | no live mirror |
    /// |-----------|-------------|----------------|
    /// | Healthy | home; the mirror if that fails | home; recover if that fails |
    /// | Suspect | hedge: both at once, first success wins | as Healthy |
    /// | Failed | mirror only; then probe home | probe home; recover if that fails |
    /// | Rebuilding | mirror only | recover without reading it |
    ///
    /// "Recover" is the other copy of a shadowed pair when it is merely
    /// Failed (a probe), the stripe's survivors for a parity file
    /// ([`RawFile::reconstruct`]), the error for an unprotected one.
    fn route(&self, slot: usize) -> Route {
        let state = self.slot_state(slot);
        let mirror = match &self.redundancy {
            Redundancy::Shadow { primaries } => Some(slot + primaries),
            _ => None,
        };
        let fresh = |s: usize| self.slot_state(s) != HealthState::Rebuilding;
        let live = mirror.filter(|&m| !self.slot_state(m).is_down());
        let copies = match (state, live) {
            (HealthState::Healthy | HealthState::Suspect, _) => {
                [Some(slot), mirror.filter(|&m| fresh(m))]
            }
            (HealthState::Failed, Some(m)) => [Some(m), Some(slot)],
            (HealthState::Rebuilding, Some(m)) => [Some(m), None],
            (HealthState::Failed, None) => [Some(slot), mirror.filter(|&m| fresh(m))],
            (HealthState::Rebuilding, None) => [mirror.filter(|&m| fresh(m)), None],
        };
        Route {
            copies,
            race: state == HealthState::Suspect && live.is_some(),
            down: state.is_down(),
        }
    }

    // ------------------------------------------------------------------
    // Recovery tooling
    // ------------------------------------------------------------------

    /// Read rows `[row, row + out.len() / bs)` of every slot in `slots`,
    /// as far as each holds them, in one wave ([`RawFile::read_wave`])
    /// and XOR them into `out` — the one place parity rows are folded
    /// together: a partial-stripe write's old blocks
    /// ([`RawFile::parity_reads`]), and the rows [`RawFile::recover_rows`]
    /// recomputes and [`RawFile::scrub_rows`] checks. One run per slot;
    /// `out` is touched only if all of them succeeded.
    fn xor_slots(
        &self,
        slots: impl IntoIterator<Item = usize>,
        row: u64,
        out: &mut [u8],
    ) -> Result<()> {
        let bs = self.block_size();
        let end = row + self.rows_in(out);
        let run = |slot: usize| {
            let held = end.min(self.device_blocks(slot)).saturating_sub(row);
            (held > 0).then_some((slot, row, held))
        };
        let columns = self.read_wave(slots.into_iter().filter_map(run));
        for column in columns.into_iter().collect::<Result<Vec<_>>>()? {
            xor_rows(out, row, &column, row, bs);
            self.vol.staging().give(column);
        }
        Ok(())
    }

    /// Whole rows in a row buffer.
    fn rows_in(&self, buf: &[u8]) -> u64 {
        (buf.len() / self.block_size()) as u64
    }

    /// Refuse rows `[row, row + n)` of layout slot `slot` unless the file
    /// holds them: a slot past the layout is `BadSpec`, rows past the
    /// slot's allocation are `OutOfBounds`.
    fn check_rows(&self, slot: usize, row: u64, n: u64) -> Result<()> {
        let slots = self.layout.devices();
        if slot >= slots {
            let msg = format!("{}: slot {slot} past the layout's {slots}", self.name);
            return Err(FsError::BadSpec(msg));
        }
        let held = self.device_blocks(slot);
        match row.checked_add(n) {
            Some(end) if end <= held => Ok(()),
            _ => Err(FsError::OutOfBounds {
                record: row.saturating_add(n),
                len: held,
            }),
        }
    }

    /// Fill `out`, whole blocks, with rows `[row, row + n)` of layout
    /// slot `slot` as the file's redundancy says they should be — the one
    /// recovery rule of the tooling that rebuilds and repairs slots:
    ///
    /// - a parity file: the XOR of every other slot's rows, as far as
    ///   each holds them, read in one wave;
    /// - a shadowed file: the partner slot's rows, for a primary and a
    ///   mirror slot alike;
    /// - an unprotected file: `BadSpec`.
    ///
    /// **Recovery tooling only**, like the rest of the row API: the
    /// media is read raw, whatever the board says, and the caller holds
    /// the rows ([`RawFile::lock_rows`]), so no write lands between the
    /// reads and the rows' use. A slot past the layout or rows past
    /// [`RawFile::device_blocks`] are refused.
    pub fn recover_rows(&self, slot: usize, row: u64, out: &mut [u8]) -> Result<()> {
        self.check_rows(slot, row, self.rows_in(out))?;
        match &self.redundancy {
            Redundancy::Parity(ps) => {
                out.fill(0);
                self.xor_slots((0..ps.devices()).filter(|&s| s != slot), row, out)
            }
            Redundancy::Shadow { primaries } => {
                let partner = (slot + primaries) % (2 * primaries);
                self.read_device_rows(partner, row, out)
            }
            Redundancy::None => Err(FsError::BadSpec(format!(
                "{}: no redundancy to recover slot {slot} from",
                self.name
            ))),
        }
    }

    /// The rows among `[row, row + n)` of a parity file whose members —
    /// the row's block on every slot that holds it, data and parity —
    /// do not XOR to zero: stripes torn by a partial rollback or by a
    /// write that bypassed parity maintenance. Reads
    /// [`RawFile::recover_rows`]' wave over every slot; `BadSpec` on any
    /// other file, `OutOfBounds` past the last stripe. The caller holds
    /// the rows ([`RawFile::lock_rows`]).
    pub fn scrub_rows(&self, row: u64, n: u64) -> Result<Vec<u64>> {
        let Redundancy::Parity(ps) = &self.redundancy else {
            let msg = format!("{}: only a parity-striped file scrubs", self.name);
            return Err(FsError::BadSpec(msg));
        };
        // The file's fullest slot holds every stripe's row.
        let fullest = (0..ps.devices()).max_by_key(|&s| self.device_blocks(s));
        self.check_rows(fullest.unwrap_or(0), row, n)?;
        let bs = self.block_size();
        let mut acc = self.vol.staging().take(n as usize * bs);
        acc.fill(0);
        let read = self.xor_slots(0..ps.devices(), row, &mut acc);
        let torn = (row..)
            .zip(acc.chunks(bs))
            .filter(|(_, b)| b.iter().any(|&x| x != 0));
        let torn = torn.map(|(r, _)| r).collect();
        self.vol.staging().give(acc);
        read.map(|()| torn)
    }

    /// Read device rows — **recovery tooling only**: bypasses redundancy
    /// logic. Fills `buf`, whole blocks, from consecutive device-local
    /// rows of layout slot `slot` from row `row`, as one run (through the
    /// cache tier, where there is one) whose outcome feeds the health
    /// board. A slot past the layout or rows past
    /// [`RawFile::device_blocks`] are refused before anything is read.
    pub fn read_device_rows(&self, slot: usize, row: u64, buf: &mut [u8]) -> Result<()> {
        let n = self.rows_in(buf);
        self.check_rows(slot, row, n)?;
        let run = self.wait_read_run(slot, self.submit_read_run(slot, row, n, false))?;
        buf.copy_from_slice(&run);
        self.vol.staging().give(run);
        Ok(())
    }

    /// Write device rows — **recovery tooling only**: bypasses parity
    /// maintenance and shadow duplication entirely. Lands `data`, whole
    /// blocks, on consecutive device-local rows of layout slot `slot`
    /// from row `row`, as one run whose outcome feeds the health board;
    /// a slot past the layout or rows past [`RawFile::device_blocks`] are
    /// refused before anything is written. Rebuilt data must be durable
    /// on media whatever the cache policy, so the run goes to the
    /// executor past the tier and drops every frame that covered its
    /// rows.
    pub fn write_device_rows(&self, slot: usize, row: u64, data: &[u8]) -> Result<()> {
        let n = self.rows_in(data);
        self.check_rows(slot, row, n)?;
        // Invalidate on both sides of the raw write: before, so a
        // write-back of a block already in flight lands first instead
        // of on top of the rebuilt data; after, to drop what a reader
        // filled in between.
        let with_extents = |c| (c, self.device_extents([(slot, row, n)]));
        let cache = self.vol.cache().map(with_extents);
        if let Some((c, extents)) = &cache {
            c.invalidate_ranges(extents);
        }
        let mut staged = self.vol.staging().take(data.len());
        staged.copy_from_slice(data);
        let written = self.wait_write_run(slot, self.submit_write_run(slot, row, staged, None));
        if let Some((c, extents)) = &cache {
            c.invalidate_ranges(extents);
        }
        written
    }

    /// Every device extent a write of the logical byte span `[offset,
    /// offset + len)` lands on, as disjoint `(volume device, first block,
    /// count)` ranges: the write plan's data runs, their mirror copies,
    /// and the parity row of every stripe touched. Used by the cache
    /// flush hooks below.
    fn span_phys_runs(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let bs = self.block_size() as u64;
        let first = offset / bs;
        let end = (offset + len).div_ceil(bs).min(self.nblocks());
        if len == 0 || first >= end {
            return Vec::new();
        }
        let plan = self.plan(first, end - first, true);
        let data_runs = plan.iter().flatten().map(|m| (m.device, m.dblock, m.count));
        let mut touched: Vec<(usize, u64, u64)> = match &self.redundancy {
            Redundancy::None => data_runs.collect(),
            Redundancy::Shadow { primaries } => data_runs
                .flat_map(|(slot, row, n)| [(slot, row, n), (slot + primaries, row, n)])
                .collect(),
            Redundancy::Parity(ps) => {
                let stripes = ps.stripe_of(first)..=ps.stripe_of(end - 1);
                data_runs
                    .chain(stripes.map(|s| (ps.parity_device(s), s, 1)))
                    .collect()
            }
        };
        // A parity row may sit inside, or next to, its device's data run.
        touched.sort_unstable();
        touched.dedup_by(|next, run| {
            let joins = run.0 == next.0 && next.1 <= run.1 + run.2;
            if joins {
                run.2 = run.2.max(next.1 + next.2 - run.1);
            }
            joins
        });
        self.device_extents(touched)
    }

    /// Slot runs `(slot, first row, rows)` as the volume-device extents
    /// `(device, first block, count)` they occupy: the ranges the cache
    /// tier's flush and invalidation hooks take.
    fn device_extents(
        &self,
        runs: impl IntoIterator<Item = (usize, u64, u64)>,
    ) -> Vec<(usize, u64, u64)> {
        let extents = runs.into_iter().flat_map(|(slot, row, n)| {
            let vdev = self.slot_vdev(slot);
            let segments = self.run_segments(slot, row, n).into_iter();
            segments.map(move |(_, abs, n)| (vdev, abs, n))
        });
        extents.collect()
    }

    /// Write cached dirty state covering the byte span `[offset,
    /// offset + len)` — its data blocks and the mirror or parity blocks
    /// written with them — to the home devices: the hook a byte-range
    /// lock release drives, so data written under a GDA range lock is
    /// durable, and as well protected, before the next holder proceeds,
    /// exactly as on uncached volumes. No-op without a cache.
    pub fn flush_span(&self, offset: u64, len: u64) -> Result<()> {
        let Some(c) = self.vol.cache() else {
            return Ok(());
        };
        c.flush_ranges(&self.span_phys_runs(offset, len))?;
        Ok(())
    }

    /// Drop cached frames covering the byte span (redundancy blocks
    /// included) without writing them back — for callers that know the
    /// media is authoritative.
    pub fn invalidate_span(&self, offset: u64, len: u64) {
        if let Some(c) = self.vol.cache() {
            c.invalidate_ranges(&self.span_phys_runs(offset, len));
        }
    }

    /// Blocks allocated on layout slot `slot`.
    pub fn device_blocks(&self, slot: usize) -> u64 {
        crate::alloc::extents_len(&self.state.meta.read().extents[slot])
    }

    /// Hold device rows `rows` of every slot of the file until the guard
    /// drops, once no other holder overlaps them. Row `s` of a parity
    /// file is stripe `s`; row `r` of a shadowed file is both copies of
    /// the primaries' row `r`. Every write that maintains redundancy
    /// holds the rows it plans (a parity write, a shadowed write), a
    /// reconstruction the rows it reads, and recovery tooling the rows
    /// it sweeps, so none of them sees a row half-written by another;
    /// writes and sweeps over other rows proceed at once.
    pub fn lock_rows(&self, rows: Range<u64>) -> RangeGuard<'_> {
        self.state.rows.acquire(rows.start, rows.end)
    }

    /// Submit whole blocks `[first, first + data.len() / bs)` of a parity
    /// file, planned stripe by stripe, holding the stripes' rows. Each stripe
    /// contributes its new data blocks and its new parity block to one
    /// staging run per device; the runs — rows of data and parity alike
    /// — leave in ONE wave, all submitted before any is waited for.
    ///
    /// A stripe the span covers needs no reads: its parity is the XOR of
    /// the caller's bytes, so no health state matters to it (Rebuilding
    /// media takes the write, a Failed device's run reports fail-stop
    /// below). The partial stripes at the ragged ends — a one-block span
    /// is one — fold old blocks in through
    /// [`RawFile::parity_reads`] first, before anything is written.
    ///
    /// Failure contract ([`RawFile::wait_writes`]): one fail-stop device
    /// among the runs is the redundancy's to absorb — whichever of a
    /// stripe's blocks it held, the survivors reconstruct the new bytes.
    /// Any other write error, or a second fail-stop, fails the span and
    /// leaves the stripes it covers unspecified until rewritten
    /// (`scrub`/`repair` is the recourse, as for a torn
    /// read-modify-write).
    fn submit_parity(&self, ps: &ParityStriped, first: u64, data: &[u8]) -> Result<Submitted<'_>> {
        let bs = self.block_size();
        let (w, total) = (ps.stripe_width() as u64, self.nblocks());
        let end = first + (data.len() / bs) as u64;
        let (s0, s1) = (ps.stripe_of(first), ps.stripe_of(end - 1) + 1);
        let held = self.lock_rows(s0..s1);
        // The span's blocks of stripe `s`.
        let cut = |s: u64| first.max(s * w)..end.min((s + 1) * w);
        // Per device: the first row and the bytes of its run, sized
        // before anything is staged. A device holds one block of every
        // row it appears in, and only a span's first and last row can
        // leave a device out, so each device's rows are contiguous.
        let mut rows = vec![(u64::MAX, 0usize); ps.devices()];
        for s in s0..s1 {
            let data_blocks = cut(s).map(|l| ps.map(l));
            for loc in data_blocks.chain([ps.parity_location(s)]) {
                let (row, n) = &mut rows[loc.device];
                *row = loc.block.min(*row);
                *n += 1;
            }
        }
        let take = |&(row, n): &(u64, usize)| (row, self.vol.staging().take(n * bs));
        let mut staged: Vec<(u64, Box<[u8]>)> = rows.iter().map(take).collect();
        fn block_of(staged: &mut [(u64, Box<[u8]>)], loc: PhysBlock, bs: usize) -> &mut [u8] {
            let (row, run) = &mut staged[loc.device];
            let at = (loc.block - *row) as usize * bs;
            &mut run[at..at + bs]
        }
        for s in s0..s1 {
            let touched = cut(s);
            let at = (touched.start - first) as usize * bs;
            let new = &data[at..at + (touched.end - touched.start) as usize * bs];
            for (l, block) in touched.clone().zip(new.chunks(bs)) {
                block_of(&mut staged, ps.map(l), bs).copy_from_slice(block);
            }
            let parity = block_of(&mut staged, ps.parity_location(s), bs);
            let (head, rest) = new.split_at(bs);
            parity.copy_from_slice(head);
            rest.chunks(bs).for_each(|block| xor_into(parity, block));
            if touched.start > s * w || touched.end < total.min((s + 1) * w) {
                self.parity_reads(ps, s, touched, parity)?;
            }
        }
        let staged = staged
            .into_iter()
            .enumerate()
            .filter(|(_, (_, run))| !run.is_empty());
        let runs = staged.map(|(device, (dblock, run))| {
            let count = (run.len() / bs) as u64;
            let tickets = self.submit_write_run(device, dblock, run, self.vol.cache());
            let m = MergedRun {
                device,
                dblock,
                count,
            };
            (m, tickets)
        });
        Ok((Some(held), runs.collect()))
    }

    /// The reads of a partial-stripe write: `parity` holds the XOR of the
    /// new blocks `touched` of stripe `s`, and becomes the stripe's new
    /// parity once either the old copies of the touched blocks and the
    /// old parity (read-modify-write) or the untouched peers
    /// (reconstruct-write) are folded in — the two plans differ only in
    /// what they read. The plan that reads fewer blocks goes first, ties
    /// to read-modify-write. Rebuilding media reads stale, which rules
    /// out a plan that would read it (Failed media is left to error out:
    /// a device healed behind the board's back keeps serving). A
    /// recoverable read error — fail-stop, detected corruption of old
    /// data or old parity alike, a transient that outlived its retries —
    /// switches to the other plan, which needs nothing from that block;
    /// the write wave then heals it or reports it.
    fn parity_reads(
        &self,
        ps: &ParityStriped,
        s: u64,
        touched: Range<u64>,
        parity: &mut [u8],
    ) -> Result<()> {
        // The slots each plan reads row `s` of.
        let (mut rmw, mut rcw) = (Vec::new(), Vec::new());
        for (l, loc) in ps.stripe_data(s, self.nblocks()) {
            if touched.contains(&l) {
                rmw.push(loc.device);
            } else {
                rcw.push(loc.device);
            }
        }
        rmw.push(ps.parity_device(s));
        let plans = if rcw.len() < rmw.len() {
            [rcw, rmw]
        } else {
            [rmw, rcw]
        };
        let stale = |&slot: &usize| self.slot_state(slot) == HealthState::Rebuilding;
        let mut failed = None;
        for reads in plans {
            if reads.iter().any(stale) {
                continue;
            }
            match self.xor_slots(reads, s, parity) {
                Err(FsError::Disk(e)) if recoverable(&e) => failed = Some(e),
                done => return done,
            }
        }
        let failed = failed.unwrap_or_else(|| DiskError::DeviceFailed {
            device: format!("parity stripe {s}: every plan reads rebuilding media"),
        });
        Err(failed.into())
    }

    // ------------------------------------------------------------------
    // The plan and its transfers
    // ------------------------------------------------------------------

    /// The plan every whole-block transfer starts from: logical blocks
    /// `[first, first + count)` as [`pario_layout::plan`]'s merged
    /// per-device runs. With `sieve` (reads, and the extents a write
    /// touches) a parity file's runs cover the parity blocks between
    /// their data blocks.
    fn plan(&self, first: u64, count: u64, sieve: bool) -> Vec<Vec<MergedRun>> {
        let hole = |device: usize, row: u64| match &self.redundancy {
            Redundancy::Parity(ps) if sieve => ps.parity_device(row) == device,
            _ => false,
        };
        pario_layout::plan(&*self.layout, &[(first, count)], hole)
    }

    /// The blocks of the span `[first, first + n)` that transfer `m`
    /// holds, as `(row, logical block)` in row order: the layout says
    /// which block each row holds ([`Layout::invert`]) as the rows are
    /// walked. A row holding none of the span's blocks — a parity hole
    /// read through, a row a reconstruction widened to — is skipped.
    fn held(&self, first: u64, n: u64, m: &MergedRun) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (device, span) = (m.device, first..first + n);
        let rows = m.dblock..m.dblock + m.count;
        rows.filter_map(move |row| Some((row, self.layout.invert(device, row)?)))
            .filter(move |(_, l)| span.contains(l))
    }

    /// Pair transfer `m`'s rows, staged from row `m.dblock`, with the
    /// bytes of the span `[first, first + n)` they hold: `copy(span
    /// bytes, staged bytes)` once for each maximal piece of rows that
    /// holds consecutive blocks, so a partitioned run is one copy.
    fn pieces(
        &self,
        first: u64,
        n: u64,
        m: &MergedRun,
        mut copy: impl FnMut(Range<usize>, Range<usize>),
    ) {
        let bs = self.block_size();
        let mut flush = |(row, l, k): (u64, u64, u64)| {
            let (at, from, len) = ((l - first) as usize, (row - m.dblock) as usize, k as usize);
            copy(at * bs..(at + len) * bs, from * bs..(from + len) * bs);
        };
        let mut piece = None;
        for (row, l) in self.held(first, n, m) {
            match &mut piece {
                Some((r0, l0, k)) if *r0 + *k == row && *l0 + *k == l => *k += 1,
                _ => {
                    if let Some(done) = piece.replace((row, l, 1)) {
                        flush(done);
                    }
                }
            }
        }
        if let Some(done) = piece {
            flush(done);
        }
    }

    /// Split the device-local range `[dblock, dblock + count)` of layout
    /// slot `slot` at extent boundaries, resolving each piece to an
    /// absolute block on the device's I/O-executor handle (so segment
    /// transfers can be submitted asynchronously).
    fn run_segments(&self, slot: usize, dblock: u64, count: u64) -> Vec<(DeviceRef, u64, u64)> {
        let meta = self.state.meta.read();
        let dev = self.vol.io_device(meta.device_map[slot]);
        let segs = crate::alloc::segments(&meta.extents[slot], dblock, count);
        let out: Vec<_> = segs.map(|(abs, n)| (Arc::clone(&dev), abs, n)).collect();
        let covered: u64 = out.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(covered, count, "run extends past allocated extents");
        out
    }

    /// THE resolver: logical blocks `[first, first + count)` as the one
    /// device transfer they are, when they are one — every block on the
    /// home slot of the first, at the rows after its row. Checked block
    /// by block, so nothing is assumed of the layout but its bijection;
    /// a striped span of more than one block fails at its second.
    /// Returns the run; [`RawFile::move_direct`] asks whether its rows
    /// are one extent segment. Allocates nothing.
    fn one_transfer(&self, first: u64, count: u64) -> Option<MergedRun> {
        let PhysBlock { device, block } = self.layout.map(first);
        let at = |i: u64| PhysBlock {
            device,
            block: block + i,
        };
        let dblock = block;
        (1..count)
            .all(|i| self.layout.map(first + i) == at(i))
            .then_some(MergedRun {
                device,
                dblock,
                count,
            })
    }

    /// Move rows `[row, row + n)` of layout slot `slot` — a span
    /// [`RawFile::one_transfer`] resolved, at its home or at the copy its
    /// route picked — in one call between the caller's buffer and the
    /// volume's data path: [`VolumeCache::read_blocks`] /
    /// [`VolumeCache::submit_write`] where a tier fronts the volume (a hit
    /// costs a lookup and a copy), otherwise the executor handle's
    /// blocking `read_blocks_at` / `write_blocks_at`, which an idle I/O
    /// node runs on the calling thread. Nothing is submitted, staged or
    /// planned: there is nothing to fan out. The outcome is reported to
    /// the health board. `None`, nothing moved, when the rows are not one
    /// extent segment: the caller plans the span.
    fn move_direct(&self, slot: usize, row: u64, n: u64, buf: Direct<'_>) -> Option<Result<()>> {
        let (vdev, abs) = {
            let meta = self.state.meta.read();
            let (abs, held) = crate::alloc::segments(&meta.extents[slot], row, n).next()?;
            (held == n).then_some((meta.device_map[slot], abs))?
        };
        let done = match (self.vol.cache(), buf) {
            (Some(c), Direct::Read(out)) => c.read_blocks(vdev, abs, out),
            (Some(c), Direct::Write(data)) => c.submit_write(vdev, abs, data),
            (None, Direct::Read(out)) => self.vol.io_device(vdev).read_blocks_at(abs, out),
            (None, Direct::Write(data)) => self.vol.io_device(vdev).write_blocks_at(abs, data),
        };
        Some(self.settle(vdev, done))
    }

    /// A submitted segment transfer as this handle hands it on: in
    /// flight, or — with `span_parallel` off, the serial reference path —
    /// waited out on the spot, so devices are serviced one at a time.
    fn paced(&self, t: RunTicket) -> RunTicket {
        if self.span_parallel {
            return t;
        }
        RunTicket::Dev(Ticket::ready(t.wait(self.vol.cache())))
    }

    /// Submit the read of rows `[dblock, dblock + count)` of `slot`: one
    /// ticket per extent segment, all enqueued before returning, each
    /// reading into a staging buffer its ticket hands back. On cached
    /// volumes each segment goes through the tier — hits are copied into
    /// the buffer at once and adjacent misses coalesce into one vectored
    /// executor request, submitted (not waited) here so cross-device
    /// fan-out is preserved. This and [`RawFile::submit_write_run`] are
    /// where data enters the tier. `hedged` marks either copy of a raced
    /// read: its executor requests always queue (see
    /// [`pario_disk::BlockDevice::submit_hedged_read_blocks`]), so both
    /// are in flight when the race starts — a spike on the Suspect copy
    /// cannot hold the caller, and a mirror served on the spot cannot
    /// decide the race before the Suspect copy had its chance to answer.
    fn submit_read_run(
        &self,
        slot: usize,
        dblock: u64,
        count: u64,
        hedged: bool,
    ) -> Vec<RunTicket> {
        let bs = self.block_size();
        let cache = self.vol.cache().map(|c| (c, self.slot_vdev(slot)));
        let segs = self.run_segments(slot, dblock, count).into_iter();
        let submit = |(dev, abs, n): (DeviceRef, u64, u64)| {
            let buf = self.vol.staging().take(n as usize * bs);
            match cache {
                Some((c, vdev)) => match c.submit_read(vdev, abs, buf) {
                    Ok(t) => RunTicket::CacheRead(t),
                    Err(e) => RunTicket::Dev(Ticket::ready(Err(e))),
                },
                None if hedged => RunTicket::Dev(dev.submit_hedged_read_blocks(abs, buf)),
                None => RunTicket::Dev(dev.submit_read_blocks(abs, buf)),
            }
        };
        segs.map(|seg| self.paced(submit(seg))).collect()
    }

    /// Submit the write of a run of `slot` from row `dblock` (`data` is
    /// the run's gathered bytes, a staging buffer), one ticket per extent
    /// segment. Through `cache`, each segment is absorbed into dirty
    /// frames (writing evicted ones home) straight from its slice of
    /// `data` before its ticket is made; the caller passes `None` to go
    /// past a tier to the executor. There the common case, one segment
    /// per run (extents merge at grow time), hands `data` over as it is;
    /// a run that crosses segments copies each into a buffer of its own,
    /// once.
    fn submit_write_run(
        &self,
        slot: usize,
        dblock: u64,
        data: Box<[u8]>,
        cache: Option<&Arc<VolumeCache>>,
    ) -> Vec<RunTicket> {
        let (bs, staging) = (self.block_size(), self.vol.staging());
        let segs = self.run_segments(slot, dblock, (data.len() / bs) as u64);
        let cache = cache.map(|c| (c, self.slot_vdev(slot)));
        if let (None, [(dev, abs, _)]) = (cache, &segs[..]) {
            return vec![self.paced(RunTicket::Dev(dev.submit_write_blocks(*abs, data)))];
        }
        let mut rest = &data[..];
        let submit = |(dev, abs, n): (DeviceRef, u64, u64)| {
            let (seg, tail) = rest.split_at(n as usize * bs);
            rest = tail;
            let ticket = match cache {
                Some((c, vdev)) => {
                    Ticket::ready(c.submit_write(vdev, abs, seg).map(|()| Box::default()))
                }
                None => {
                    let mut own = staging.take(seg.len());
                    own.copy_from_slice(seg);
                    dev.submit_write_blocks(abs, own)
                }
            };
            self.paced(RunTicket::Dev(ticket))
        };
        let out = segs.into_iter().map(submit).collect();
        staging.give(data);
        out
    }

    /// Wait out one run's read tickets against layout slot `slot`: the
    /// run's rows in one staging buffer — a run that crosses extent
    /// segments joined in device order — or the run's error — a final
    /// one ahead of a [`recoverable`] one, which callers answer by trying
    /// the next copy. Every ticket is waited, so nothing completes behind
    /// our back, and the run's outcome feeds the health board.
    fn wait_read_run(&self, slot: usize, tickets: Vec<RunTicket>) -> Result<Box<[u8]>> {
        let cache = self.vol.cache();
        let mut outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait(cache)).collect();
        let is_final = |o: &pario_disk::Result<_>| matches!(o, Err(e) if !recoverable(e));
        // The first error, a final one first; else the one segment's
        // buffer as it is; else the segments joined.
        let failed = outcomes.iter().position(is_final);
        let failed = failed.or_else(|| outcomes.iter().position(|o| o.is_err()));
        let run = match failed.or((outcomes.len() == 1).then_some(0)) {
            Some(i) => outcomes.swap_remove(i),
            None => {
                let staging = self.vol.staging();
                let mut joined = staging.take(outcomes.iter().flatten().map(|s| s.len()).sum());
                let mut at = 0;
                for seg in outcomes.into_iter().flatten() {
                    joined[at..at + seg.len()].copy_from_slice(&seg);
                    at += seg.len();
                    staging.give(seg);
                }
                Ok(joined)
            }
        };
        self.settle(self.slot_vdev(slot), run)
    }

    /// Read runs `(slot, first row, rows)` in one wave: every run is
    /// submitted (cache tier or executor) before any is waited for, so on
    /// devices slower than a hand-off they overlap; an idle I/O node whose
    /// transfers cost less than waking its worker runs the read on the
    /// calling thread instead (DESIGN §7). Every run is waited out, in
    /// order, and feeds the health board.
    fn read_wave(
        &self,
        runs: impl IntoIterator<Item = (usize, u64, u64)>,
    ) -> Vec<Result<Box<[u8]>>> {
        let submit = |(slot, row, n)| (slot, self.submit_read_run(slot, row, n, false));
        let inflight: Vec<_> = runs.into_iter().map(submit).collect();
        let wait = |(slot, tickets)| self.wait_read_run(slot, tickets);
        inflight.into_iter().map(wait).collect()
    }

    /// Wait out one run's write tickets against layout slot `slot`,
    /// reporting the first error (and feeding the health board). The
    /// buffers the tickets hand back return to the staging list.
    fn wait_write_run(&self, slot: usize, tickets: Vec<RunTicket>) -> Result<()> {
        let cache = self.vol.cache();
        let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait(cache)).collect();
        let give = |o: pario_disk::Result<_>| o.map(|buf| self.vol.staging().give(buf));
        let written = outcomes.into_iter().try_for_each(give);
        self.settle(self.slot_vdev(slot), written)
    }

    /// Complete a hedged run: copy `a` (the Suspect home slot) and copy
    /// `b` (its mirror) are both in flight, and the first to succeed
    /// wins; the loser is abandoned, its transfer still executes. Every
    /// outcome the race observed feeds the health board, so a Suspect
    /// slot that answers earns its way back to Healthy. Only executor
    /// tickets can be raced: a run in several segments, or one behind
    /// the cache tier (whose tickets complete through the tier, which
    /// both copies went through), is waited out copy by copy instead.
    fn race_read_runs(
        &self,
        (slot_a, mut a): Replica,
        (slot_b, mut b): Replica,
    ) -> Result<Box<[u8]>> {
        let raceable = |t: &[RunTicket]| matches!(t, [RunTicket::Dev(_)]);
        if !(raceable(&a) && raceable(&b)) {
            let first = self.wait_read_run(slot_a, a);
            let second = self.wait_read_run(slot_b, b);
            return first.or(second);
        }
        let (Some(RunTicket::Dev(ta)), Some(RunTicket::Dev(tb))) = (a.pop(), b.pop()) else {
            unreachable!("both runs are one executor ticket");
        };
        let observed = [slot_a, slot_b].into_iter().zip(Ticket::race(ta, tb));
        let settled = observed.filter_map(|(slot, o)| Some(self.settle(self.slot_vdev(slot), o?)));
        let outcome = settled.reduce(|a, b| a.or(b));
        // invariant: a race reports at least one outcome.
        outcome.expect("race observed no completion")
    }

    /// Scatter run `m`'s device blocks (`run`, a staging buffer from row
    /// `m.dblock`) into the buffer of the span that starts at logical
    /// block `first`, piece by piece ([`RawFile::pieces`]) — a parity
    /// hole the run read through is skipped — and hand the staging back.
    fn scatter(&self, first: u64, buf: &mut [u8], m: &MergedRun, run: Box<[u8]>) {
        let n = self.rows_in(buf);
        self.pieces(first, n, m, |to, from| buf[to].copy_from_slice(&run[from]));
        self.vol.staging().give(run);
    }

    /// Split a read's outcome by who answers it: a [`recoverable`]
    /// failure (the inner error) is the reader's, to serve from the next
    /// copy or through recovery; any other error is final.
    fn soft<T>(res: Result<T>) -> Result<std::result::Result<T, DiskError>> {
        match res {
            Ok(done) => Ok(Ok(done)),
            Err(FsError::Disk(e)) if recoverable(&e) => Ok(Err(e)),
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // The reader and the writer
    // ------------------------------------------------------------------

    /// Read whole logical blocks `[first, first + buf.len()/bs)` — THE
    /// reader: a block is a one-block span, submitted and then waited.
    fn read_blocks(&self, first: u64, buf: &mut [u8]) -> Result<()> {
        self.submit_read_blocks(first, buf)
            .wait(self, Direct::Read(buf))
    }

    /// Submit the read of whole logical blocks `[first, first +
    /// buf.len()/bs)`, to be waited with `buf`. The span becomes merged
    /// per-device runs ([`RawFile::plan`]), each run goes where
    /// [`RawFile::route`] sends it, and every transfer is submitted to
    /// the I/O executor before any is waited on, so every device works
    /// concurrently and no thread is spawned. The routing is done in the
    /// unlocked-read window, which the ticket leaves here.
    ///
    /// A span that is one transfer ([`RawFile::one_transfer`]) is not
    /// planned when its route has a first copy, nothing to race and no
    /// parity column down: it moves here, in one call, straight into
    /// `buf` ([`RawFile::move_direct`]). A run whose first copy fails
    /// [`recoverable`]y — a one-transfer span's included — is resubmitted
    /// to its other copy as the failure is seen, and those second
    /// transfers are waited as a wave of their own. What no copy served
    /// is recovered in one step:
    /// a parity file reconstructs the lost column
    /// ([`RawFile::reconstruct`]); a shadowed run dead on both copies is
    /// re-planned block by block — the pair may be half dead in different
    /// places — and a block dead on both copies, like any block of an
    /// unprotected file, is the read's error.
    ///
    /// When the board already routes around a device of a parity file,
    /// nothing is read before the span's rows are held: the surviving
    /// columns are then read once, here, for the span and for the
    /// reconstruction both.
    pub(crate) fn submit_read_blocks(&self, first: u64, buf: &mut [u8]) -> SpanTicket {
        if buf.is_empty() {
            return SpanTicket::Done(Ok(()));
        }
        let count = self.rows_in(buf);
        let io = self.enter_io();
        let parity = matches!(self.redundancy, Redundancy::Parity(_));
        let direct = self.one_transfer(first, count).and_then(|m| {
            let route = self.route(m.device);
            let [Some(slot), other] = route.copies else {
                return None;
            };
            let planned = route.race || (parity && route.down);
            (!planned).then_some((m, slot, other))
        });
        let mut r = Reads::default();
        (r.first, r.gen) = (first, io.gen);
        if let Some((m, slot, other)) = direct {
            if let Some(res) = self.move_direct(slot, m.dblock, count, Direct::Read(buf)) {
                // A first copy that failed recoverably: on to the next.
                match Self::soft(res) {
                    Ok(Err(e)) => self.retry(&mut r, m, other, e),
                    done => return SpanTicket::Done(done.map(drop)),
                }
                return SpanTicket::Read(r);
            }
        }
        let groups = self.plan(first, count, true);
        if let Redundancy::Parity(ps) = &self.redundancy {
            if groups.iter().flatten().any(|m| self.route(m.device).down) {
                let pending = groups.into_iter().flatten().collect();
                return SpanTicket::Done(self.reconstruct(ps, first, buf, Vec::new(), pending));
            }
        }
        for m in groups.into_iter().flatten() {
            let route = self.route(m.device);
            let [Some(slot), other] = route.copies else {
                r.lost.push((m, Self::stale(m.device)));
                continue;
            };
            let hedge = other
                .filter(|_| route.race)
                .map(|s| (s, self.submit_read_run(s, m.dblock, m.count, true)));
            let tickets = self.submit_read_run(slot, m.dblock, m.count, hedge.is_some());
            r.inflight.push((m, (slot, tickets), other, hedge));
        }
        SpanTicket::Read(r)
    }

    /// A run whose copy failed goes to its next one at once, so the
    /// second transfers overlap as the first did; with no copy left,
    /// the run is lost.
    fn retry(&self, r: &mut Reads, m: MergedRun, next: Option<usize>, e: DiskError) {
        match next {
            Some(slot) => {
                let tickets = self.submit_read_run(slot, m.dblock, m.count, false);
                r.inflight.push((m, (slot, tickets), None, None));
            }
            None => r.lost.push((m, e)),
        }
    }

    /// The reader's second half: wait every run, scatter it into `buf`,
    /// and recover what no copy served.
    fn land_reads(&self, mut r: Reads, buf: &mut [u8]) -> Result<()> {
        let (first, bs) = (r.first, self.block_size());
        // The runs at their first copy, then those gone on to the next.
        while !r.inflight.is_empty() {
            for (m, primary, other, hedge) in std::mem::take(&mut r.inflight) {
                let (res, next) = match hedge {
                    Some(mirror) => (self.race_read_runs(primary, mirror), None),
                    None => (self.wait_read_run(primary.0, primary.1), other),
                };
                match Self::soft(res)? {
                    Ok(run) => self.scatter(first, buf, &m, run),
                    Err(e) => self.retry(&mut r, m, next, e),
                }
            }
        }
        if let (Redundancy::Parity(ps), false) = (&self.redundancy, r.lost.is_empty()) {
            return self.reconstruct(ps, first, buf, r.lost, Vec::new());
        }
        for (m, e) in r.lost {
            if m.count == 1 || !matches!(self.redundancy, Redundancy::Shadow { .. }) {
                return Err(e.into());
            }
            for (_, l) in self.held(first, self.rows_in(buf), &m) {
                let at = (l - first) as usize * bs;
                self.read_blocks(l, &mut buf[at..at + bs])?;
            }
        }
        Ok(())
    }

    /// The error of a run none of whose copies may be read.
    fn stale(slot: usize) -> DiskError {
        DiskError::DeviceFailed {
            device: format!("device slot {slot} (rebuilding)"),
        }
    }

    /// Recover what a parity read could not get from its home device,
    /// under ONE hold of rows `[r0, r1)`: those rows of every
    /// surviving device — parity included, one run per device, one wave
    /// ([`RawFile::read_wave`]) — XOR to the lost device's column
    /// ([`xor_rows`]), trimmed where a partial last stripe leaves a
    /// device a row short (the row it lacks is zeros to the parity).
    /// Every column, the rebuilt one too, is then scattered into `buf`.
    /// `lost` are runs already tried; `pending`
    /// are the span's runs not read yet, when the board said a device was
    /// down before anything was submitted: they join the wave widened to
    /// the span's whole row range, so each surviving column is read once
    /// for the span and the reconstruction both, whichever run turns out
    /// lost, and a Failed slot is probed with its own run. The survivors
    /// are always read here, holding the rows — never reused from a wave
    /// that ran without them, where a concurrent
    /// [`RawFile::submit_parity`] could leave data and parity from
    /// different writes.
    fn reconstruct(
        &self,
        ps: &ParityStriped,
        first: u64,
        buf: &mut [u8],
        mut lost: Vec<(MergedRun, DiskError)>,
        mut pending: Vec<MergedRun>,
    ) -> Result<()> {
        let bs = self.block_size();
        // Whichever run turns out lost, every survivor must cover its rows.
        let Range { start: r0, end: r1 } = rows_of(lost.iter().map(|(m, _)| m).chain(&pending));
        let _rows = self.lock_rows(r0..r1);
        let mut survivors = Vec::new();
        for slot in 0..ps.devices() {
            if lost.iter().any(|(m, _)| m.device == slot) {
                continue;
            }
            // A parity span plans to at most one run per device.
            let own = pending.iter().position(|m| m.device == slot);
            let mut m = own.map_or_else(
                || MergedRun {
                    device: slot,
                    dblock: r0,
                    count: 0,
                },
                |i| pending.swap_remove(i),
            );
            if self.route(slot).copies[0].is_none() {
                lost.push((m, Self::stale(slot)));
                continue;
            }
            let end = (m.dblock + m.count).max(r1.min(self.device_blocks(slot)));
            m.dblock = m.dblock.min(r0);
            m.count = end.saturating_sub(m.dblock);
            if m.count > 0 {
                survivors.push(m);
            }
        }
        let reads = self.read_wave(survivors.iter().map(|m| (m.device, m.dblock, m.count)));
        let mut columns = Vec::with_capacity(survivors.len() + 1);
        for (m, read) in survivors.into_iter().zip(reads) {
            match Self::soft(read)? {
                Ok(column) => columns.push((m, column)),
                Err(e) => lost.push((m, e)),
            }
        }
        if let Some((m, e)) = lost.pop() {
            if !lost.is_empty() {
                // One parity block per stripe absorbs one lost device.
                return Err(e.into());
            }
            let mut column = self.vol.staging().take(m.count as usize * bs);
            column.fill(0);
            for (peer, data) in &columns {
                xor_rows(&mut column, m.dblock, data, peer.dblock, bs);
            }
            columns.push((m, column));
        }
        for (m, column) in columns {
            self.scatter(first, buf, &m, column);
        }
        Ok(())
    }

    /// Write whole logical blocks starting at `first` — THE writer: a
    /// block is a one-block span, submitted and then waited. The caller
    /// holds the blocks ([`RawFile::write_span`]).
    fn write_blocks(&self, first: u64, data: &[u8]) -> Result<()> {
        self.submit_write_blocks(first, data, false)
            .wait(self, Direct::Write(data))
    }

    /// Submit the write of whole logical blocks from `first`, to be
    /// waited with `data`, holding the blocks too if `blocks` (for a
    /// caller that does not hold them). Parity files plan the span in stripes
    /// ([`RawFile::submit_parity`]): data and parity leave as one run per
    /// device. A shadowed span holds the rows its plan covers, so a
    /// resync burst never copies a row between the writes of its two
    /// copies. An unprotected span that is one transfer
    /// ([`RawFile::one_transfer`]) is not planned: it moves here, in one
    /// call, straight from `data` ([`RawFile::move_direct`]). Every other
    /// run is staged; the ranges held are parked with the transfers.
    pub(crate) fn submit_write_blocks(&self, first: u64, data: &[u8], blocks: bool) -> SpanTicket {
        if data.is_empty() {
            return SpanTicket::Done(Ok(()));
        }
        let count = self.rows_in(data);
        let blocks = blocks.then(|| self.state.blocks.acquire(first, first + count));
        let submitted = match &self.redundancy {
            Redundancy::Parity(ps) => self.submit_parity(ps, first, data),
            Redundancy::Shadow { primaries } => {
                let plan = self.plan(first, count, false);
                let rows = self.lock_rows(rows_of(plan.iter().flatten()));
                Ok((
                    Some(rows),
                    self.submit_runs(first, data, plan, Some(*primaries)),
                ))
            }
            Redundancy::None => {
                let direct = self
                    .one_transfer(first, count)
                    .and_then(|m| self.move_direct(m.device, m.dblock, count, Direct::Write(data)));
                if let Some(res) = direct {
                    return SpanTicket::Done(res);
                }
                let plan = self.plan(first, count, false);
                Ok((None, self.submit_runs(first, data, plan, None)))
            }
        };
        let (rows, runs) = match submitted {
            Ok(submitted) => submitted,
            Err(e) => return SpanTicket::Done(Err(e)),
        };
        let transfers = Arc::new(Mutex::new_named(runs, LockLevel::FsLanding));
        let park = |g: RangeGuard<'_>| g.park(Arc::clone(&transfers) as Arc<dyn Land>);
        let held = [blocks.map(park), rows.map(park)];
        SpanTicket::Write(Writes {
            first,
            held,
            transfers,
        })
    }

    /// Submit whole blocks via `plan`'s merged per-device runs, each
    /// gathered into a staging buffer, all before any is waited on. With
    /// a `mirror` (the caller holds the plan's rows) each run goes to
    /// both copies, the run and then its copy.
    fn submit_runs(
        &self,
        first: u64,
        data: &[u8],
        plan: Vec<Vec<MergedRun>>,
        mirror: Option<usize>,
    ) -> Vec<(MergedRun, Vec<RunTicket>)> {
        let (bs, count) = (self.block_size(), self.rows_in(data));
        let mut runs = Vec::new();
        for m in plan.into_iter().flatten() {
            let staging = self.vol.staging();
            let mut gathered = staging.take(m.count as usize * bs);
            self.pieces(first, count, &m, |from, to| {
                gathered[to].copy_from_slice(&data[from])
            });
            let copy = mirror.map(|p| {
                let mut copy = staging.take(gathered.len());
                copy.copy_from_slice(&gathered);
                let device = m.device + p;
                (MergedRun { device, ..m }, copy)
            });
            for (m, run) in [(m, gathered)].into_iter().chain(copy) {
                runs.push((
                    m,
                    self.submit_write_run(m.device, m.dblock, run, self.vol.cache()),
                ));
            }
        }
        runs
    }

    /// Complete a write of `data`: land its transfers, release its ranges
    /// and settle each run on the health board. A parity span absorbs
    /// one fail-stop device ([`RawFile::submit_parity`]). A shadowed run
    /// needs one live copy — the pair is degraded, not lost — and a run
    /// whose two copies both failed is rewritten block by block, so the
    /// span only fails where both copies of a block are dead.
    fn wait_writes(&self, w: Writes, data: &[u8]) -> Result<()> {
        w.transfers.land();
        let (first, runs) = (w.first, std::mem::take(&mut *w.transfers.lock()));
        for (table, held) in [&self.state.blocks, &self.state.rows]
            .into_iter()
            .zip(w.held)
        {
            if let Some(ticket) = held {
                table.release_ticket(ticket);
            }
        }
        let wait = |(m, tickets): (MergedRun, _)| (m, self.wait_write_run(m.device, tickets));
        let written: Vec<_> = runs.into_iter().map(wait).collect();
        let pairs = match &self.redundancy {
            Redundancy::None => return written.into_iter().try_for_each(|(_, w)| w),
            Redundancy::Parity(_) => {
                // One fail-stop device is the redundancy's to absorb.
                let mut down = false;
                let mut failed = written
                    .into_iter()
                    .filter_map(|(_, w)| w.err())
                    .filter(|e| {
                        let absorbed =
                            !down && matches!(e, FsError::Disk(DiskError::DeviceFailed { .. }));
                        down |= absorbed;
                        !absorbed
                    });
                return failed.next().map_or(Ok(()), Err);
            }
            Redundancy::Shadow { .. } => written.chunks(2),
        };
        let bs = self.block_size();
        for pair in pairs {
            let (m, primary) = &pair[0];
            if pair.iter().any(|(_, w)| w.is_ok()) {
                continue;
            }
            if m.count == 1 {
                return primary.clone();
            }
            for (_, l) in self.held(first, self.rows_in(data), m) {
                let at = (l - first) as usize * bs;
                self.write_blocks(l, &data[at..at + bs])?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Byte spans and records
    // ------------------------------------------------------------------

    /// Split a byte span at block boundaries: the bytes of its partial
    /// first block (none when it starts aligned, all of it when it ends
    /// inside that block) and of the whole blocks after them. The rest
    /// is a partial last block.
    fn split_span(&self, offset: u64, len: usize) -> (usize, usize) {
        let bs = self.block_size();
        let head = ((bs - (offset % bs as u64) as usize) % bs).min(len);
        (head, (len - head) / bs * bs)
    }

    /// Read `out`, a sub-block range of logical block `l` starting
    /// `within` bytes in: a one-block span, staged like any other.
    fn read_partial(&self, l: u64, within: usize, out: &mut [u8]) -> Result<()> {
        let staging = self.vol.staging();
        let mut block = staging.take(self.block_size());
        let read = self.read_blocks(l, &mut block);
        if read.is_ok() {
            out.copy_from_slice(&block[within..within + out.len()]);
        }
        staging.give(block);
        read
    }

    /// Read-modify-write the sub-block range of logical block `l`
    /// starting `within` bytes in. The caller holds block `l`
    /// ([`RawFile::write_span`]).
    fn rmw_partial(&self, l: u64, within: usize, bytes: &[u8]) -> Result<()> {
        let staging = self.vol.staging();
        let mut block = staging.take(self.block_size());
        let written = self.read_blocks(l, &mut block).and_then(|()| {
            block[within..within + bytes.len()].copy_from_slice(bytes);
            self.write_blocks(l, &block)
        });
        staging.give(block);
        written
    }

    /// Read `out.len()` bytes of the logical byte stream at `offset`.
    /// The span must lie within the allocated capacity.
    ///
    /// Whole-block spans are translated into maximal per-device runs
    /// (one vectored device request each); a partial head or tail block
    /// is read whole, as a one-block span.
    pub fn read_span(&self, offset: u64, out: &mut [u8]) -> Result<()> {
        let bs = self.block_size() as u64;
        let end = offset + out.len() as u64;
        let nblocks = self.nblocks();
        if end > nblocks * bs {
            return Err(FsError::OutOfBounds {
                record: end.div_ceil(bs),
                len: nblocks,
            });
        }
        let (head, core) = self.split_span(offset, out.len());
        let (head, rest) = out.split_at_mut(head);
        let (core, tail) = rest.split_at_mut(core);
        if !head.is_empty() {
            self.read_partial(offset / bs, (offset % bs) as usize, head)?;
        }
        self.read_blocks((offset + head.len() as u64) / bs, core)?;
        if !tail.is_empty() {
            self.read_partial(end / bs, 0, tail)?;
        }
        Ok(())
    }

    /// Write `data` into the logical byte stream at `offset`, growing the
    /// allocation to cover it. Partial blocks are read-modify-written.
    ///
    /// Whole-block spans are translated into maximal per-device runs;
    /// on parity files the runs carry the parity rows too — whole
    /// stripes are written without a read, and only a partial stripe at
    /// either end reads before it writes.
    ///
    /// The span holds every logical block it touches until it returns,
    /// so no other write lands between a partial block's read and its
    /// write; writes into other blocks proceed at once.
    pub fn write_span(&self, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.block_size() as u64;
        let end = offset + data.len() as u64;
        self.ensure_capacity_records(end.div_ceil(self.record_size as u64))?;
        // Elided under `--cfg pario_check_demo`, which brings the lost
        // update back on purpose for the checker's regression test.
        #[cfg(not(all(pario_check, pario_check_demo)))]
        let _blocks = self.state.blocks.acquire(offset / bs, end.div_ceil(bs));
        let (head, core) = self.split_span(offset, data.len());
        let (head, rest) = data.split_at(head);
        let (core, tail) = rest.split_at(core);
        if !head.is_empty() {
            self.rmw_partial(offset / bs, (offset % bs) as usize, head)?;
        }
        self.write_blocks((offset + head.len() as u64) / bs, core)?;
        if !tail.is_empty() {
            self.rmw_partial(end / bs, 0, tail)?;
        }
        Ok(())
    }

    /// The refusal of `records` records, or of record `records`, whose
    /// bytes end past what a `u64` byte offset can address.
    fn unaddressable(&self, records: u64) -> FsError {
        FsError::OutOfBounds {
            record: records,
            len: u64::MAX / self.record_size as u64,
        }
    }

    /// Byte range `[start, end)` of records `first..first + n` in the
    /// file's byte stream, or `OutOfBounds` (naming `first`) where a
    /// byte offset cannot address their end.
    pub fn record_bytes(&self, first: u64, n: u64) -> Result<(u64, u64)> {
        let rs = self.record_size as u64;
        match first.checked_add(n).and_then(|end| end.checked_mul(rs)) {
            Some(end) => Ok((end - n * rs, end)),
            None => Err(self.unaddressable(first)),
        }
    }

    /// The number of whole records in a buffer of `len` bytes.
    fn whole_records(&self, len: usize) -> u64 {
        assert!(len.is_multiple_of(self.record_size), "record buffer size");
        (len / self.record_size) as u64
    }

    /// Read records `first..first + n` into `out` (`n` whole records),
    /// as one span. Every one must be below the file length.
    pub fn read_records(&self, first: u64, out: &mut [u8]) -> Result<()> {
        let n = self.whole_records(out.len());
        let len = self.len_records();
        if first.checked_add(n).is_none_or(|end| end > len) {
            return Err(FsError::OutOfBounds {
                record: first.max(len),
                len,
            });
        }
        self.read_span(self.record_bytes(first, n)?.0, out)
    }

    /// Write records `first..first + n` from `data` (`n` whole records),
    /// as one span, extending the file length to cover them. A run
    /// whose bytes no offset can address is refused before anything is
    /// written.
    pub fn write_records(&self, first: u64, data: &[u8]) -> Result<()> {
        let n = self.whole_records(data.len());
        self.write_span(self.record_bytes(first, n)?.0, data)?;
        if n > 0 {
            self.extend_len_records(first + n);
        }
        Ok(())
    }

    /// Read record `r` (must be below the file length).
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        assert_eq!(out.len(), self.record_size, "record buffer size");
        self.read_records(r, out)
    }

    /// Write record `r`, extending the file length to cover it: exactly
    /// the bytes [`record_bytes(r, 1)`](Self::record_bytes) names.
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        assert_eq!(data.len(), self.record_size, "record buffer size");
        self.write_records(r, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{FileSpec, Volume, VolumeConfig};

    const BS: usize = 256;

    fn vol(devices: usize) -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices,
            device_blocks: 512,
            block_size: BS,
        })
        .unwrap()
    }

    fn record(r: u64, size: usize) -> Vec<u8> {
        (0..size).map(|i| (r as usize * 31 + i) as u8).collect()
    }

    fn round_trip(f: &RawFile, n: u64) {
        let rs = f.record_size();
        for r in 0..n {
            f.write_record(r, &record(r, rs)).unwrap();
        }
        assert_eq!(f.len_records(), n);
        let mut buf = vec![0u8; rs];
        for r in (0..n).rev() {
            f.read_record(r, &mut buf).unwrap();
            assert_eq!(buf, record(r, rs), "record {r}");
        }
    }

    #[test]
    fn striped_round_trip_with_straddling_records() {
        let v = vol(4);
        // 100-byte records over 256-byte blocks: records straddle blocks.
        let f = v
            .create_file(FileSpec::new(
                "s",
                100,
                4,
                LayoutSpec::Striped {
                    devices: 4,
                    unit: 1,
                },
            ))
            .unwrap();
        round_trip(&f, 50);
    }

    #[test]
    fn partitioned_round_trip() {
        let v = vol(2);
        // 64 records of 64 bytes = 4096 bytes = 16 blocks; 2 partitions.
        let f = v
            .create_file(
                FileSpec::new(
                    "ps",
                    64,
                    8,
                    LayoutSpec::Partitioned {
                        bounds: vec![0, 8, 16],
                        devices: 2,
                    },
                )
                .fixed_capacity(64),
            )
            .unwrap();
        round_trip(&f, 64);
    }

    #[test]
    fn fixed_capacity_rejects_overflow() {
        let v = vol(2);
        let f = v
            .create_file(
                FileSpec::new(
                    "ps",
                    64,
                    8,
                    LayoutSpec::Partitioned {
                        bounds: vec![0, 8, 16],
                        devices: 2,
                    },
                )
                .fixed_capacity(64),
            )
            .unwrap();
        let rec = record(64, 64);
        assert!(matches!(
            f.write_record(64, &rec),
            Err(FsError::CapacityExceeded { .. })
        ));
    }

    /// Record 2^58 of 64-byte records starts at byte 2^64: the offset
    /// wrapped to 0, so the write landed on record 0 and published a
    /// length of 2^58 + 1 (a debug build panicked on the multiply).
    #[test]
    fn a_record_whose_offset_overflows_is_refused_before_any_write() {
        let v = vol(2);
        let f = v
            .create_file(FileSpec::new(
                "gda",
                64,
                4,
                LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            ))
            .unwrap();
        f.write_record(0, &record(0, 64)).unwrap();
        for r in [1u64 << 58, u64::MAX / 64, u64::MAX] {
            assert_eq!(
                f.write_record(r, &[7; 64]),
                Err(FsError::OutOfBounds {
                    record: r,
                    len: u64::MAX / 64
                })
            );
            assert!(f.record_bytes(r, 1).is_err());
        }
        assert!(f.ensure_capacity_records(1 << 58).is_err());
        assert_eq!(f.len_records(), 1);
        let mut back = [0u8; 64];
        f.read_record(0, &mut back).unwrap();
        assert_eq!(back[..], record(0, 64)[..]);
        let last = u64::MAX / 64 - 1;
        assert_eq!(f.record_bytes(last, 1), Ok((last * 64, last * 64 + 64)));
    }

    #[test]
    fn reads_past_length_rejected() {
        let v = vol(1);
        let f = v
            .create_file(FileSpec::new(
                "f",
                32,
                1,
                LayoutSpec::Striped {
                    devices: 1,
                    unit: 1,
                },
            ))
            .unwrap();
        f.write_record(0, &record(0, 32)).unwrap();
        let mut buf = vec![0u8; 32];
        assert!(matches!(
            f.read_record(1, &mut buf),
            Err(FsError::OutOfBounds { record: 1, len: 1 })
        ));
    }

    #[test]
    fn sparse_write_reads_zero_gaps() {
        let v = vol(2);
        let f = v
            .create_file(FileSpec::new(
                "gda",
                64,
                1,
                LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            ))
            .unwrap();
        f.write_record(10, &record(10, 64)).unwrap();
        assert_eq!(f.len_records(), 11);
        let mut buf = vec![0u8; 64];
        f.read_record(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "gap records read as zeros");
        f.read_record(10, &mut buf).unwrap();
        assert_eq!(buf, record(10, 64));
    }

    #[test]
    fn shadow_survives_primary_failure() {
        let v = vol(4);
        let f = v
            .create_file(FileSpec::new(
                "sh",
                BS,
                1,
                LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                })),
            ))
            .unwrap();
        round_trip(&f, 10);
        // Fail primary device 0; reads fall over to its shadow (slot 2).
        v.device(0).fail();
        let mut buf = vec![0u8; BS];
        for r in 0..10 {
            f.read_record(r, &mut buf).unwrap();
            assert_eq!(buf, record(r, BS), "record {r} after primary failure");
        }
        // Writes continue on the surviving copy.
        f.write_record(3, &record(77, BS)).unwrap();
        f.read_record(3, &mut buf).unwrap();
        assert_eq!(buf, record(77, BS));
    }

    #[test]
    fn shadow_fails_only_when_both_copies_fail() {
        let v = vol(2);
        let f = v
            .create_file(FileSpec::new(
                "sh",
                BS,
                1,
                LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                    devices: 1,
                    unit: 1,
                })),
            ))
            .unwrap();
        f.write_record(0, &record(0, BS)).unwrap();
        v.device(0).fail();
        v.device(1).fail();
        let mut buf = vec![0u8; BS];
        assert!(f.read_record(0, &mut buf).is_err());
        assert!(f.write_record(0, &record(1, BS)).is_err());
    }

    fn parity_file(v: &Volume, rotated: bool) -> RawFile {
        v.create_file(FileSpec::new(
            "par",
            BS,
            1,
            LayoutSpec::Parity {
                data_devices: 3,
                rotated,
            },
        ))
        .unwrap()
    }

    #[test]
    fn parity_degraded_read_reconstructs() {
        for rotated in [false, true] {
            let v = vol(4);
            let f = parity_file(&v, rotated);
            round_trip(&f, 12);
            // Fail each device in turn (healing between) and verify every
            // record reconstructs.
            for dead in 0..4 {
                v.device(dead).fail();
                let mut buf = vec![0u8; BS];
                for r in 0..12 {
                    f.read_record(r, &mut buf).unwrap();
                    assert_eq!(
                        buf,
                        record(r, BS),
                        "rotated={rotated} dead={dead} record {r}"
                    );
                }
                v.device(dead).heal();
            }
        }
    }

    #[test]
    fn parity_degraded_write_preserves_reconstruction() {
        let v = vol(4);
        let f = parity_file(&v, false);
        round_trip(&f, 12);
        // Fail a data device, then OVERWRITE a record that lives on it.
        v.device(1).fail();
        let newrec = record(99, BS);
        f.write_record(1, &newrec).unwrap();
        // Still failed: the new value must come back via reconstruction.
        let mut buf = vec![0u8; BS];
        f.read_record(1, &mut buf).unwrap();
        assert_eq!(buf, newrec);
        // Other records unharmed.
        f.read_record(2, &mut buf).unwrap();
        assert_eq!(buf, record(2, BS));
    }

    #[test]
    fn parity_tolerates_parity_device_failure() {
        let v = vol(4);
        let f = parity_file(&v, false); // dedicated parity on slot 3
        round_trip(&f, 6);
        v.device(3).fail();
        // Writes and reads proceed unprotected.
        f.write_record(0, &record(50, BS)).unwrap();
        let mut buf = vec![0u8; BS];
        f.read_record(0, &mut buf).unwrap();
        assert_eq!(buf, record(50, BS));
    }

    #[test]
    fn raid4_parity_device_is_a_write_hotspot_raid5_is_not() {
        // The design choice behind rotated parity: with a dedicated
        // parity device (RAID-4), EVERY logical write also writes that
        // one device; rotation (RAID-5) spreads the load.
        let count_writes = |rotated: bool| -> Vec<u64> {
            let v = vol(4);
            // Preallocated, so the writes below grow nothing: no journal
            // append lands on device 0 to skew the data-path
            // distribution this test measures.
            let f = v
                .create_file(
                    FileSpec::new(
                        "p",
                        BS,
                        1,
                        LayoutSpec::Parity {
                            data_devices: 3,
                            rotated,
                        },
                    )
                    .initial_records(48),
                )
                .unwrap();
            let before: Vec<u64> = (0..4).map(|d| v.device(d).counters().writes).collect();
            for r in 0..48u64 {
                f.write_record(r, &record(r, BS)).unwrap();
            }
            (0..4)
                .map(|d| v.device(d).counters().writes - before[d])
                .collect()
        };
        let raid4 = count_writes(false);
        // Dedicated parity on slot 3: one parity write per logical write;
        // each data device only sees its 1/3 share.
        let data_max = raid4[..3].iter().max().unwrap();
        assert!(
            raid4[3] >= data_max + 30,
            "RAID-4 hotspot missing: {raid4:?}"
        );
        let raid5 = count_writes(true);
        let max = *raid5.iter().max().unwrap();
        let min = *raid5.iter().min().unwrap();
        assert!(max < min * 2, "RAID-5 should balance writes: {raid5:?}");
    }

    #[test]
    fn unprotected_file_loses_failed_device() {
        let v = vol(2);
        let f = v
            .create_file(FileSpec::new(
                "plain",
                BS,
                1,
                LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            ))
            .unwrap();
        round_trip(&f, 4);
        v.device(1).fail();
        let mut buf = vec![0u8; BS];
        // Records on device 0 still readable; device 1's are gone.
        assert!(f.read_record(0, &mut buf).is_ok());
        assert!(f.read_record(1, &mut buf).is_err());
    }

    #[test]
    fn span_io_arbitrary_offsets() {
        let v = vol(3);
        let f = v
            .create_file(FileSpec::new(
                "sp",
                1,
                1,
                LayoutSpec::Striped {
                    devices: 3,
                    unit: 2,
                },
            ))
            .unwrap();
        let data: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
        f.write_span(123, &data).unwrap();
        let mut out = vec![0u8; 2000];
        f.read_span(123, &mut out).unwrap();
        assert_eq!(out, data);
        // Sub-block read in the middle.
        let mut mid = vec![0u8; 10];
        f.read_span(700, &mut mid).unwrap();
        assert_eq!(mid, data[700 - 123..710 - 123]);
    }

    #[test]
    fn fixed_capacity_caps_even_when_allocation_rounds_up() {
        let v = vol(2);
        // 10 records of 64 bytes = 640 bytes → 3 blocks of 256 → the
        // allocation could hold 12 records, but the fixed cap is 10.
        let f = v
            .create_file(
                FileSpec::new(
                    "cap",
                    64,
                    4,
                    LayoutSpec::Striped {
                        devices: 2,
                        unit: 1,
                    },
                )
                .fixed_capacity(10),
            )
            .unwrap();
        f.ensure_capacity_records(10).unwrap();
        assert!(f.nblocks() * BS as u64 / 64 > 10, "allocation rounds up");
        assert!(matches!(
            f.ensure_capacity_records(11),
            Err(FsError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn overwrite_takes_the_meta_lock_shared_only() {
        let v = vol(2);
        let f = v
            .create_file(FileSpec::new(
                "ow",
                64,
                4,
                LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                },
            ))
            .unwrap();
        round_trip(&f, 16);
        // A reader of the metadata is in the way of nothing an overwrite
        // needs: had `write_record` asked for `meta` exclusively (as the
        // capacity check and the length update both did), it would sit
        // behind this guard until the wait below gave up.
        let reader = f.state.meta.read();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                f.write_record(5, &record(99, 64)).unwrap();
                done.send(()).unwrap();
            });
            let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
            drop(reader);
            waited.expect("an overwrite of allocated space stalled behind a meta reader");
        });
        let mut buf = vec![0u8; 64];
        f.read_record(5, &mut buf).unwrap();
        assert_eq!(buf, record(99, 64));
    }

    #[test]
    fn whole_block_spans_coalesce_into_per_device_runs() {
        let v = vol(4);
        let f = v
            .create_file(FileSpec::new(
                "co",
                BS,
                1,
                LayoutSpec::Striped {
                    devices: 4,
                    unit: 2,
                },
            ))
            .unwrap();
        let nblocks = 64u64;
        f.ensure_capacity_records(nblocks).unwrap();
        let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
        let data: Vec<u8> = (0..nblocks as usize * BS)
            .map(|i| (i % 241) as u8)
            .collect();
        f.write_span(0, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        f.read_span(0, &mut out).unwrap();
        assert_eq!(out, data);
        let (mut reqs, mut blocks) = (0u64, 0u64);
        for (d, b) in before.iter().enumerate() {
            let c = v.device(d).counters();
            reqs += (c.reads - b.reads) + (c.writes - b.writes);
            blocks += (c.blocks_read - b.blocks_read) + (c.blocks_written - b.blocks_written);
        }
        assert_eq!(
            blocks,
            2 * nblocks,
            "every block moved exactly once per direction"
        );
        // Striped unit-2 keeps each device's share contiguous, so the
        // whole span is one run per device per direction (modulo extent
        // splits) — far below the 128 per-block requests it replaced.
        assert!(reqs <= 16, "expected coalesced requests, got {reqs}");
    }

    /// The layouts whose runs cross extent segments below: striped,
    /// shadowed and rotated parity, each over four devices at most.
    fn segmented_specs() -> [LayoutSpec; 3] {
        let striped = LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        };
        [
            striped.clone(),
            LayoutSpec::Shadowed(Box::new(striped)),
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: true,
            },
        ]
    }

    /// Files `f` and `g` of layout `spec` on a fresh volume, grown in
    /// turn so that their extents interleave: every slot of `f` holds
    /// its rows in more than one extent segment.
    fn segmented(spec: &LayoutSpec) -> (Volume, RawFile, RawFile) {
        let v = vol(4);
        let create = |name| FileSpec::new(name, BS, 1, spec.clone());
        let f = v.create_file(create("f")).unwrap();
        let g = v.create_file(create("g")).unwrap();
        for step in 1..=4 {
            f.ensure_capacity_records(step * 12).unwrap();
            g.ensure_capacity_records(step * 12).unwrap();
        }
        let extents = f.meta_snapshot().extents;
        assert!(extents.iter().all(|e| e.len() > 1), "{spec:?}: {extents:?}");
        (v, f, g)
    }

    /// The whole of `f`, a pattern of its own for each `seed`, written
    /// as one span.
    fn write_whole(f: &RawFile, seed: u8) -> Vec<u8> {
        let data: Vec<u8> = (0..f.nblocks() as usize * BS)
            .map(|i| (i % 239) as u8 ^ seed)
            .collect();
        f.write_span(0, &data).unwrap();
        data
    }

    /// Device reads across the volume's four devices since `before`.
    fn reads_since(v: &Volume, before: &[pario_disk::IoCounters]) -> u64 {
        let now = (0..4).map(|d| v.device(d).counters().reads);
        now.zip(before).map(|(n, b)| n - b.reads).sum()
    }

    /// Files grown in turn interleave their extents, so one device run
    /// crosses extent segments: each segment is one device write of
    /// exactly its blocks — data, mirror copies and parity rows alike —
    /// and the span reads back.
    #[test]
    fn a_run_across_extent_segments_writes_each_segment_once() {
        for spec in segmented_specs() {
            let (v, f, _) = segmented(&spec);
            let extents = f.meta_snapshot().extents;
            let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
            let data = write_whole(&f, 0);
            let (mut writes, mut blocks) = (0, 0);
            for (d, b) in before.iter().enumerate() {
                let c = v.device(d).counters();
                assert_eq!(
                    c.reads, b.reads,
                    "{spec:?}: a whole-file span reads nothing"
                );
                writes += c.writes - b.writes;
                blocks += c.blocks_written - b.blocks_written;
            }
            let segments: usize = extents.iter().map(|e| e.len()).sum();
            let allocated: u64 = extents.iter().map(|e| crate::alloc::extents_len(e)).sum();
            assert_eq!((writes, blocks), (segments as u64, allocated), "{spec:?}");
            let mut out = vec![0u8; data.len()];
            f.read_span(0, &mut out).unwrap();
            assert_eq!(out, data, "{spec:?}");
        }
    }

    /// A run that crosses extent segments is read as one buffer, its
    /// segments joined in device order, whichever way it is read:
    /// healthy, one device read per segment; on a parity file with a
    /// device failed, through the segmented survivor columns the
    /// reconstruction joins; and on a shadowed file whose primary is
    /// Suspect, copy by copy — a run in several segments is not raced —
    /// with every segment of both copies read. `g` is written after `f`
    /// with other bytes, so a staging buffer a join takes holds none of
    /// `f`'s: a segment the join dropped would read back as `g`'s.
    #[test]
    fn a_run_across_extent_segments_reads_back_joined() {
        for spec in segmented_specs() {
            let (v, f, g) = segmented(&spec);
            let segments: Vec<u64> = f
                .meta_snapshot()
                .extents
                .iter()
                .map(|e| e.len() as u64)
                .collect();
            let data = write_whole(&f, 0);
            write_whole(&g, 0xFF);
            // A shadowed file reads its primaries, slots 0 and 1.
            let read: u64 = match spec {
                LayoutSpec::Shadowed(_) => segments[..2].iter().sum(),
                _ => segments.iter().sum(),
            };
            let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
            let mut out = vec![0u8; data.len()];
            f.read_span(0, &mut out).unwrap();
            assert!(out == data, "{spec:?}: healthy read");
            assert_eq!(reads_since(&v, &before), read, "{spec:?}");
        }

        let [_, shadowed, parity] = segmented_specs();
        let (v, f, g) = segmented(&parity);
        let data = write_whole(&f, 0);
        write_whole(&g, 0xFF);
        v.device(f.slot_vdev(1)).fail();
        let mut out = vec![0u8; data.len()];
        f.read_span(0, &mut out).unwrap();
        assert!(out == data, "parity read with slot 1 failed");

        let (v, f, g) = segmented(&shadowed);
        let segments: Vec<u64> = f
            .meta_snapshot()
            .extents
            .iter()
            .map(|e| e.len() as u64)
            .collect();
        let data = write_whole(&f, 0);
        write_whole(&g, 0xFF);
        let home = f.slot_vdev(0);
        let transient = DiskError::Transient {
            device: "primary".into(),
        };
        for _ in 0..v.health().policy().suspect_after {
            v.health().note_error(home, &transient, || false);
        }
        assert_eq!(v.health().state(home), HealthState::Suspect);
        let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
        let mut out = vec![0u8; data.len()];
        f.read_span(0, &mut out).unwrap();
        assert!(out == data, "shadowed read with a Suspect primary");
        // Slot 0 and its mirror, slot 2, in full; slot 1 alone.
        let both = segments[0] + segments[2] + segments[1];
        assert_eq!(reads_since(&v, &before), both);
    }

    #[test]
    fn coalesced_span_survives_shadow_primary_failure() {
        let v = vol(4);
        let f = v
            .create_file(FileSpec::new(
                "shspan",
                BS,
                1,
                LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                    devices: 2,
                    unit: 1,
                })),
            ))
            .unwrap();
        let data: Vec<u8> = (0..32 * BS).map(|i| (i % 239) as u8).collect();
        f.write_span(0, &data).unwrap();
        v.device(0).fail();
        let mut out = vec![0u8; data.len()];
        f.read_span(0, &mut out).unwrap();
        assert_eq!(out, data, "mirror runs serve the whole span");
        // Writes still land on the surviving copies.
        let data2: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
        f.write_span(0, &data2).unwrap();
        let mut out2 = vec![0u8; data2.len()];
        f.read_span(0, &mut out2).unwrap();
        assert_eq!(out2, data2);
    }

    #[test]
    fn coalesced_span_reconstructs_through_parity() {
        let v = vol(4);
        let f = parity_file(&v, true);
        let data: Vec<u8> = (0..12 * BS).map(|i| (i % 233) as u8).collect();
        f.write_span(0, &data).unwrap();
        for dead in 0..4 {
            v.device(dead).fail();
            let mut out = vec![0u8; data.len()];
            f.read_span(0, &mut out).unwrap();
            assert_eq!(out, data, "dead={dead}");
            v.device(dead).heal();
        }
    }

    /// A read routed before a rebuild's `quiesce_io` is read again at
    /// its wait: the device it read turned Rebuilding in between — its
    /// media stale, here written behind the board's back — so the span
    /// comes from the survivors instead.
    #[test]
    fn a_read_submitted_before_a_device_turns_rebuilding_never_returns_its_bytes() {
        let v = vol(4);
        let f = parity_file(&v, true);
        let data: Vec<u8> = (0..12 * BS).map(|i| (i % 233) as u8).collect();
        f.write_span(0, &data).unwrap();
        let meta = f.meta_snapshot();
        let stale = meta.device_map[0];
        let rows = f.device_blocks(0) as usize;
        let at = crate::alloc::resolve(&meta.extents[0], 0);
        let media = v.device(stale);
        media.write_blocks_at(at, &vec![0xEE; rows * BS]).unwrap();

        let mut got = vec![0u8; data.len()];
        let ticket = f.submit_read_blocks(0, &mut got);
        v.health().begin_rebuild(stale, || ());
        f.quiesce_io();
        ticket.wait(&f, Direct::Read(&mut got)).unwrap();
        assert!(
            got == data,
            "the read returned the Rebuilding device's bytes"
        );
    }

    /// Every row of layout slot `slot`, as the media holds it.
    fn rows_of(f: &RawFile, slot: usize) -> Vec<u8> {
        let mut rows = vec![0u8; f.device_blocks(slot) as usize * BS];
        f.read_device_rows(slot, 0, &mut rows).unwrap();
        rows
    }

    /// On a consistent file a slot's recomputed rows are its own, for
    /// every parity slot — 25 blocks leave two slots a row short — and
    /// for a shadow primary and its mirror alike, whole or in part. An
    /// unprotected file has nothing to recompute them from.
    #[test]
    fn recover_rows_equals_the_rows_it_recomputes() {
        let shadowed = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        }));
        let parity = |rotated| LayoutSpec::Parity {
            data_devices: 3,
            rotated,
        };
        for layout in [parity(false), parity(true), shadowed] {
            let v = vol(4);
            let spec = FileSpec::new("r", BS, 1, layout.clone()).initial_records(25);
            let f = v.create_file(spec).unwrap();
            round_trip(&f, 25);
            for slot in 0..4 {
                let held = rows_of(&f, slot);
                let mut got = vec![0xAAu8; held.len()];
                f.recover_rows(slot, 0, &mut got).unwrap();
                assert!(got == held, "{layout:?} slot {slot}");
                let mut part = vec![0xAAu8; 3 * BS];
                f.recover_rows(slot, 5, &mut part).unwrap();
                assert!(
                    part[..] == held[5 * BS..8 * BS],
                    "{layout:?} slot {slot} rows 5..8"
                );
            }
        }
        let v = vol(2);
        let plain = LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        };
        let f = v.create_file(FileSpec::new("plain", BS, 1, plain)).unwrap();
        round_trip(&f, 4);
        let mut row = vec![0u8; BS];
        let err = f.recover_rows(0, 0, &mut row).unwrap_err();
        assert!(matches!(err, FsError::BadSpec(_)), "{err:?}");
    }

    /// The row API and `recover_rows` return typed errors for a slot past
    /// the layout or rows past a slot's allocation, and move nothing.
    #[test]
    fn row_api_and_recover_rows_refuse_what_the_file_lacks() {
        let v = vol(4);
        let f = parity_file(&v, true);
        round_trip(&f, 12);
        let held = f.device_blocks(0);
        let mut row = vec![0u8; BS];
        let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
        for (slot, at) in [(9, 0), (4, 0), (0, 10_000), (0, held), (0, u64::MAX)] {
            let errs = [
                f.read_device_rows(slot, at, &mut row).unwrap_err(),
                f.write_device_rows(slot, at, &row).unwrap_err(),
                f.recover_rows(slot, at, &mut row).unwrap_err(),
            ];
            for err in errs {
                let typed = match slot {
                    0 => matches!(err, FsError::OutOfBounds { len, .. } if len == held),
                    _ => matches!(err, FsError::BadSpec(_)),
                };
                assert!(typed, "slot {slot} row {at}: {err:?}");
            }
        }
        let mut two = vec![0u8; 2 * BS];
        let err = f.read_device_rows(0, held - 1, &mut two).unwrap_err();
        assert!(matches!(err, FsError::OutOfBounds { .. }), "{err:?}");
        for (d, was) in before.iter().enumerate() {
            let now = v.device(d).counters();
            assert_eq!(
                (now.reads, now.writes),
                (was.reads, was.writes),
                "device {d}"
            );
        }
    }

    #[test]
    fn concurrent_parity_writers_keep_stripes_consistent() {
        let v = vol(4);
        let f = parity_file(&v, true);
        f.ensure_capacity_records(64).unwrap();
        let f = std::sync::Arc::new(f);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let f = std::sync::Arc::clone(&f);
                s.spawn(move || {
                    for r in 0..16u64 {
                        let idx = t * 16 + r;
                        f.write_record(idx, &record(idx, BS)).unwrap();
                    }
                });
            }
        });
        // Fail any device; everything must reconstruct.
        v.device(2).fail();
        let mut buf = vec![0u8; BS];
        for r in 0..64 {
            f.read_record(r, &mut buf).unwrap();
            assert_eq!(buf, record(r, BS), "record {r}");
        }
    }
}
