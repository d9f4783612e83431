//! `RawFile`: block- and record-level access to one file.
//!
//! This is the layer every internal view is built on. It owns three jobs:
//!
//! 1. **Address translation** — logical block → layout → device slot →
//!    extent → absolute device block. `RawFile::plan` turns a span of
//!    whole blocks into merged per-device runs and
//!    `RawFile::run_segments` resolves a run to device extents; every
//!    transfer, and the cache flush hooks, start from that one plan. A
//!    span that is one transfer moves straight between the device and
//!    the caller's buffer; any other is staged run by run, in buffers
//!    taken from and handed back to the volume's free list
//!    (`crate::staging`), so a warm span path allocates no block.
//! 2. **Redundancy maintenance** — one reader (`RawFile::read_blocks`)
//!    and one writer (`RawFile::write_blocks`) over whole blocks,
//!    whatever their count. `RawFile::route` is the only place device
//!    health steers a read; recovery is one step per redundancy (the
//!    other copy of a shadowed run, `RawFile::reconstruct` for a parity
//!    column), and parity is maintained by `RawFile::parity_write`.
//! 3. **Byte/record framing** — records are fixed-size spans of the
//!    logical byte stream and may straddle volume blocks; `read_span` /
//!    `write_span` handle the block arithmetic once, for everyone above,
//!    and hand their ragged ends to the same reader and writer as
//!    one-block spans.

use std::sync::atomic::Ordering;

use pario_check::AtomicU64;
use std::sync::Arc;

use pario_buffer::{CacheReadTicket, VolumeCache};
use pario_disk::{DeviceRef, DiskError, Ticket};
use pario_layout::{runs, Layout, LayoutSpec, ParityPlacement, ParityStriped, PhysBlock, Run};

use crate::error::{FsError, Result};
use crate::health::HealthState;
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
    state: Arc<FileState>,
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
/// [`RawFile::enter_io`]): either an entry in the file's unlocked-I/O
/// counter or, while a mapped device is Rebuilding, the stripe lock
/// itself.
struct IoPhase<'a> {
    counted: Option<&'a AtomicU64>,
    _stripe: Option<pario_check::MutexGuard<'a, ()>>,
}

impl Drop for IoPhase<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.counted {
            c.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Layout runs on one device whose device-local blocks are contiguous,
/// merged into a single transfer. The runs may be scattered through the
/// logical span (striping interleaves them); each part's window into the
/// span buffer follows from its logical block ([`RawFile::window`]), and
/// multi-part transfers go through a staging buffer. On the read side
/// `count` may exceed the parts' blocks by the parity holes read through
/// (see [`merge_runs`]) and by the rows a reconstruction widened the run
/// over.
struct MergedRun {
    device: usize,
    dblock: u64,
    count: u64,
    parts: Vec<Run>,
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

/// Group `pieces` by device, merging runs that continue the previous
/// run's device-local block range. Striped layouts collapse a whole
/// span into ONE merged run per device; partitioned layouts were one
/// run already; parity data blocks on one device sit at consecutive
/// stripe rows and merge the same way.
///
/// A gap made only of blocks `hole(device, dblock)` accepts — the
/// file's own rotated parity blocks, on the read side — is read through
/// rather than split at (data sieving: one block of discarded bytes
/// costs less than a request): the merged run covers it and no part
/// does, so [`RawFile::scatter`] drops it. Layouts without such
/// blocks pass `|_, _| false`, which is never called on a contiguous
/// continuation.
fn merge_runs(
    pieces: Vec<Run>,
    ndev: usize,
    hole: impl Fn(usize, u64) -> bool,
) -> Vec<Vec<MergedRun>> {
    let mut groups: Vec<Vec<MergedRun>> = (0..ndev).map(|_| Vec::new()).collect();
    for r in pieces {
        match groups[r.device].last_mut() {
            Some(m)
                if m.dblock + m.count <= r.dblock
                    && (m.dblock + m.count..r.dblock).all(|row| hole(r.device, row)) =>
            {
                m.count = r.dblock + r.count - m.dblock;
                m.parts.push(r);
            }
            _ => groups[r.device].push(MergedRun {
                device: r.device,
                dblock: r.dblock,
                count: r.count,
                parts: vec![r],
            }),
        }
    }
    groups
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

    /// Allocated logical blocks. For a growable file the allocation runs
    /// ahead of the appends (`Volume::grow_file`): the count includes
    /// zero-filled blocks past the last one written — at most as many
    /// again as were written, and never more than that function's
    /// `RUN_AHEAD`. What has been written is bounded by
    /// [`RawFile::len_records`].
    pub fn nblocks(&self) -> u64 {
        self.state.meta.read().nblocks
    }

    /// Records the file can hold without (or within fixed) growth. For
    /// a growable file that is the allocation, run-ahead included — an
    /// upper bound on what writes can land without a grow, not a count
    /// of what was asked for.
    pub fn capacity_records(&self) -> u64 {
        let meta = self.state.meta.read();
        let by_alloc = meta.nblocks * self.block_size() as u64 / self.record_size as u64;
        match meta.fixed_capacity_records {
            // A fixed capacity is the hard ceiling even when the eager
            // allocation rounds up to more whole blocks than it needs.
            Some(cap) => cap,
            None => by_alloc,
        }
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
        let lblocks = (records * self.record_size as u64).div_ceil(self.block_size() as u64);
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

    fn any_mapped_rebuilding(&self) -> bool {
        let meta = self.state.meta.read();
        meta.device_map
            .iter()
            .any(|&d| self.vol.health().state(d) == HealthState::Rebuilding)
    }

    /// Enter the unlocked-I/O window: increments the current
    /// generation's in-flight counter *before* the caller samples device
    /// health, while [`RawFile::quiesce_io`] flips health first and
    /// bumps the generation second — Dekker's protocol, so a rebuild
    /// can wait out every I/O that might have seen the old state.
    fn enter_io(&self) -> IoPhase<'_> {
        let g = self.state.io_gen.load(Ordering::SeqCst);
        let counter = &self.state.io_active[(g & 1) as usize];
        counter.fetch_add(1, Ordering::SeqCst);
        IoPhase {
            counted: Some(counter),
            _stripe: None,
        }
    }

    /// Write-side entry for shadowed layouts: the counted window
    /// normally, but while any mapped device is Rebuilding the write
    /// takes the stripe lock instead — resync copies its bursts under
    /// the same lock, so a live write can never interleave with the
    /// resync copy of its own block.
    fn enter_shadow_write(&self) -> IoPhase<'_> {
        let phase = self.enter_io();
        if self.any_mapped_rebuilding() {
            drop(phase);
            IoPhase {
                counted: None,
                _stripe: Some(self.state.stripe_lock.lock()),
            }
        } else {
            phase
        }
    }

    /// Wait until every unlocked I/O that began before this call has
    /// drained. Recovery tooling calls this after flipping a device to
    /// Rebuilding so no straggler that sampled the old health state is
    /// still touching the device. I/O that enters afterwards routes by
    /// the new state (degraded reads, stripe-locked shadow writes) and
    /// counts against the next generation, so the wait terminates even
    /// under continuous foreground traffic.
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
    // Single blocks and recovery tooling
    // ------------------------------------------------------------------

    /// Read rows `[row, row + out.len() / bs)` of every slot in `slots`,
    /// as far as each holds them, in one wave and XOR them into `out` —
    /// the one place parity rows are folded together: a partial-stripe
    /// write's old blocks ([`RawFile::parity_reads`]), and the rows
    /// [`RawFile::recover_rows`] recomputes and
    /// [`RawFile::scrub_rows`] checks. One run per slot; every run is
    /// submitted (cache tier or executor) before any is waited for, so on
    /// devices slower than a hand-off they overlap; an idle I/O node whose
    /// transfers cost less than waking its worker runs the read on the
    /// calling thread instead (DESIGN §7). Every ticket is waited out and
    /// feeds the health board; `out` is touched only if all of them
    /// succeeded.
    fn xor_slots(
        &self,
        slots: impl IntoIterator<Item = usize>,
        row: u64,
        out: &mut [u8],
    ) -> Result<()> {
        let bs = self.block_size();
        let end = row + (out.len() / bs) as u64;
        let submit = |slot: usize| {
            let held = end.min(self.device_blocks(slot)).saturating_sub(row);
            (held > 0).then(|| (slot, self.submit_read_run(slot, row, held, false)))
        };
        let inflight: Vec<_> = slots.into_iter().filter_map(submit).collect();
        let wait = |(slot, tickets)| self.wait_read_run(slot, tickets);
        let columns: Vec<_> = inflight.into_iter().map(wait).collect();
        for bufs in columns.into_iter().collect::<Result<Vec<_>>>()? {
            let column = self.concat(bufs);
            xor_rows(out, row, &column, row, bs);
            self.recycle(column);
        }
        Ok(())
    }

    /// Read logical block `l` (must be allocated): a one-block span,
    /// routed and recovered as every read is (`read_blocks`).
    pub fn read_lblock(&self, l: u64, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len(), self.block_size());
        let nblocks = self.nblocks();
        if l >= nblocks {
            return Err(FsError::OutOfBounds {
                record: l,
                len: nblocks,
            });
        }
        self.read_blocks(l, buf)
    }

    /// Write logical block `l`, growing the file to cover it: a
    /// one-block span (`write_blocks`). Parity is maintained
    /// by a read-modify-write, or a reconstruct-write when the stripe's
    /// peers are fewer to read; shadows receive a second copy.
    pub fn write_lblock(&self, l: u64, data: &[u8]) -> Result<()> {
        debug_assert_eq!(data.len(), self.block_size());
        if l >= self.nblocks() {
            let records = ((l + 1) * self.block_size() as u64).div_ceil(self.record_size as u64);
            self.ensure_capacity_records(records)?;
        }
        self.write_blocks(l, data)
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
    /// [`RawFile::lock_stripes`], so no write lands between the reads
    /// and the rows' use. A slot past the layout or rows past
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
                self.read_device_rows(&mut [(partner, row, out)])
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
    /// [`RawFile::lock_stripes`].
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

    /// Read device rows in one wave — **recovery tooling only**: bypasses
    /// redundancy logic. Each run `(slot, first row, buf)` fills `buf`,
    /// whole blocks, from consecutive device-local rows of layout slot
    /// `slot`; a slot past the layout or rows past
    /// [`RawFile::device_blocks`] refuse the wave before anything is
    /// read. Every run is submitted (through the cache tier, where there
    /// is one) before any is waited for, so the slots' devices work at
    /// once; every ticket is waited out and feeds the health board; the
    /// first error is the wave's.
    pub fn read_device_rows(&self, runs: &mut [(usize, u64, &mut [u8])]) -> Result<()> {
        for (slot, row, buf) in runs.iter() {
            self.check_rows(*slot, *row, self.rows_in(buf))?;
        }
        let submit = |(slot, row, buf): &(usize, u64, &mut [u8])| {
            self.submit_read_run(*slot, *row, self.rows_in(buf), false)
        };
        let inflight: Vec<_> = runs.iter().map(submit).collect();
        let mut outcome = Ok(());
        for ((slot, _, buf), tickets) in runs.iter_mut().zip(inflight) {
            match self.wait_read_run(*slot, tickets) {
                Ok(bufs) => {
                    let run = self.concat(bufs);
                    buf.copy_from_slice(&run);
                    self.recycle(run);
                }
                Err(e) => outcome = outcome.and(Err(e)),
            }
        }
        outcome
    }

    /// [`RawFile::read_device_rows`] for one block.
    pub fn read_device_block(&self, slot: usize, dblock: u64, buf: &mut [u8]) -> Result<()> {
        self.read_device_rows(&mut [(slot, dblock, buf)])
    }

    /// Write device rows in one wave — **recovery tooling only**: bypasses
    /// parity maintenance and shadow duplication entirely. Each run
    /// `(slot, first row, data)` lands `data`, whole blocks, on
    /// consecutive device-local rows of layout slot `slot`; a slot past
    /// the layout or rows past [`RawFile::device_blocks`] refuse the wave
    /// before anything is written. All runs are submitted before any is
    /// waited for, every ticket is waited out and feeds the health board,
    /// and the first error is the wave's. Rebuilt data must be durable on
    /// media whatever the cache policy, so the wave goes to the executor
    /// past the tier and drops every frame that covered its rows.
    pub fn write_device_rows(&self, runs: &[(usize, u64, &[u8])]) -> Result<()> {
        for &(slot, row, data) in runs {
            self.check_rows(slot, row, self.rows_in(data))?;
        }
        // Invalidate on both sides of the raw write: before, so a
        // write-back of a block already in flight lands first instead
        // of on top of the rebuilt data; after, to drop what a reader
        // filled in between.
        let cache = self.vol.cache().map(|c| {
            let rows = runs
                .iter()
                .map(|&(slot, row, data)| (slot, row, self.rows_in(data)));
            (c, self.device_extents(rows))
        });
        if let Some((c, extents)) = &cache {
            c.invalidate_ranges(extents);
        }
        let submit = |&(slot, row, data): &(usize, u64, &[u8])| {
            let mut staged = self.vol.staging().take(data.len());
            staged.copy_from_slice(data);
            (slot, self.submit_media_write(slot, row, staged))
        };
        let inflight: Vec<_> = runs.iter().map(submit).collect();
        let wait = |(slot, tickets)| self.wait_write_run(slot, tickets);
        let written = inflight.into_iter().map(wait).fold(Ok(()), Result::and);
        if let Some((c, extents)) = &cache {
            c.invalidate_ranges(extents);
        }
        written
    }

    /// [`RawFile::write_device_rows`] for one block.
    pub fn write_device_block(&self, slot: usize, dblock: u64, data: &[u8]) -> Result<()> {
        self.write_device_rows(&[(slot, dblock, data)])
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

    /// Take the file's stripe lock for a multi-step recovery operation
    /// (quiesces parity read-modify-write cycles).
    pub fn lock_stripes(&self) -> pario_check::MutexGuard<'_, ()> {
        self.state.stripe_lock.lock()
    }

    /// Write whole blocks `[first, first + data.len() / bs)` of a parity
    /// file, planned stripe by stripe under the stripe lock. Each stripe
    /// contributes its new data blocks and its new parity block to one
    /// staging run per device; the runs — rows of data and parity alike
    /// — leave in ONE wave, all submitted before any is waited for.
    ///
    /// A stripe the span covers needs no reads: its parity is the XOR of
    /// the caller's bytes, so no health state matters to it (Rebuilding
    /// media takes the write, a Failed device's run reports fail-stop
    /// below). The partial stripes at the ragged ends — and the single
    /// block of [`RawFile::write_lblock`] — fold old blocks in through
    /// [`RawFile::parity_reads`] first, before anything is written.
    ///
    /// Failure contract: one fail-stop device among the runs is the
    /// redundancy's to absorb — whichever of a stripe's blocks it held,
    /// the survivors reconstruct the new bytes. Any other write error,
    /// or a second fail-stop, fails the span and leaves the stripes it
    /// covers unspecified until rewritten (`scrub`/`repair` is the
    /// recourse, as for a torn read-modify-write).
    fn parity_write(&self, ps: &ParityStriped, first: u64, data: &[u8]) -> Result<()> {
        let _g = self.state.stripe_lock.lock();
        let bs = self.block_size();
        let (w, total) = (ps.stripe_width() as u64, self.nblocks());
        let end = first + (data.len() / bs) as u64;
        let (s0, s1) = (ps.stripe_of(first), ps.stripe_of(end - 1) + 1);
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
        let inflight: Vec<_> = staged
            .into_iter()
            .enumerate()
            .filter(|(_, (_, run))| !run.is_empty())
            .map(|(slot, (row, run))| (slot, self.submit_write_run(slot, row, run)))
            .collect();
        let (mut down, mut failed) = (false, None);
        for (slot, tickets) in inflight {
            match self.wait_write_run(slot, tickets) {
                Err(FsError::Disk(DiskError::DeviceFailed { .. })) if !down => down = true,
                Err(e) => failed = failed.or(Some(e)),
                Ok(()) => {}
            }
        }
        failed.map_or(Ok(()), Err)
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
        touched: std::ops::Range<u64>,
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
    /// `[first, first + count)` as merged per-device runs. With `sieve`
    /// (reads, and the extents a write touches) a parity file's runs
    /// cover the parity blocks between their data blocks.
    fn plan(&self, first: u64, count: u64, sieve: bool) -> Vec<Vec<MergedRun>> {
        let hole = |device: usize, row: u64| match &self.redundancy {
            Redundancy::Parity(ps) if sieve => ps.parity_device(row) == device,
            _ => false,
        };
        let pieces = runs(&*self.layout, first, count);
        merge_runs(pieces, self.layout.devices(), hole)
    }

    /// The bytes of layout run `r` in the buffer of a span that starts
    /// at logical block `first`. Runs come in logical order, so the
    /// windows of a span's runs partition its buffer exactly.
    fn window(&self, first: u64, r: &Run) -> std::ops::Range<usize> {
        let bs = self.block_size();
        let at = (r.lblock - first) as usize * bs;
        at..at + r.count as usize * bs
    }

    /// Split the device-local range `[dblock, dblock + count)` of layout
    /// slot `slot` at extent boundaries, resolving each piece to an
    /// absolute block on the device's I/O-executor handle (so segment
    /// transfers can be submitted asynchronously).
    fn run_segments(&self, slot: usize, dblock: u64, count: u64) -> Vec<(DeviceRef, u64, u64)> {
        let meta = self.state.meta.read();
        let dev = self.vol.io_device(meta.device_map[slot]);
        let mut out = Vec::new();
        let mut local = dblock;
        let mut remaining = count;
        for e in &meta.extents[slot] {
            if remaining == 0 {
                break;
            }
            if local >= e.len {
                local -= e.len;
                continue;
            }
            let take = (e.len - local).min(remaining);
            out.push((Arc::clone(&dev), e.start + local, take));
            remaining -= take;
            local = 0;
        }
        assert_eq!(remaining, 0, "run extends past allocated extents");
        out
    }

    /// The one device transfer behind rows `[dblock, dblock + count)` of
    /// `slot`, when they are exactly that: one extent segment with no
    /// cache tier in front. A span that plans to a single such transfer
    /// has nothing to fan out, so its caller blocks on the executor
    /// handle's synchronous call — which an idle I/O node runs on the
    /// calling thread, straight on the caller's window — instead of
    /// submit + wait through a gathered or staged copy. Returns the
    /// handle and absolute block; `None` leaves the run on the submit
    /// path.
    fn direct_segment(&self, slot: usize, dblock: u64, count: u64) -> Option<(DeviceRef, u64)> {
        if self.vol.cache().is_some() {
            return None;
        }
        let mut segs = self.run_segments(slot, dblock, count);
        match segs.pop() {
            Some((dev, abs, _)) if segs.is_empty() => Some((dev, abs)),
            _ => None,
        }
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
    /// ticket per extent segment, all enqueued before returning. On
    /// cached volumes each segment goes through the tier — hits are
    /// copied immediately and adjacent misses coalesce into one vectored
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
        let submit = |(dev, abs, n): (DeviceRef, u64, u64)| match cache {
            Some((c, vdev)) => RunTicket::CacheRead(c.submit_read(vdev, abs, n as usize)),
            None => {
                let buf = self.vol.staging().take(n as usize * bs);
                RunTicket::Dev(if hedged {
                    dev.submit_hedged_read_blocks(abs, buf)
                } else {
                    dev.submit_read_blocks(abs, buf)
                })
            }
        };
        segs.map(|seg| self.paced(submit(seg))).collect()
    }

    /// Submit the write of a run of `slot` from row `dblock` (`data` is
    /// the run's gathered bytes, a staging buffer), one ticket per extent
    /// segment. On cached volumes each segment goes through the tier,
    /// which absorbs it into dirty frames (writing evicted ones home)
    /// before its ticket is made.
    fn submit_write_run(&self, slot: usize, dblock: u64, data: Box<[u8]>) -> Vec<RunTicket> {
        let Some(c) = self.vol.cache() else {
            return self.submit_media_write(slot, dblock, data);
        };
        let bs = self.block_size();
        let segs = self.run_segments(slot, dblock, (data.len() / bs) as u64);
        let vdev = self.slot_vdev(slot);
        let mut rest = &data[..];
        let submit = |(_, abs, n): (DeviceRef, u64, u64)| {
            let (seg, tail) = rest.split_at(n as usize * bs);
            rest = tail;
            let absorbed = c.submit_write(vdev, abs, seg).map(|()| Box::default());
            RunTicket::Dev(Ticket::ready(absorbed))
        };
        let out = segs.into_iter().map(submit).collect();
        self.vol.staging().give(data);
        out
    }

    /// [`RawFile::submit_write_run`] straight to the executor, whether or
    /// not a cache tier fronts it.
    fn submit_media_write(&self, slot: usize, dblock: u64, data: Box<[u8]>) -> Vec<RunTicket> {
        let bs = self.block_size();
        let staging = self.vol.staging();
        let segs = self.run_segments(slot, dblock, (data.len() / bs) as u64);
        // The common case is one segment per run (extents merge at grow
        // time): the gathered buffer is handed over as it is. A run that
        // crosses segments copies each into a buffer of its own, once.
        let submit = |dev: DeviceRef, abs, seg| {
            self.paced(RunTicket::Dev(dev.submit_write_blocks(abs, seg)))
        };
        if let [(dev, abs, _)] = &segs[..] {
            return vec![submit(Arc::clone(dev), *abs, data)];
        }
        let mut rest = &data[..];
        let mut out = Vec::with_capacity(segs.len());
        for (dev, abs, n) in segs {
            let (head, tail) = rest.split_at(n as usize * bs);
            let mut seg = staging.take(head.len());
            seg.copy_from_slice(head);
            out.push(submit(dev, abs, seg));
            rest = tail;
        }
        staging.give(data);
        out
    }

    /// Wait out one run's read tickets against layout slot `slot`: the
    /// segment buffers in device order, or the run's error — a final one
    /// ahead of a [`recoverable`] one, which callers answer by trying
    /// the next copy. Every ticket is waited, so nothing completes behind
    /// our back, and the run's outcome feeds the health board.
    fn wait_read_run(&self, slot: usize, tickets: Vec<RunTicket>) -> Result<Vec<Box<[u8]>>> {
        let cache = self.vol.cache();
        let mut outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait(cache)).collect();
        let is_final = |o: &pario_disk::Result<_>| matches!(o, Err(e) if !recoverable(e));
        let run = match outcomes.iter().position(is_final) {
            Some(i) => outcomes.swap_remove(i).map(|b| vec![b]),
            None => outcomes.into_iter().collect(),
        };
        self.settle(self.slot_vdev(slot), run)
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
        (slot_a, mut a): (usize, Vec<RunTicket>),
        (slot_b, mut b): (usize, Vec<RunTicket>),
    ) -> Result<Vec<Box<[u8]>>> {
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
        let settled: Vec<_> = observed
            .filter_map(|(slot, o)| Some(self.settle(self.slot_vdev(slot), o?.map(|d| vec![d]))))
            .collect();
        let outcome = settled.into_iter().reduce(|a, b| a.or(b));
        // invariant: a race reports at least one outcome.
        outcome.expect("race observed no completion")
    }

    /// A run's segment buffers as one staging buffer, in device order.
    fn concat(&self, mut bufs: Vec<Box<[u8]>>) -> Box<[u8]> {
        if bufs.len() == 1 {
            // invariant: just checked bufs.len() == 1.
            return bufs.pop().expect("one segment");
        }
        let staging = self.vol.staging();
        let mut whole = staging.take(bufs.iter().map(|b| b.len()).sum());
        let mut at = 0;
        for seg in bufs {
            whole[at..at + seg.len()].copy_from_slice(&seg);
            at += seg.len();
            self.recycle(seg);
        }
        whole
    }

    /// Land a run that was read: scatter its segment buffers into the
    /// windows of `m`'s parts and hand the staging back.
    fn land(&self, first: u64, buf: &mut [u8], m: &MergedRun, bufs: Vec<Box<[u8]>>) {
        let staging = self.concat(bufs);
        self.scatter(first, buf, m, &staging);
        self.recycle(staging);
    }

    /// Hand back the buffer a read run arrived in. An executor read
    /// filled a buffer of the staging list ([`RawFile::submit_read_run`]),
    /// and it returns there. Behind the cache tier the buffer is the
    /// tier's own allocation and no read takes its like from the list,
    /// so it is freed: a cached volume's record reads would otherwise
    /// push a block an op through the list and out of its far end.
    fn recycle(&self, buf: Box<[u8]>) {
        if self.vol.cache().is_none() {
            self.vol.staging().give(buf);
        }
    }

    /// Scatter run `m`'s device blocks (`staging`, from row `m.dblock`)
    /// into the windows of its parts. Each part copies out from its own
    /// offset, which skips any parity hole the run read through.
    fn scatter(&self, first: u64, buf: &mut [u8], m: &MergedRun, staging: &[u8]) {
        let bs = self.block_size();
        for r in &m.parts {
            let window = self.window(first, r);
            let at = (r.dblock - m.dblock) as usize * bs;
            buf[window.clone()].copy_from_slice(&staging[at..at + window.len()]);
        }
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
    /// reader: a block is a one-block span. The span becomes merged
    /// per-device runs ([`RawFile::plan`]), each run goes where
    /// [`RawFile::route`] sends it, and every transfer of a wave is
    /// submitted to the I/O executor before any is waited on, so every
    /// device works concurrently and no thread is spawned.
    ///
    /// A span that is one transfer with nothing to race
    /// ([`RawFile::direct_segment`]) has nothing to submit up front: it
    /// blocks on the device call, straight into `buf`. A run whose first
    /// copy fails [`recoverable`]y is resubmitted to its other copy as
    /// the failure is seen, and those second transfers are waited as a
    /// wave of their own. What no copy served is recovered in one step:
    /// a parity file reconstructs the lost column
    /// ([`RawFile::reconstruct`]); a shadowed run dead on both copies is
    /// re-planned block by block — the pair may be half dead in different
    /// places — and a block dead on both copies, like any block of an
    /// unprotected file, is the read's error.
    ///
    /// When the board already routes around a device of a parity file,
    /// nothing is read before the stripe lock is held: the surviving
    /// columns are then read once, for the span and for the
    /// reconstruction both.
    fn read_blocks(&self, first: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let bs = self.block_size();
        let count = (buf.len() / bs) as u64;
        let groups = self.plan(first, count, true);
        let mut lost: Vec<(MergedRun, DiskError)> = Vec::new();
        {
            let _io = self.enter_io();
            if let Redundancy::Parity(ps) = &self.redundancy {
                if groups.iter().flatten().any(|m| self.route(m.device).down) {
                    let pending = groups.into_iter().flatten().collect();
                    return self.reconstruct(ps, first, buf, lost, pending);
                }
            }
            // A run whose copy failed goes to its next one at once, so
            // the second transfers overlap as the first did; with no
            // copy left, the run is lost.
            let (mut inflight, mut second) = (Vec::new(), Vec::new());
            let mut retry = |m: MergedRun, next: Option<usize>, e: DiskError| match next {
                Some(slot) => {
                    let tickets = self.submit_read_run(slot, m.dblock, m.count, false);
                    second.push((m, slot, tickets));
                }
                None => lost.push((m, e)),
            };
            for m in groups.into_iter().flatten() {
                let route = self.route(m.device);
                let [Some(slot), other] = route.copies else {
                    let e = Self::stale(m.device);
                    retry(m, None, e);
                    continue;
                };
                if !route.race && m.parts.len() == 1 && m.parts[0].count == count {
                    if let Some((dev, abs)) = self.direct_segment(slot, m.dblock, m.count) {
                        let res = dev.read_blocks_at(abs, buf);
                        match Self::soft(self.settle(self.slot_vdev(slot), res))? {
                            Ok(()) => return Ok(()),
                            // This copy has been tried (and the board
                            // told): on to the next, like any failed run.
                            Err(e) => retry(m, other, e),
                        }
                        continue;
                    }
                }
                let hedge = other
                    .filter(|_| route.race)
                    .map(|s| (s, self.submit_read_run(s, m.dblock, m.count, true)));
                let tickets = self.submit_read_run(slot, m.dblock, m.count, hedge.is_some());
                inflight.push((m, (slot, tickets), other, hedge));
            }
            for (m, primary, other, hedge) in inflight {
                let (res, next) = match hedge {
                    Some(mirror) => (self.race_read_runs(primary, mirror), None),
                    None => (self.wait_read_run(primary.0, primary.1), other),
                };
                match Self::soft(res)? {
                    Ok(bufs) => self.land(first, buf, &m, bufs),
                    Err(e) => retry(m, next, e),
                }
            }
            for (m, slot, tickets) in second {
                match Self::soft(self.wait_read_run(slot, tickets))? {
                    Ok(bufs) => self.land(first, buf, &m, bufs),
                    Err(e) => lost.push((m, e)),
                }
            }
        }
        if let (Redundancy::Parity(ps), false) = (&self.redundancy, lost.is_empty()) {
            return self.reconstruct(ps, first, buf, lost, Vec::new());
        }
        for (m, e) in lost {
            if m.count == 1 || !matches!(self.redundancy, Redundancy::Shadow { .. }) {
                return Err(e.into());
            }
            for r in &m.parts {
                let blocks = buf[self.window(first, r)].chunks_mut(bs);
                for (l, block) in (r.lblock..).zip(blocks) {
                    self.read_blocks(l, block)?;
                }
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
    /// under ONE hold of the stripe lock: rows `[r0, r1)` of every
    /// surviving device — parity included, one run per device, one wave
    /// — XOR to the lost device's column ([`xor_rows`]), trimmed where a
    /// partial last stripe leaves a device a row short (the row it lacks
    /// is zeros to the parity). `lost` are runs already tried; `pending`
    /// are the span's runs not read yet, when the board said a device was
    /// down before anything was submitted: they join the wave widened to
    /// the span's whole row range, so each surviving column is read once
    /// for the span and the reconstruction both, whichever run turns out
    /// lost, and a Failed slot is probed with its own run. The survivors
    /// are always read here, under the lock — never
    /// reused from a wave that ran outside it, where a concurrent
    /// [`RawFile::parity_write`] could leave data and parity from
    /// different writes.
    fn reconstruct(
        &self,
        ps: &ParityStriped,
        first: u64,
        buf: &mut [u8],
        mut lost: Vec<(MergedRun, DiskError)>,
        mut pending: Vec<MergedRun>,
    ) -> Result<()> {
        let _g = self.state.stripe_lock.lock();
        let bs = self.block_size();
        // Whichever run turns out lost, every survivor must cover its rows.
        let (mut r0, mut r1) = (u64::MAX, 0);
        for m in lost.iter().map(|(m, _)| m).chain(&pending) {
            r0 = r0.min(m.dblock);
            r1 = r1.max(m.dblock + m.count);
        }
        let mut inflight = Vec::new();
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
                    parts: Vec::new(),
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
                let tickets = self.submit_read_run(slot, m.dblock, m.count, false);
                inflight.push((m, tickets));
            }
        }
        let mut columns = Vec::with_capacity(inflight.len());
        for (m, tickets) in inflight {
            match Self::soft(self.wait_read_run(m.device, tickets))? {
                Ok(bufs) => {
                    let staging = self.concat(bufs);
                    self.scatter(first, buf, &m, &staging);
                    columns.push((m, staging));
                }
                Err(e) => lost.push((m, e)),
            }
        }
        let staging = self.vol.staging();
        let Some((m, e)) = lost.pop() else {
            columns.into_iter().for_each(|(_, data)| self.recycle(data));
            return Ok(());
        };
        if !lost.is_empty() {
            // One parity block per stripe absorbs one lost device.
            return Err(e.into());
        }
        let mut column = staging.take(m.count as usize * bs);
        column.fill(0);
        for (peer, data) in &columns {
            xor_rows(&mut column, m.dblock, data, peer.dblock, bs);
        }
        self.scatter(first, buf, &m, &column);
        columns.into_iter().for_each(|(_, data)| self.recycle(data));
        staging.give(column);
        Ok(())
    }

    /// Write whole logical blocks starting at `first` — THE writer: a
    /// block is a one-block span. Parity files plan the span in stripes
    /// ([`RawFile::parity_write`]): data and parity leave as one run per
    /// device. Shadowed spans hold a write-phase token: counted
    /// normally, stripe-locked while a mapped device is Rebuilding so
    /// the resync sweep can't interleave (see
    /// [`RawFile::enter_shadow_write`]).
    fn write_blocks(&self, first: u64, data: &[u8]) -> Result<()> {
        match &self.redundancy {
            _ if data.is_empty() => Ok(()),
            Redundancy::Parity(ps) => self.parity_write(ps, first, data),
            Redundancy::Shadow { primaries } => {
                let _w = self.enter_shadow_write();
                self.write_runs(first, data, Some(*primaries))
            }
            Redundancy::None => self.write_runs(first, data, None),
        }
    }

    /// Write whole blocks via merged per-device runs, all submitted to
    /// the I/O executor before any is waited on. With a `mirror` (the
    /// caller holds the write-phase token) each run goes to BOTH copies
    /// concurrently — one live copy suffices; the pair is degraded, not
    /// lost — and a run whose two copies both fail is re-planned block
    /// by block, so the span only fails where both copies of a block are
    /// dead. An unmirrored span that is a single transfer
    /// ([`RawFile::direct_segment`]) blocks on the device call, straight
    /// from `data`.
    fn write_runs(&self, first: u64, data: &[u8], mirror: Option<usize>) -> Result<()> {
        let bs = self.block_size();
        let count = (data.len() / bs) as u64;
        let mut inflight = Vec::new();
        for m in self.plan(first, count, false).into_iter().flatten() {
            if mirror.is_none() && m.count == count {
                if let Some((dev, abs)) = self.direct_segment(m.device, m.dblock, m.count) {
                    let res = dev.write_blocks_at(abs, data);
                    return self.settle(self.slot_vdev(m.device), res);
                }
            }
            let staging = self.vol.staging();
            let mut gathered = staging.take(m.count as usize * bs);
            let mut at = 0;
            for r in &m.parts {
                let part = &data[self.window(first, r)];
                gathered[at..at + part.len()].copy_from_slice(part);
                at += part.len();
            }
            let second = mirror.map(|p| {
                let mut copy = staging.take(gathered.len());
                copy.copy_from_slice(&gathered);
                self.submit_write_run(m.device + p, m.dblock, copy)
            });
            let primary = self.submit_write_run(m.device, m.dblock, gathered);
            inflight.push((m, primary, second));
        }
        for (m, primary, second) in inflight {
            let written = self.wait_write_run(m.device, primary);
            let (Some(p), Some(second)) = (mirror, second) else {
                written?;
                continue;
            };
            if self.wait_write_run(m.device + p, second).is_ok() || written.is_ok() {
                continue;
            }
            if m.count == 1 {
                return written;
            }
            for r in &m.parts {
                let blocks = data[self.window(first, r)].chunks(bs);
                for (l, block) in (r.lblock..).zip(blocks) {
                    self.write_runs(l, block, mirror)?;
                }
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
    /// `within` bytes in.
    fn read_partial(&self, l: u64, within: usize, out: &mut [u8]) -> Result<()> {
        let mut scratch = vec![0u8; self.block_size()];
        self.read_lblock(l, &mut scratch)?;
        out.copy_from_slice(&scratch[within..within + out.len()]);
        Ok(())
    }

    /// Read-modify-write the sub-block range of logical block `l`
    /// starting `within` bytes in.
    fn rmw_partial(&self, l: u64, within: usize, bytes: &[u8]) -> Result<()> {
        // Concurrent sub-block writers sharing a block must not
        // interleave their read/write pairs, or one loses the other's
        // bytes (self-scheduled record writers hit this constantly).
        //
        // The lock is elided under `--cfg pario_check_demo`: that build
        // reintroduces the historical lost-update race on purpose so the
        // model checker's regression test can demonstrate finding it.
        #[cfg(not(all(pario_check, pario_check_demo)))]
        let _g = self.state.rmw_lock.lock();
        let mut scratch = vec![0u8; self.block_size()];
        self.read_lblock(l, &mut scratch)?;
        scratch[within..within + bytes.len()].copy_from_slice(bytes);
        self.write_lblock(l, &scratch)
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
    pub fn write_span(&self, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.block_size() as u64;
        let end = offset + data.len() as u64;
        self.ensure_capacity_records(end.div_ceil(self.record_size as u64))?;
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

    /// Read record `r` (must be below the file length).
    pub fn read_record(&self, r: u64, out: &mut [u8]) -> Result<()> {
        assert_eq!(out.len(), self.record_size, "record buffer size");
        let len = self.len_records();
        if r >= len {
            return Err(FsError::OutOfBounds { record: r, len });
        }
        self.read_span(r * self.record_size as u64, out)
    }

    /// Write record `r`, extending the file length to cover it.
    pub fn write_record(&self, r: u64, data: &[u8]) -> Result<()> {
        assert_eq!(data.len(), self.record_size, "record buffer size");
        self.write_span(r * self.record_size as u64, data)?;
        self.extend_len_records(r + 1);
        Ok(())
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
            // Journal appends land on device 0 and would skew the
            // data-path distribution this test measures.
            v.set_meta_journaling(false).unwrap();
            let before: Vec<u64> = (0..4).map(|d| v.device(d).counters().writes).collect();
            let f = v
                .create_file(FileSpec::new(
                    "p",
                    BS,
                    1,
                    LayoutSpec::Parity {
                        data_devices: 3,
                        rotated,
                    },
                ))
                .unwrap();
            for r in 0..48u64 {
                f.write_record(r, &record(r, BS)).unwrap();
            }
            (0..4)
                .map(|d| v.device(d).counters().writes - before[d])
                .collect()
        };
        let raid4 = count_writes(false);
        // Dedicated parity on slot 3: one parity write per logical write;
        // each data device only sees its 1/3 share (both sides also pay
        // the same extent-zeroing cost, which cancels in the difference).
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
        assert_eq!(f.capacity_records(), 10);
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

    /// Files grown in turn interleave their extents, so one device run
    /// crosses extent segments: each segment is one device write of
    /// exactly its blocks — data, mirror copies and parity rows alike —
    /// and the span reads back.
    #[test]
    fn a_run_across_extent_segments_writes_each_segment_once() {
        let striped = LayoutSpec::Striped {
            devices: 2,
            unit: 1,
        };
        let specs = [
            striped.clone(),
            LayoutSpec::Shadowed(Box::new(striped)),
            LayoutSpec::Parity {
                data_devices: 3,
                rotated: true,
            },
        ];
        for spec in specs {
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
            let before: Vec<_> = (0..4).map(|d| v.device(d).counters()).collect();
            let data: Vec<u8> = (0..f.nblocks() as usize * BS)
                .map(|i| (i % 239) as u8)
                .collect();
            f.write_span(0, &data).unwrap();
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

    /// Every row of layout slot `slot`, as the media holds it.
    fn rows_of(f: &RawFile, slot: usize) -> Vec<u8> {
        let mut rows = vec![0u8; f.device_blocks(slot) as usize * BS];
        f.read_device_rows(&mut [(slot, 0, &mut rows[..])]).unwrap();
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
                f.read_device_block(slot, at, &mut row).unwrap_err(),
                f.write_device_block(slot, at, &row).unwrap_err(),
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
        let err = f
            .read_device_rows(&mut [(0, held - 1, &mut two[..])])
            .unwrap_err();
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
        crossbeam::thread::scope(|s| {
            for t in 0..4u64 {
                let f = std::sync::Arc::clone(&f);
                s.spawn(move |_| {
                    for r in 0..16u64 {
                        let idx = t * 16 + r;
                        f.write_record(idx, &record(idx, BS)).unwrap();
                    }
                });
            }
        })
        .unwrap();
        // Fail any device; everything must reconstruct.
        v.device(2).fail();
        let mut buf = vec![0u8; BS];
        for r in 0..64 {
            f.read_record(r, &mut buf).unwrap();
            assert_eq!(buf, record(r, BS), "record {r}");
        }
    }
}
