//! The volume-wide shared block cache tier.
//!
//! The paper (§4) argues buffering software is "just as important as the
//! layout of data on disks"; a per-file cache leaves hot reuse traffic
//! across a server's *many* sessions hitting the device executors on
//! every access. [`VolumeCache`] is the shared tier in front of the
//! executor bank that every file of a volume goes through:
//!
//! * **CLOCK eviction** over a fixed frame budget allocated once at
//!   construction.
//! * **Read-through miss coalescing**: adjacent misses in one request
//!   become one vectored read, and a caller that reads runs on several
//!   devices has every run in flight before it waits any
//!   ([`VolumeCache::submit_read`] / [`CacheReadTicket::wait`]).
//! * **One read routine, in the reader's buffer.** A read copies its
//!   hits into the reader's buffer and lands its misses there:
//!   [`VolumeCache::read_blocks`] lends its slice, `submit_read` takes
//!   the run's staging buffer and its ticket hands the same buffer back.
//!   The tier allocates no buffer for a read, and none at all for a hit.
//! * **Write-behind coalescing**: a write dirties frames — the paper's
//!   deferred write — and dirty neighbors are merged into contiguous
//!   runs before they go home, both at eviction and at
//!   [`VolumeCache::flush`]. A producer that outruns its devices waits
//!   out the eviction's write-back.
//! * **A lone transfer is a call.** A write-back or a synchronous fill
//!   that is one run calls the device handle's blocking
//!   `read_blocks_at` / `write_blocks_at` on the caller's bytes: its
//!   caller waits on it alone,
//!   so there is no overlap for an executor worker to buy, and an idle
//!   node runs it on the calling thread. Two or more runs are submitted
//!   together, then waited.
//! * **Invalidation** hooks ([`VolumeCache::invalidate_ranges`],
//!   [`VolumeCache::drop_device`]) let lock release points and device
//!   health transitions keep cached state coherent with the media.
//!
//! The internal mutex is ranked [`LockLevel::VolumeCache`] (75): above
//! a file's block and row tables (lookups happen while a write holds
//! its blocks and rows) and below the health board (health transitions drop frames
//! only after the board mutex is released).
//!
//! **The lock covers the frame table, never a transfer.** It is held
//! for lookups, frame copies and bookkeeping; every device call is made
//! with it released, the paper's two-phase rule
//! (§3: reserve early "so the next process can proceed before the first
//! transfer completes"). A write-back *reserves* its frames — copies
//! their bytes, marks them `writing`, notes the table's clock — drops
//! the lock, moves its runs (several all in flight together), retakes
//! the lock and *commits*: a frame goes clean only if its version is no
//! later than the noted clock, so a write that raced the transfer (or a
//! failed transfer) leaves it dirty. While a frame is `writing` hits and
//! writes go ahead; CLOCK passes over it, and a flusher or invalidator
//! whose range covers it waits for the transfer to land (a range flush
//! may not return with a write-back of its range still in flight; an
//! invalidation precedes a raw media write that a late write-back would
//! clobber).
//!
//! Error semantics are chosen so the cache never loses or invents
//! data: a failed write-back leaves its frames dirty — a torn run is
//! written whole again by the next flush or eviction — and a failed
//! read-fill simply skips frame installation.

use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, DerefMut};

use pario_check::{Condvar, LockLevel, Mutex, MutexGuard};
use pario_disk::{DeviceRef, DiskError, Result, Ticket};

use crate::cache::CacheStats;

/// Shape of a [`VolumeCache`].
pub struct VolumeCacheConfig {
    /// Frame budget: block-sized buffers allocated at construction.
    pub frames: usize,
}

impl VolumeCacheConfig {
    /// A write-back cache of `frames` frames.
    pub fn write_back(frames: usize) -> VolumeCacheConfig {
        VolumeCacheConfig { frames }
    }
}

/// Traffic counters of a [`VolumeCache`]. Extends the shared
/// [`CacheStats`] counters with coalescing and invalidation activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VolumeCacheStats {
    /// The shared hit/miss/eviction/writeback counters.
    pub base: CacheStats,
    /// Misses absorbed into a neighbor's vectored read (blocks beyond
    /// the first of each coalesced miss run).
    pub coalesced_reads: u64,
    /// Dirty blocks merged into a neighbor's vectored writeback (blocks
    /// beyond the first of each contiguous dirty run).
    pub coalesced_writes: u64,
    /// Frames dropped by invalidation (lock-driven or health-driven).
    pub invalidations: u64,
}

impl VolumeCacheStats {
    /// Hit ratio over all reads (0 when no reads occurred).
    pub fn hit_ratio(&self) -> f64 {
        self.base.hit_ratio()
    }
}

/// `(device, absolute block)`. Ordered, so a device's blocks and any
/// block range of it are one contiguous key range of the table.
type Key = (usize, u64);

/// The key range of `count` blocks of `dev` from `block`; `None` when
/// empty.
fn block_keys(dev: usize, block: u64, count: u64) -> Option<(Key, Key)> {
    (count > 0).then(|| ((dev, block), (dev, block.saturating_add(count - 1))))
}

/// The key bounds of `(device, block, count)` ranges, empty ones left out.
fn range_keys(ranges: &[(usize, u64, u64)]) -> Vec<(Key, Key)> {
    let keys = ranges
        .iter()
        .filter_map(|&(dev, block, count)| block_keys(dev, block, count));
    keys.collect()
}

/// Every block of `dev`.
fn device_keys(dev: usize) -> (Key, Key) {
    ((dev, 0), (dev, u64::MAX))
}

struct Slot {
    key: Option<Key>,
    dirty: bool,
    referenced: bool,
    /// [`CacheState::clock`] when the frame's bytes last changed. A
    /// write-back that copied them at clock `t` may clear `dirty` only
    /// while `version <= t`.
    version: u64,
    /// A copy of the frame's bytes is on its way to the home device,
    /// with the table unlocked. The frame stays mapped until the
    /// transfer lands: CLOCK passes over it, and flushers and
    /// invalidators of its key wait on [`VolumeCache::settled`].
    writing: bool,
}

struct CacheState {
    /// The frame buffers, allocated at construction. Entry `i` backs
    /// `slots[i]`.
    bufs: Vec<Box<[u8]>>,
    slots: Vec<Slot>,
    /// Key -> slot index.
    map: BTreeMap<Key, usize>,
    /// Slots never used yet (startup only; eviction recycles in place).
    free: Vec<usize>,
    /// CLOCK hand.
    hand: usize,
    /// Counts changes to frame bytes and poisonings of fetches; stamps
    /// [`Slot::version`] and `stale`.
    clock: u64,
    /// Miss keys with an executor fetch in flight -> outstanding reader
    /// count. A write or invalidation of such a key lands in `stale`:
    /// bytes fetched before the mutation must not be installed when the
    /// fetch completes.
    inflight: HashMap<Key, u32>,
    /// In-flight keys mutated during a fetch -> `clock` at the latest
    /// mutation. It poisons the fetches registered before it, not those
    /// after.
    stale: HashMap<Key, u64>,
    stats: VolumeCacheStats,
}

impl CacheState {
    /// Whether a frame write-back is in flight anywhere in `[lo, hi]`.
    fn transfer_in(&self, lo: Key, hi: Key) -> bool {
        self.map.range(lo..=hi).any(|(_, &i)| self.slots[i].writing)
    }

    /// Whether `key` holds a dirty frame with no transfer in flight.
    fn dirty_idle(&self, key: Key) -> bool {
        self.map.get(&key).is_some_and(|&i| {
            let slot = &self.slots[i];
            slot.dirty && !slot.writing
        })
    }

    /// Serve a read of frame `idx`.
    fn hit(&mut self, idx: usize, out: &mut [u8]) {
        self.slots[idx].referenced = true;
        out.copy_from_slice(&self.bufs[idx]);
        self.stats.base.hits += 1;
    }

    /// Record that frame `idx`'s bytes changed.
    fn touch(&mut self, idx: usize) {
        self.clock += 1;
        self.slots[idx].version = self.clock;
    }

    /// Drop frame `key` (not `writing`) without writing it anywhere.
    fn unmap(&mut self, key: Key) {
        if let Some(idx) = self.map.remove(&key) {
            let slot = &mut self.slots[idx];
            (slot.key, slot.dirty, slot.referenced) = (None, false, false);
            self.free.push(idx);
            self.stats.invalidations += 1;
        }
    }

    /// Poison any in-flight fetch of `key`: the caller is about to make
    /// its bytes stale (a write, or an invalidation after a
    /// raw media write), so the late install must be skipped.
    fn mark_stale_if_inflight(&mut self, key: Key) {
        if self.inflight.contains_key(&key) {
            self.clock += 1;
            self.stale.insert(key, self.clock);
        }
    }

    /// Register a fetch of absent `key`.
    fn begin_fetch(&mut self, key: Key) {
        *self.inflight.entry(key).or_insert(0) += 1;
    }

    /// Drop one in-flight reference to `key`.
    fn retire_inflight(&mut self, key: Key) {
        if let Some(c) = self.inflight.get_mut(&key) {
            *c -= 1;
            if *c == 0 {
                self.inflight.remove(&key);
                self.stale.remove(&key);
            }
        }
    }
}

/// The locked frame table. Whoever has a transfer to make releases it
/// around the call with [`Table::unlocked`] and re-derives what it read
/// before.
struct Table<'a> {
    cache: &'a VolumeCache,
    guard: Option<MutexGuard<'a, CacheState>>,
}

impl Deref for Table<'_> {
    type Target = CacheState;
    fn deref(&self) -> &CacheState {
        // invariant: `guard` is `None` only inside `unlocked`.
        self.guard.as_ref().expect("table is locked")
    }
}

impl DerefMut for Table<'_> {
    fn deref_mut(&mut self) -> &mut CacheState {
        // invariant: `guard` is `None` only inside `unlocked`.
        self.guard.as_mut().expect("table is locked")
    }
}

impl Table<'_> {
    /// Run `io` — a device call — with the table unlocked.
    fn unlocked<R>(&mut self, io: impl FnOnce() -> R) -> R {
        self.guard = None;
        let r = io();
        self.guard = Some(self.cache.frames.lock());
        r
    }

    /// Park, table unlocked, until some transfer lands.
    fn wait_settled(&mut self) {
        // invariant: `guard` is `None` only inside `unlocked`.
        let guard = self.guard.as_mut().expect("table is locked");
        self.cache.settled.wait(guard);
    }
}

/// A volume-wide shared block cache in front of the executor bank.
pub struct VolumeCache {
    devices: Vec<DeviceRef>,
    block_size: usize,
    frames: Mutex<CacheState>,
    /// Signalled whenever a `writing` mark clears.
    settled: Condvar,
}

/// One transfer to make: (device, first block, bytes) — the bytes to
/// write, or the room to read into.
type IoRun<'a> = (usize, u64, &'a mut [u8]);

/// The misses of one cached read, registered in the table at clock
/// `since`: runs of adjacent absent blocks of `dev` from `block`, as
/// (index of the run's first block in the reader's buffer, blocks).
struct Misses {
    dev: usize,
    block: u64,
    since: u64,
    runs: Vec<(usize, usize)>,
}

/// An in-flight cached read: the reader's buffer with every hit already
/// copied in, and one executor ticket per miss run. Wait with
/// [`CacheReadTicket::wait`], which lands the misses in the same buffer
/// and hands it back.
#[must_use = "a cached read completes only when waited"]
pub struct CacheReadTicket {
    misses: Misses,
    tickets: Vec<Ticket<Box<[u8]>>>,
    buf: Box<[u8]>,
}

/// One vectored home write of a write-back: contiguous blocks of one
/// device, and the frames they were copied from.
struct Run {
    dev: usize,
    start: u64,
    members: Vec<usize>,
    data: Vec<u8>,
}

impl VolumeCache {
    /// A cache over `devices` (normally a volume's executor handles),
    /// with its `cfg.frames` block-sized frames allocated here, once.
    pub fn new(devices: Vec<DeviceRef>, cfg: VolumeCacheConfig) -> VolumeCache {
        assert!(cfg.frames > 0, "cache needs at least one frame");
        assert!(!devices.is_empty(), "cache needs at least one device");
        let bs = devices[0].block_size();
        assert!(
            devices.iter().all(|d| d.block_size() == bs),
            "devices must share a block size"
        );
        let bufs = (0..cfg.frames)
            .map(|_| vec![0u8; bs].into_boxed_slice())
            .collect();
        let slots = (0..cfg.frames)
            .map(|_| Slot {
                key: None,
                dirty: false,
                referenced: false,
                version: 0,
                writing: false,
            })
            .collect();
        VolumeCache {
            devices,
            block_size: bs,
            frames: Mutex::new_named(
                CacheState {
                    bufs,
                    slots,
                    map: BTreeMap::new(),
                    free: (0..cfg.frames).rev().collect(),
                    hand: 0,
                    clock: 0,
                    inflight: HashMap::new(),
                    stale: HashMap::new(),
                    stats: VolumeCacheStats::default(),
                },
                LockLevel::VolumeCache,
            ),
            settled: Condvar::new(),
        }
    }

    /// Block size of the underlying devices.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> VolumeCacheStats {
        self.frames.lock().stats
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.frames.lock().map.len()
    }

    /// True when no frames are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn table(&self) -> Table<'_> {
        Table {
            cache: self,
            guard: Some(self.frames.lock()),
        }
    }

    /// Refuse a buffer of `len` bytes unless it is whole blocks (`one`:
    /// exactly one), as `MemDisk` does — checked before the table is
    /// locked, so a frame is never claimed for bytes that cannot fill it.
    fn check_len(&self, len: usize, one: bool) -> Result<()> {
        let bs = self.block_size;
        let fits = if one {
            len == bs
        } else {
            len.is_multiple_of(bs)
        };
        fits.then_some(()).ok_or(DiskError::BadBufferSize {
            got: len,
            expected: bs,
        })
    }

    // ------------------------------------------------------------------
    // Internal frame machinery. Everything that takes a `Table` may
    // release it around a transfer.
    // ------------------------------------------------------------------

    /// Submit a transfer of `buf` at `block` of `dev` to its executor.
    fn submit(&self, write: bool, dev: usize, block: u64, buf: Box<[u8]>) -> Ticket<Box<[u8]>> {
        let device = &self.devices[dev];
        if write {
            device.submit_write_blocks(block, buf)
        } else {
            device.submit_read_blocks(block, buf)
        }
    }

    /// Move `runs` that the caller waits for — a write-back, or the fill
    /// behind [`VolumeCache::read_blocks`] — with the table unlocked; one
    /// outcome per run, in order. A lone run is a call to the device
    /// handle's blocking `read_blocks_at` / `write_blocks_at` on the
    /// caller's bytes: on an idle node it runs on this thread, and on a
    /// busy one it queues behind everything already there. Two or more
    /// are all submitted, each in a buffer of its own, before any is
    /// waited, so the devices move them in parallel.
    fn move_runs(&self, write: bool, runs: &mut [IoRun<'_>]) -> Vec<Result<()>> {
        if let [(dev, block, buf)] = runs {
            let device = &self.devices[*dev];
            return vec![if write {
                device.write_blocks_at(*block, buf)
            } else {
                device.read_blocks_at(*block, buf)
            }];
        }
        let submit =
            |(dev, block, buf): &IoRun<'_>| self.submit(write, *dev, *block, Box::from(&**buf));
        let tickets: Vec<_> = runs.iter().map(submit).collect();
        let wait = |(t, (_, _, buf)): (Ticket<Box<[u8]>>, &mut IoRun<'_>)| {
            t.wait().map(|moved| {
                if !write {
                    buf.copy_from_slice(&moved);
                }
            })
        };
        tickets.into_iter().zip(runs).map(wait).collect()
    }

    /// Write the dirty frames of the (disjoint) key `ranges` home — the
    /// one write-back routine, behind every flush and the eviction of a
    /// dirty frame: reserve under the lock, move the runs unlocked
    /// ([`VolumeCache::move_runs`]), commit under the lock. Costs the
    /// blocks in the ranges, not the table.
    fn write_back(&self, st: &mut Table<'_>, ranges: &[(Key, Key)]) -> Result<()> {
        // Someone else's write-back of these blocks counts: it lands
        // before this returns, and what it leaves dirty is written here.
        while ranges.iter().any(|&(lo, hi)| st.transfer_in(lo, hi)) {
            st.wait_settled();
        }
        let mut picked: Vec<(Key, usize)> = Vec::new();
        for &(lo, hi) in ranges {
            let frames = st.map.range(lo..=hi).filter(|(_, &i)| st.slots[i].dirty);
            picked.extend(frames.map(|(&k, &i)| (k, i)));
        }
        if picked.is_empty() {
            return Ok(());
        }
        picked.sort_unstable_by_key(|&(k, _)| k);
        // Reserve: copy the bytes, mark, and merge adjacent blocks into
        // runs.
        let mut runs: Vec<Run> = Vec::new();
        for (key, idx) in picked {
            let adjacent = runs.last().is_some_and(|r| {
                r.dev == key.0 && r.start.checked_add(r.members.len() as u64) == Some(key.1)
            });
            if !adjacent {
                runs.push(Run {
                    dev: key.0,
                    start: key.1,
                    members: Vec::new(),
                    data: Vec::new(),
                });
            }
            // invariant: pushed just above when there was none.
            let run = runs.last_mut().expect("a run is open");
            run.data.extend_from_slice(&st.bufs[idx]);
            run.members.push(idx);
            st.slots[idx].writing = true;
        }
        let stamp = st.clock;
        let outcomes = st.unlocked(|| {
            let mut moves: Vec<IoRun<'_>> = runs
                .iter_mut()
                .map(|run| (run.dev, run.start, &mut run.data[..]))
                .collect();
            self.move_runs(true, &mut moves)
        });
        // Commit. A failed run stays dirty; the data is not lost.
        let mut first_err = None;
        for (run, outcome) in runs.iter().zip(outcomes) {
            for &idx in &run.members {
                let slot = &mut st.slots[idx];
                slot.writing = false;
                if outcome.is_ok() && slot.version <= stamp {
                    slot.dirty = false;
                }
            }
            match outcome {
                Ok(()) => {
                    let blocks = run.members.len() as u64;
                    st.stats.base.writebacks += blocks;
                    st.stats.coalesced_writes += blocks - 1;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.settled.notify_all();
        first_err.map_or(Ok(()), Err)
    }

    /// Write dirty, idle frame `idx` home together with its contiguous
    /// dirty idle neighbors, with the table unlocked: the table moves on
    /// meanwhile, so the caller's sweep starts over.
    fn clean_victim(&self, st: &mut Table<'_>, idx: usize) -> Result<()> {
        // invariant: callers only pass occupied slots.
        let (dev, block) = st.slots[idx].key.expect("occupied slot");
        let (mut lo, mut hi) = (block, block);
        while lo > 0 && st.dirty_idle((dev, lo - 1)) {
            lo -= 1;
        }
        while hi < u64::MAX && st.dirty_idle((dev, hi + 1)) {
            hi += 1;
        }
        self.write_back(st, &[((dev, lo), (dev, hi))])
    }

    /// Take a recyclable slot: a never-used one, else a CLOCK victim —
    /// a clean unreferenced frame for preference, else a dirty one,
    /// written back with the table unlocked, after which the sweep runs
    /// again on whatever the table then holds. `writing` frames are
    /// passed over. The returned slot is unmapped and clean.
    fn take_slot(&self, st: &mut Table<'_>) -> Result<usize> {
        loop {
            if let Some(idx) = st.free.pop() {
                return Ok(idx);
            }
            let n = st.slots.len();
            let mut dirty_victim = None;
            // Two sweeps suffice: the first clears every reference bit.
            for _ in 0..2 * n {
                let idx = st.hand;
                st.hand = (idx + 1) % n;
                let slot = &mut st.slots[idx];
                if slot.writing {
                    continue;
                }
                if slot.referenced {
                    slot.referenced = false;
                    continue;
                }
                if slot.dirty {
                    dirty_victim.get_or_insert(idx);
                    continue;
                }
                // invariant: non-free slots are always mapped.
                let key = slot.key.take().expect("occupied slot");
                st.map.remove(&key);
                st.stats.base.evictions += 1;
                return Ok(idx);
            }
            match dirty_victim {
                Some(idx) => self.clean_victim(st, idx)?,
                // Every frame is mid-transfer.
                None => st.wait_settled(),
            }
        }
    }

    /// Give absent `key` a frame holding `data`: the clean fill of a
    /// fetch registered at table clock `fetched_at`, or with `None`
    /// dirty write-behind data not yet on the home device. Claiming the
    /// slot may release the table, so absence is judged again with the
    /// slot in hand: `Ok(false)`, nothing installed, when `key` is or
    /// became resident — or when a write or invalidation poisoned the
    /// fetch since it was registered. The reference bit
    /// starts clear: only a second touch earns a frame protection from
    /// the sweep, so one-shot streaming data is recycled first.
    fn install(
        &self,
        st: &mut Table<'_>,
        key: Key,
        data: &[u8],
        fetched_at: Option<u64>,
    ) -> Result<bool> {
        let dirty = fetched_at.is_none();
        let wanted = |st: &CacheState| {
            let poisoned = st.stale.get(&key).is_some_and(|&at| Some(at) > fetched_at);
            !st.map.contains_key(&key) && (dirty || !poisoned)
        };
        if !wanted(st) {
            return Ok(false);
        }
        let idx = self.take_slot(st)?;
        if !wanted(st) {
            st.free.push(idx);
            return Ok(false);
        }
        if dirty {
            st.mark_stale_if_inflight(key);
        }
        st.bufs[idx].copy_from_slice(data);
        let slot = &mut st.slots[idx];
        (slot.key, slot.dirty, slot.referenced) = (Some(key), dirty, false);
        st.touch(idx);
        st.map.insert(key, idx);
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// The read routine's first half, under one hold of the table: copy
    /// every resident block of `dev` from `block` into `out`, whole
    /// blocks, and register every absent one as fetched, adjacent ones
    /// as one run. [`VolumeCache::land`] settles what it registered.
    fn lookup(&self, dev: usize, block: u64, out: &mut [u8]) -> Misses {
        let mut st = self.frames.lock();
        let since = st.clock;
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, chunk) in out.chunks_mut(self.block_size).enumerate() {
            let key = (dev, block + i as u64);
            if let Some(&idx) = st.map.get(&key) {
                st.hit(idx, chunk);
                continue;
            }
            st.begin_fetch(key);
            st.stats.base.misses += 1;
            match runs.last_mut() {
                Some((at, n)) if *at + *n == i => {
                    *n += 1;
                    st.stats.coalesced_reads += 1;
                }
                _ => runs.push((i, 1)),
            }
        }
        Misses {
            dev,
            block,
            since,
            runs,
        }
    }

    /// The read routine's second half: install the miss runs that were
    /// `moved` (one outcome per run) as clean frames, from where they
    /// landed in `out`, and retire every fetch [`VolumeCache::lookup`]
    /// registered. Keys a racing writer made resident are skipped —
    /// their copy is newer — and so are keys a write or invalidation
    /// poisoned while the fetch was in flight: the fetched bytes predate
    /// the mutation. An install failure (an eviction write-back error)
    /// does not fail the read; the blocks are simply not cached. The
    /// first failed run's error is the read's.
    fn land(&self, misses: Misses, out: &[u8], moved: Vec<Result<()>>) -> Result<()> {
        if misses.runs.is_empty() {
            return Ok(());
        }
        let bs = self.block_size;
        let mut st = self.table();
        let (mut err, mut install_failed) = (None, false);
        for (&(at, n), outcome) in misses.runs.iter().zip(moved) {
            let fetched = outcome.map_err(|e| err.get_or_insert(e)).is_ok();
            for i in at..at + n {
                let key = (misses.dev, misses.block + i as u64);
                // The key stays in flight until its install is decided:
                // claiming a slot may release the table, and a write
                // landing then must still poison this fetch.
                if fetched && !install_failed {
                    let chunk = &out[i * bs..(i + 1) * bs];
                    let installed = self.install(&mut st, key, chunk, Some(misses.since));
                    install_failed = installed.is_err();
                }
                st.retire_inflight(key);
            }
        }
        err.map_or(Ok(()), Err)
    }

    /// Start a cached read of `buf`, whole blocks, from block `block` of
    /// device `dev`: hits are copied into `buf` now, and each run of
    /// adjacent misses is one vectored executor read, submitted before
    /// this returns — so a caller reading runs on several devices keeps
    /// full cross-device parallelism by submitting every run before
    /// waiting any. The ticket hands `buf` back with the misses landed
    /// in it ([`CacheReadTicket::wait`]). A buffer that is not whole
    /// blocks is `BadBufferSize`.
    pub fn submit_read(
        &self,
        dev: usize,
        block: u64,
        mut buf: Box<[u8]>,
    ) -> Result<CacheReadTicket> {
        self.check_len(buf.len(), false)?;
        let misses = self.lookup(dev, block, &mut buf);
        let bs = self.block_size;
        let submit = |&(at, n): &(usize, usize)| {
            let room = vec![0u8; n * bs].into_boxed_slice();
            self.submit(false, dev, block + at as u64, room)
        };
        Ok(CacheReadTicket {
            tickets: misses.runs.iter().map(submit).collect(),
            misses,
            buf,
        })
    }

    /// Read blocks synchronously through the cache (`out` must be a
    /// whole number of blocks, else `BadBufferSize`): hits are copied
    /// into `out` and misses land there. A lone miss run is one call to
    /// the device handle's blocking `read_blocks_at` on `out` itself,
    /// which an idle node runs on this thread; several are submitted,
    /// then waited (`VolumeCache::move_runs`). A read of resident
    /// blocks allocates nothing.
    pub fn read_blocks(&self, dev: usize, block: u64, out: &mut [u8]) -> Result<()> {
        self.check_len(out.len(), false)?;
        let misses = self.lookup(dev, block, out);
        if misses.runs.is_empty() {
            return Ok(());
        }
        let bs = self.block_size;
        let (mut rest, mut done) = (&mut out[..], 0);
        let mut runs = Vec::with_capacity(misses.runs.len());
        for &(at, n) in &misses.runs {
            let (_, room) = std::mem::take(&mut rest).split_at_mut((at - done) * bs);
            let (room, tail) = room.split_at_mut(n * bs);
            runs.push((dev, block + at as u64, room));
            (rest, done) = (tail, at + n);
        }
        let moved = self.move_runs(false, &mut runs);
        self.land(misses, out, moved)
    }

    /// Read one block synchronously through the cache; any other length
    /// is `BadBufferSize`.
    pub fn read_block(&self, dev: usize, block: u64, out: &mut [u8]) -> Result<()> {
        self.check_len(out.len(), true)?;
        self.read_blocks(dev, block, out)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Write whole blocks through the cache: the data is absorbed into
    /// dirty frames, and the write is complete when this returns. The
    /// device sees it at eviction or flush. Claiming a frame may write
    /// a dirty victim home first; that write-back's error is returned,
    /// with the blocks before the failing one absorbed. `data` must be
    /// whole blocks, else `BadBufferSize` and nothing is absorbed.
    pub fn submit_write(&self, dev: usize, block: u64, data: &[u8]) -> Result<()> {
        self.check_len(data.len(), false)?;
        let bs = self.block_size;
        let mut st = self.table();
        for (j, chunk) in data.chunks(bs).enumerate() {
            let key = (dev, block + j as u64);
            loop {
                st.mark_stale_if_inflight(key);
                if let Some(&idx) = st.map.get(&key) {
                    st.bufs[idx].copy_from_slice(chunk);
                    st.slots[idx].referenced = true;
                    st.slots[idx].dirty = true;
                    st.touch(idx);
                    break;
                }
                if self.install(&mut st, key, chunk, None)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Write one block through the cache; any other length is
    /// `BadBufferSize`.
    pub fn write_block(&self, dev: usize, block: u64, data: &[u8]) -> Result<()> {
        self.check_len(data.len(), true)?;
        self.submit_write(dev, block, data)
    }

    // ------------------------------------------------------------------
    // Flush and invalidation
    // ------------------------------------------------------------------

    /// Write every dirty frame to the home devices, coalesced into
    /// vectored runs.
    pub fn flush(&self) -> Result<()> {
        self.write_back(&mut self.table(), &[((0, 0), (usize::MAX, u64::MAX))])
    }

    /// Flush dirty state covering disjoint `(device, block, count)`
    /// ranges — the hook a byte-range lock release drives so data
    /// written under the lock is durable before the next holder
    /// proceeds. One run is a blocking call; several are all submitted
    /// before any is waited. Does not return while a write-back of the
    /// ranges, anyone's, is still in flight.
    pub fn flush_ranges(&self, ranges: &[(usize, u64, u64)]) -> Result<()> {
        self.write_back(&mut self.table(), &range_keys(ranges))
    }

    /// Drop the frames covering `(device, block, count)` ranges
    /// *without* writing anything back — for callers that know the media
    /// is authoritative (fresh zeroed extents) or gone (health
    /// transitions). A write-back of the ranges already in flight lands
    /// before this returns, so a caller about to write the media raw (or
    /// hand the blocks to a new owner) invalidates first and nothing
    /// stale can arrive afterwards; it invalidates again after the raw
    /// write to drop what was filled in between.
    pub fn invalidate_ranges(&self, ranges: &[(usize, u64, u64)]) {
        self.invalidate(&range_keys(ranges));
    }

    /// Drop every frame of device `dev` — the
    /// health-transition hook: a Failed device's blocks must error (or
    /// reconstruct) rather than serve from cache, and a Rebuilding
    /// device's frames predate the resync sweep.
    pub fn drop_device(&self, dev: usize) {
        self.invalidate(&[device_keys(dev)]);
    }

    fn invalidate(&self, ranges: &[(Key, Key)]) {
        let covered = |k: &Key| ranges.iter().any(|(lo, hi)| (lo..=hi).contains(&k));
        let mut st = self.table();
        // Poison matching in-flight fetches too: invalidation means the
        // media changed (or died) underneath, so bytes fetched before it
        // must not come back as clean frames.
        let fetching: Vec<Key> = st.inflight.keys().filter(|k| covered(k)).copied().collect();
        for key in fetching {
            st.mark_stale_if_inflight(key);
        }
        while ranges.iter().any(|&(lo, hi)| st.transfer_in(lo, hi)) {
            st.wait_settled();
        }
        let mut frames: Vec<Key> = Vec::new();
        for &(lo, hi) in ranges {
            frames.extend(st.map.range(lo..=hi).map(|(&k, _)| k));
        }
        for key in frames {
            st.unmap(key);
        }
    }
}

impl CacheReadTicket {
    /// Complete the read: wait every miss run, land its bytes in the
    /// buffer and install them (`VolumeCache::land`), and hand the
    /// buffer back, hits and misses in place.
    pub fn wait(mut self, cache: &VolumeCache) -> Result<Box<[u8]>> {
        let bs = cache.block_size;
        let runs = self.misses.runs.iter();
        let moved = self.tickets.into_iter().zip(runs).map(|(t, &(at, _))| {
            t.wait()
                .map(|data| self.buf[at * bs..at * bs + data.len()].copy_from_slice(&data))
        });
        let moved = moved.collect();
        cache.land(self.misses, &self.buf, moved)?;
        Ok(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_disk::mem_array;
    use std::sync::Arc;

    const BS: usize = 64;

    fn devs(n: usize) -> Vec<DeviceRef> {
        mem_array(n, 64, BS)
    }

    fn cache(frames: usize) -> (VolumeCache, Vec<DeviceRef>) {
        let d = devs(2);
        let c = VolumeCache::new(d.clone(), VolumeCacheConfig::write_back(frames));
        (c, d)
    }

    #[test]
    fn read_through_caches_and_hits() {
        let (c, d) = cache(8);
        d[0].write_block(3, &[7u8; BS]).unwrap();
        let before = d[0].counters().reads;
        let mut buf = [0u8; BS];
        c.read_block(0, 3, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        c.read_block(0, 3, &mut buf).unwrap();
        assert_eq!(d[0].counters().reads, before + 1, "second read is a hit");
        let s = c.stats();
        assert_eq!((s.base.hits, s.base.misses), (1, 1));
    }

    #[test]
    fn adjacent_misses_coalesce_into_one_request() {
        let (c, d) = cache(16);
        for b in 0..8u64 {
            d[0].write_block(b, &[b as u8; BS]).unwrap();
        }
        let before = d[0].counters();
        let mut out = vec![0u8; 8 * BS];
        c.read_blocks(0, 0, &mut out).unwrap();
        for b in 0..8 {
            assert_eq!(out[b * BS], b as u8);
        }
        let after = d[0].counters();
        assert_eq!(after.reads - before.reads, 1, "one vectored request");
        assert_eq!(after.blocks_read - before.blocks_read, 8);
        assert_eq!(c.stats().coalesced_reads, 7);
    }

    #[test]
    fn misses_between_hits_split_into_runs() {
        let (c, d) = cache(16);
        let mut buf = [0u8; BS];
        c.read_block(0, 3, &mut buf).unwrap(); // make block 3 a hit
        let before = d[0].counters().reads;
        let mut out = vec![0u8; 6 * BS];
        c.read_blocks(0, 1, &mut out).unwrap(); // blocks 1..7: 3 resident
        assert_eq!(
            d[0].counters().reads - before,
            2,
            "runs [1,2] and [4,5,6] each fetch vectored"
        );
    }

    #[test]
    fn write_back_defers_and_flush_coalesces() {
        let (c, d) = cache(8);
        for b in 0..4u64 {
            c.write_block(0, b, &[b as u8 + 1; BS]).unwrap();
        }
        let mut buf = vec![0u8; BS];
        d[0].read_block(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "nothing on media yet");
        let before = d[0].counters();
        c.flush().unwrap();
        let after = d[0].counters();
        assert_eq!(after.writes - before.writes, 1, "one coalesced writeback");
        assert_eq!(after.blocks_written - before.blocks_written, 4);
        d[0].read_block(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 3));
        let s = c.stats();
        assert_eq!(s.base.writebacks, 4);
        assert_eq!(s.coalesced_writes, 3);
        // Second flush writes nothing.
        c.flush().unwrap();
        assert_eq!(c.stats().base.writebacks, 4);
    }

    #[test]
    fn eviction_writes_dirty_neighbors_as_one_run() {
        let d = devs(1);
        let c = VolumeCache::new(d.clone(), VolumeCacheConfig::write_back(4));
        for b in 0..4u64 {
            c.write_block(0, b, &[9u8; BS]).unwrap();
        }
        let before = d[0].counters();
        // Fifth distinct block forces an eviction; the victim's whole
        // dirty neighborhood goes home as one vectored write.
        c.write_block(0, 10, &[1u8; BS]).unwrap();
        let after = d[0].counters();
        assert_eq!(after.writes - before.writes, 1);
        assert_eq!(after.blocks_written - before.blocks_written, 4);
        assert!(c.stats().coalesced_writes >= 3);
    }

    #[test]
    fn invalidate_range_and_drop_device() {
        let (c, _d) = cache(8);
        c.write_block(0, 0, &[1u8; BS]).unwrap();
        c.write_block(0, 1, &[2u8; BS]).unwrap();
        c.write_block(1, 0, &[3u8; BS]).unwrap();
        c.invalidate_ranges(&[(0, 1, 1)]);
        assert_eq!(c.len(), 2);
        c.drop_device(0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().invalidations, 2);
        let mut buf = [0u8; BS];
        c.read_block(1, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 3, "other device untouched");
    }

    #[test]
    fn the_frames_bound_the_resident_blocks() {
        let (c, _d) = cache(6);
        let mut buf = [0u8; BS];
        for b in 0..10u64 {
            c.read_block(0, b, &mut buf).unwrap();
        }
        assert_eq!(c.len(), 6);
    }

    /// A one-block staging buffer for `submit_read`.
    fn one() -> Box<[u8]> {
        vec![0u8; BS].into_boxed_slice()
    }

    #[test]
    fn inflight_read_never_installs_stale_bytes() {
        // The executor-device race, deterministically: a miss fetch is
        // submitted, the block is mutated before the ticket is waited,
        // and the late install must be skipped — a hit afterwards has
        // to serve the *new* bytes, never the fetched old ones.
        let (c, d) = cache(8);
        d[0].write_block(0, &[1u8; BS]).unwrap();
        let t = c.submit_read(0, 0, one()).unwrap();
        c.write_block(0, 0, &[2u8; BS]).unwrap();
        // The read was ordered before the write; old bytes are a legal
        // return value. They just must not become a clean frame.
        let got = t.wait(&c).unwrap();
        assert_eq!(got[0], 1, "fetch predates the write");
        let mut buf = [0u8; BS];
        c.read_block(0, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "stale install must not mask the write");

        // Same shape against invalidation after a raw media write.
        let t = c.submit_read(0, 5, one()).unwrap();
        d[0].write_block(5, &[9u8; BS]).unwrap();
        c.invalidate_ranges(&[(0, 5, 1)]);
        t.wait(&c).unwrap();
        c.read_block(0, 5, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "invalidation poisons the in-flight fetch");
        assert!(c.frames.lock().inflight.is_empty(), "refs fully retired");
    }

    #[test]
    fn a_poison_spares_the_fetches_registered_after_it() {
        // Two fetches of one block overlap; a raw media write and its
        // invalidation land between their registrations. The poison
        // hits the first only: were the mark to stand until the key had
        // no fetch left in flight, overlapping fetchers would keep it
        // standing for one another forever.
        let (c, d) = cache(8);
        d[0].write_block(0, &[1u8; BS]).unwrap();
        let early = c.submit_read(0, 0, one()).unwrap();
        d[0].write_block(0, &[2u8; BS]).unwrap();
        c.invalidate_ranges(&[(0, 0, 1)]);
        let late = c.submit_read(0, 0, one()).unwrap();
        assert_eq!(late.wait(&c).unwrap()[0], 2);
        assert_eq!(c.len(), 1, "the later fetch is fresh and fills the frame");
        assert_eq!(early.wait(&c).unwrap()[0], 1);
        let mut buf = [0u8; BS];
        c.read_block(0, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 2, "the poisoned fetch installed nothing");
        assert!(
            c.frames.lock().stale.is_empty(),
            "marks retire with the fetches"
        );
    }

    /// A short buffer used to reach the table: a write claimed a frame
    /// and panicked filling it, leaving the slot neither free nor mapped,
    /// and the next sweep to reach it panicked too.
    #[test]
    fn a_partial_block_is_refused_before_a_frame_is_claimed() {
        let (c, _d) = cache(4);
        let short = |got| Err(DiskError::BadBufferSize { got, expected: BS });
        assert_eq!(c.write_block(0, 1, &[1u8; BS - 1]), short(BS - 1));
        assert_eq!(c.read_block(0, 2, &mut [0u8; BS - 1]), short(BS - 1));
        assert_eq!(c.write_block(0, 1, &[1u8; 2 * BS]), short(2 * BS));
        assert_eq!(c.submit_write(0, 1, &[1u8; BS + 1]), short(BS + 1));
        assert_eq!(c.read_blocks(0, 2, &mut [0u8; BS + 1]), short(BS + 1));
        assert!(c.is_empty(), "nothing was absorbed or filled");
        // Fill every frame, then sweep all of them out.
        for b in 0..8u64 {
            c.write_block(0, b, &[b as u8; BS]).unwrap();
        }
        assert_eq!((c.len(), c.stats().base.evictions), (4, 4));
        let mut buf = [0u8; BS];
        c.read_block(0, 7, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn clock_eviction_keeps_recently_referenced_frames() {
        let d = devs(1);
        let c = VolumeCache::new(d, VolumeCacheConfig::write_back(2));
        let mut buf = [0u8; BS];
        c.read_block(0, 1, &mut buf).unwrap();
        c.read_block(0, 2, &mut buf).unwrap();
        c.read_block(0, 1, &mut buf).unwrap(); // re-reference 1
        c.read_block(0, 3, &mut buf).unwrap(); // evicts one of {1,2}
        c.read_block(0, 1, &mut buf).unwrap();
        let s = c.stats();
        assert!(s.base.evictions >= 1);
        assert!(s.base.hits >= 2, "referenced frame survived: {s:?}");
    }

    // ------------------------------------------------------------------
    // The frame protocol: no transfer under the table lock
    // ------------------------------------------------------------------

    use pario_disk::{BlockDevice, DiskError, IoCounters, IoNode, MemDisk};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, OnceLock, Weak};
    use std::time::Duration;

    /// A `MemDisk` that runs `hook(is_write, first block)` at the top
    /// of every transfer, on whichever thread makes the call. Plain
    /// synchronous: its `submit_*` are the trait's inline defaults, so a
    /// submit made under the table lock would be a transfer under it.
    struct Hooked {
        inner: MemDisk,
        hook: Box<dyn Fn(bool, u64) -> Result<()> + Send + Sync>,
    }

    fn hooked(hook: impl Fn(bool) -> Result<()> + Send + Sync + 'static) -> DeviceRef {
        hooked_on(MemDisk::new(64, BS), move |write, _| hook(write))
    }

    fn hooked_on(
        inner: MemDisk,
        hook: impl Fn(bool, u64) -> Result<()> + Send + Sync + 'static,
    ) -> DeviceRef {
        Arc::new(Hooked {
            inner,
            hook: Box::new(hook),
        })
    }

    impl BlockDevice for Hooked {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
            (self.hook)(false, block)?;
            self.inner.read_blocks_at(block, buf)
        }
        fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
            (self.hook)(true, block)?;
            self.inner.write_blocks_at(block, data)
        }
        fn counters(&self) -> IoCounters {
            self.inner.counters()
        }
        fn fail(&self) {}
        fn heal(&self) {}
        fn is_failed(&self) -> bool {
            false
        }
    }

    /// Parks a gated device's writes while armed, until the test
    /// releases them.
    #[derive(Default)]
    struct Gate {
        /// (armed, writes parked)
        state: StdMutex<(bool, usize)>,
        cv: StdCondvar,
    }

    impl Gate {
        fn arm(&self) {
            self.state.lock().unwrap().0 = true;
        }

        /// The device side: a write parks here while the gate is armed.
        fn pass(&self) {
            let mut st = self.state.lock().unwrap();
            st.1 += 1;
            self.cv.notify_all();
            while st.0 {
                st = self.cv.wait(st).unwrap();
            }
            st.1 -= 1;
        }

        /// Block until a write is parked on the gate.
        fn wait_parked(&self) {
            let mut st = self.state.lock().unwrap();
            while !(st.0 && st.1 > 0) {
                st = self.cv.wait(st).unwrap();
            }
        }

        fn release(&self) {
            self.state.lock().unwrap().0 = false;
            self.cv.notify_all();
        }
    }

    /// A write-back cache of `frames` frames over [gated device 0, plain
    /// device 1], with the gate and the raw devices.
    fn gated_cache(frames: usize) -> (Arc<VolumeCache>, Arc<Gate>, Vec<DeviceRef>) {
        let gate = Arc::new(Gate::default());
        let g = Arc::clone(&gate);
        let gated = hooked(move |write| {
            if write {
                g.pass();
            }
            Ok(())
        });
        let d = vec![gated, devs(1).remove(0)];
        let c = VolumeCache::new(d.clone(), VolumeCacheConfig::write_back(frames));
        (Arc::new(c), gate, d)
    }

    /// Run `op` on its own thread; the receiver yields when it returned.
    fn in_background(
        c: &Arc<VolumeCache>,
        op: impl FnOnce(&VolumeCache) + Send + 'static,
    ) -> mpsc::Receiver<()> {
        let (tx, rx) = mpsc::channel();
        let c = Arc::clone(c);
        std::thread::spawn(move || {
            op(&c);
            let _ = tx.send(());
        });
        rx
    }

    /// How long a call that must *not* return is given to return anyway.
    const GRACE: Duration = Duration::from_millis(50);
    const SOON: Duration = Duration::from_secs(20);

    fn media(d: &DeviceRef, block: u64) -> u8 {
        let mut buf = [0u8; BS];
        d.read_block(block, &mut buf).unwrap();
        buf[0]
    }

    #[test]
    fn hit_write_and_miss_elsewhere_complete_while_a_flush_is_parked() {
        let (c, gate, d) = gated_cache(8);
        let mut buf = [0u8; BS];
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        c.read_block(0, 2, &mut buf).unwrap(); // resident, clean
        gate.arm();
        let flushed = in_background(&c, |c| c.flush_ranges(&[(0, 1, 1)]).unwrap());
        gate.wait_parked();
        // The device sits on the write-back; the table is free.
        let hits = c.stats().base.hits;
        c.read_block(0, 2, &mut buf).unwrap();
        c.read_block(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 1, "the frame being written back still serves");
        assert_eq!(c.stats().base.hits, hits + 2);
        c.write_block(0, 3, &[3u8; BS]).unwrap();
        c.read_block(1, 5, &mut buf).unwrap(); // a miss, on the other device
        assert_eq!(c.len(), 4);
        assert!(flushed.recv_timeout(GRACE).is_err(), "flush is parked");
        gate.release();
        flushed.recv_timeout(SOON).expect("flush completes");
        assert_eq!(media(&d[0], 1), 1);
    }

    #[test]
    fn write_racing_a_parked_write_back_leaves_the_frame_dirty() {
        let (c, gate, d) = gated_cache(8);
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        gate.arm();
        let flushed = in_background(&c, |c| c.flush_ranges(&[(0, 1, 1)]).unwrap());
        gate.wait_parked();
        c.write_block(0, 1, &[2u8; BS]).unwrap();
        gate.release();
        flushed.recv_timeout(SOON).expect("flush completes");
        assert_eq!(media(&d[0], 1), 1, "the write-back carried what it copied");
        {
            let st = c.frames.lock();
            let slot = &st.slots[st.map[&(0, 1)]];
            assert!(
                slot.dirty && !slot.writing,
                "the newer bytes are still owed"
            );
        }
        c.flush().unwrap();
        assert_eq!(media(&d[0], 1), 2, "the next flush writes the new bytes");
        assert_eq!(c.stats().base.writebacks, 2);
    }

    #[test]
    fn invalidation_waits_for_a_parked_write_back() {
        let (c, gate, d) = gated_cache(8);
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        gate.arm();
        let flushed = in_background(&c, |c| c.flush_ranges(&[(0, 1, 1)]).unwrap());
        gate.wait_parked();
        let dropped = in_background(&c, |c| c.invalidate_ranges(&[(0, 1, 1)]));
        assert!(
            dropped.recv_timeout(GRACE).is_err(),
            "invalidation returned with the write-back still in flight"
        );
        assert_eq!(c.len(), 1, "the frame stays until the transfer lands");
        gate.release();
        flushed.recv_timeout(SOON).expect("flush completes");
        dropped.recv_timeout(SOON).expect("invalidation completes");
        assert_eq!(c.len(), 0);
        assert_eq!(
            media(&d[0], 1),
            1,
            "landed before the invalidation returned"
        );
        // Same for the device-wide drop a health transition drives.
        c.write_block(0, 4, &[4u8; BS]).unwrap();
        gate.arm();
        let flushed = in_background(&c, |c| c.flush().unwrap());
        gate.wait_parked();
        let dropped = in_background(&c, |c| c.drop_device(0));
        assert!(dropped.recv_timeout(GRACE).is_err());
        gate.release();
        flushed.recv_timeout(SOON).expect("flush completes");
        dropped.recv_timeout(SOON).expect("drop completes");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn second_flush_of_a_block_waits_for_the_parked_one() {
        let (c, gate, d) = gated_cache(8);
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        gate.arm();
        let first = in_background(&c, |c| c.flush_ranges(&[(0, 1, 1)]).unwrap());
        gate.wait_parked();
        let second = in_background(&c, |c| c.flush_ranges(&[(0, 0, 4)]).unwrap());
        assert!(
            second.recv_timeout(GRACE).is_err(),
            "a flush returned while a write-back of its range was in flight"
        );
        gate.release();
        first.recv_timeout(SOON).expect("first flush completes");
        second.recv_timeout(SOON).expect("second flush completes");
        assert_eq!(media(&d[0], 1), 1);
        assert_eq!(d[0].counters().writes, 1, "the second found it clean");
    }

    #[test]
    fn clock_never_hands_out_a_writing_frame() {
        let (c, gate, _d) = gated_cache(2);
        let mut buf = [0u8; BS];
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        c.read_block(1, 7, &mut buf).unwrap();
        gate.arm();
        let flushed = in_background(&c, |c| c.flush_ranges(&[(0, 1, 1)]).unwrap());
        gate.wait_parked();
        // Both frames are unreferenced; only one may be recycled.
        for b in 8..12u64 {
            c.read_block(1, b, &mut buf).unwrap();
            let hits = c.stats().base.hits;
            c.read_block(0, 1, &mut buf).unwrap();
            assert_eq!(
                c.stats().base.hits,
                hits + 1,
                "the writing frame was evicted"
            );
            assert_eq!(buf[0], 1);
        }
        gate.release();
        flushed.recv_timeout(SOON).expect("flush completes");

        // With every frame mid-transfer the sweep waits instead.
        let (c, gate, d) = gated_cache(1);
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        gate.arm();
        let flushed = in_background(&c, |c| c.flush_ranges(&[(0, 1, 1)]).unwrap());
        gate.wait_parked();
        let read = in_background(&c, |c| c.read_block(1, 7, &mut [0u8; BS]).unwrap());
        assert!(
            read.recv_timeout(GRACE).is_err(),
            "recycled a writing frame"
        );
        gate.release();
        flushed.recv_timeout(SOON).expect("flush completes");
        read.recv_timeout(SOON).expect("read completes");
        assert_eq!(media(&d[0], 1), 1);
    }

    #[test]
    fn failed_write_back_leaves_the_frame_dirty_and_readable() {
        let broken = Arc::new(AtomicBool::new(false));
        let b = Arc::clone(&broken);
        let dev = hooked(move |write| {
            if write && b.load(Ordering::SeqCst) {
                return Err(DiskError::Io("write refused".into()));
            }
            Ok(())
        });
        let c = VolumeCache::new(vec![Arc::clone(&dev)], VolumeCacheConfig::write_back(4));
        c.write_block(0, 1, &[5u8; BS]).unwrap();
        broken.store(true, Ordering::SeqCst);
        assert!(c.flush_ranges(&[(0, 1, 1)]).is_err());
        let mut buf = [0u8; BS];
        c.read_block(0, 1, &mut buf).unwrap();
        assert_eq!(buf[0], 5, "still readable");
        {
            let st = c.frames.lock();
            let slot = &st.slots[st.map[&(0, 1)]];
            assert!(slot.dirty && !slot.writing, "still owed, and idle again");
        }
        assert_eq!(media(&dev, 1), 0);
        broken.store(false, Ordering::SeqCst);
        c.flush_ranges(&[(0, 1, 1)]).unwrap();
        assert_eq!(media(&dev, 1), 5);
    }

    // ------------------------------------------------------------------
    // A lone transfer is a call
    // ------------------------------------------------------------------

    /// Slower than the executor's hand-off cost (20 µs): a submission to
    /// such a node queues for its worker even when the node is idle.
    const SLOW: Duration = Duration::from_micros(100);

    /// Who made a transfer: (thread, is write, first block).
    type Made = (std::thread::ThreadId, bool, u64);

    #[test]
    fn a_lone_write_back_or_fill_is_a_call_that_queues_behind_a_busy_node() {
        let made: Arc<StdMutex<Vec<Made>>> = Arc::default();
        let gate = Arc::new(Gate::default());
        let (m, g) = (Arc::clone(&made), Arc::clone(&gate));
        let dev = hooked_on(
            MemDisk::new(64, BS).with_delay(SLOW),
            move |write, block| {
                let me = std::thread::current().id();
                m.lock().unwrap().push((me, write, block));
                if write {
                    g.pass();
                }
                Ok(())
            },
        );
        let node = IoNode::spawn(dev);
        let c = VolumeCache::new(vec![node.device()], VolumeCacheConfig::write_back(8));
        let last = || *made.lock().unwrap().last().unwrap();
        let me = std::thread::current().id();

        // A one-run flush on an idle node runs here, not on the worker.
        c.write_block(0, 1, &[1u8; BS]).unwrap();
        c.flush_ranges(&[(0, 1, 1)]).unwrap();
        assert_eq!(last(), (me, true, 1), "the write-back ran on the caller");
        // So does a one-block miss.
        let mut buf = [0u8; BS];
        c.read_blocks(0, 5, &mut buf).unwrap();
        assert_eq!(last(), (me, false, 5), "the fill ran on the caller");
        assert_eq!(node.stats().queue_wait_nanos, 0, "nothing queued");

        // With a transfer parked on the device, the same write-back
        // queues and lands after it.
        c.write_block(0, 1, &[2u8; BS]).unwrap();
        gate.arm();
        let raw = node.device();
        let [holder, flusher] = std::thread::scope(|s| {
            let holder = s.spawn(|| raw.write_block(9, &[9u8; BS]));
            gate.wait_parked();
            let flusher = s.spawn(|| c.flush_ranges(&[(0, 1, 1)]));
            let ids = [holder.thread().id(), flusher.thread().id()];
            while node.stats().in_flight < 2 {
                std::thread::yield_now();
            }
            gate.release();
            holder.join().unwrap().unwrap();
            flusher.join().unwrap().unwrap();
            ids
        });
        let writes: Vec<Made> = made
            .lock()
            .unwrap()
            .iter()
            .filter(|m| m.1)
            .copied()
            .collect();
        let [.., parked, queued] = writes[..] else {
            panic!("two writes at least: {writes:?}");
        };
        assert_eq!((parked.2, queued.2), (9, 1), "arrival order");
        assert_eq!(parked.0, holder, "the parked write ran on its caller");
        assert!(
            queued.0 != flusher && queued.0 != holder,
            "the queued write-back ran on the worker"
        );
        assert_eq!(media(&raw, 1), 2);
        assert!(node.stats().queue_wait_nanos > 0, "{:?}", node.stats());
    }

    /// Every transfer of a device built here takes the table lock
    /// (`VolumeCache::len`) on the thread that makes it — which
    /// self-deadlocks if that thread still holds the lock, and blocks
    /// forever if the holder is waiting for this transfer.
    fn probe(slot: &Arc<OnceLock<Weak<VolumeCache>>>) -> DeviceRef {
        let slot = Arc::clone(slot);
        hooked(move |_| {
            if let Some(c) = slot.get().and_then(Weak::upgrade) {
                std::hint::black_box(c.len());
            }
            Ok(())
        })
    }

    #[test]
    fn no_device_call_is_made_under_the_table_lock() {
        let slot = Arc::new(OnceLock::new());
        let cfg = VolumeCacheConfig::write_back(4);
        let c = Arc::new(VolumeCache::new(vec![probe(&slot), probe(&slot)], cfg));
        slot.set(Arc::downgrade(&c)).ok().unwrap();
        let (tx, done) = mpsc::channel();
        for t in 0..4u64 {
            let (c, tx) = (Arc::clone(&c), tx.clone());
            std::thread::spawn(move || {
                let mut buf = vec![0u8; 3 * BS];
                let mut x = t * 0x9E37_79B9 + 1;
                for _ in 0..400 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let (dev, b) = ((x >> 8) as usize % 2, (x >> 16) % 12);
                    match x % 7 {
                        0 => c.read_block(dev, b, &mut buf[..BS]).unwrap(),
                        1 => c.read_blocks(dev, b, &mut buf).unwrap(),
                        2 => c.write_block(dev, b, &[x as u8; BS]).unwrap(),
                        3 => c.submit_write(dev, b, &[x as u8; 2 * BS]).unwrap(),
                        4 => c.flush_ranges(&[(dev, b, 3)]).unwrap(),
                        5 => c.invalidate_ranges(&[(dev, b, 2)]),
                        _ => c.flush().unwrap(),
                    }
                }
                let _ = tx.send(());
            });
        }
        for _ in 0..4 {
            done.recv_timeout(Duration::from_secs(60))
                .expect("a transfer was made with the table locked");
        }
        c.flush().unwrap();
        c.drop_device(0);
        assert!(c.stats().base.writebacks > 0, "the write-back path ran");
    }
}
