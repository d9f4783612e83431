//! The volume: a directory of parallel files over a device array.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pario_check::{AtomicBool, AtomicU64, LockLevel, Mutex, RwLock};

use pario_buffer::{VolumeCache, VolumeCacheConfig, VolumeCacheStats};
use pario_disk::{mem_array, DeviceRef, IoNode, IoNodeStats};
use pario_layout::LayoutSpec;

use crate::alloc::{extents_len, push_merged, Allocator, Extent};
use crate::error::{FsError, Result};
use crate::file::RawFile;
use crate::health::{DeviceHealth, HealthBoard, HealthPolicy, HealthState};
use crate::journal::{self, Appended, JournalState, Record};
use crate::locks::RangeLocks;
use crate::meta::FileMeta;
use crate::staging::Staging;
use crate::superblock::{self, MetaStatus, MountReport};

/// Shape of a fresh in-memory volume.
#[derive(Copy, Clone, Debug)]
pub struct VolumeConfig {
    /// Number of devices.
    pub devices: usize,
    /// Blocks per device.
    pub device_blocks: u64,
    /// Block size in bytes (shared by all devices).
    pub block_size: usize,
}

/// Specification for creating a file.
#[derive(Clone, Debug)]
pub struct FileSpec {
    /// File name.
    pub name: String,
    /// Record size in bytes.
    pub record_size: usize,
    /// Records per logical file block (the paper's partitioning grain).
    pub records_per_block: usize,
    /// Data placement.
    pub layout: LayoutSpec,
    /// Opaque organization tag (owned by `pario-core`).
    pub org: String,
    /// Layout device slot -> volume device (defaults to `0..n`).
    pub device_map: Option<Vec<usize>>,
    /// Records to preallocate.
    pub initial_records: u64,
    /// Hard capacity for fixed-size organizations; implies full
    /// preallocation.
    pub fixed_capacity_records: Option<u64>,
}

impl FileSpec {
    /// A growable file with the given geometry and placement.
    pub fn new(
        name: &str,
        record_size: usize,
        records_per_block: usize,
        layout: LayoutSpec,
    ) -> FileSpec {
        FileSpec {
            name: name.to_string(),
            record_size,
            records_per_block,
            layout,
            org: String::new(),
            device_map: None,
            initial_records: 0,
            fixed_capacity_records: None,
        }
    }

    /// Set the organization tag.
    pub fn org(mut self, org: &str) -> FileSpec {
        self.org = org.to_string();
        self
    }

    /// Map layout device slots onto specific volume devices.
    pub fn device_map(mut self, map: Vec<usize>) -> FileSpec {
        self.device_map = Some(map);
        self
    }

    /// Preallocate room for `records` records.
    pub fn initial_records(mut self, records: u64) -> FileSpec {
        self.initial_records = records;
        self
    }

    /// Fix the file's capacity (required for partitioned layouts).
    pub fn fixed_capacity(mut self, records: u64) -> FileSpec {
        self.fixed_capacity_records = Some(records);
        self
    }
}

/// Shared runtime state of one file.
pub struct FileState {
    pub(crate) meta: RwLock<FileMeta>,
    /// The device rows held by writes that maintain redundancy and by
    /// recovery sweeps (`RawFile::lock_rows`): row `r` of every slot
    /// at once, so a parity stripe or a shadowed pair is one range.
    pub(crate) rows: RangeLocks,
    /// The logical blocks held by writes (`RawFile::write_span`): a
    /// write holds every block it touches, so no other write lands
    /// between a partial block's read and its write, and writes into
    /// other blocks proceed at once. Taken before the blocks' rows.
    pub(crate) blocks: RangeLocks,
    /// Generation counter for the quiesce protocol: bumped by
    /// `RawFile::quiesce_io` when a rebuild needs in-flight unlocked I/O
    /// to drain (see `RawFile::enter_io`).
    pub(crate) io_gen: AtomicU64,
    /// In-flight unlocked reads per generation parity. Readers
    /// increment their generation's slot *before* sampling device
    /// health (Dekker-style), so a rebuild that flips a device to
    /// Rebuilding and then drains the old slot cannot race a straggler
    /// that missed the flip.
    pub(crate) io_active: [AtomicU64; 2],
}

impl FileState {
    pub(crate) fn new(meta: FileMeta) -> FileState {
        FileState {
            meta: RwLock::new(meta),
            rows: RangeLocks::new(LockLevel::FsStripe),
            blocks: RangeLocks::new(LockLevel::FsRmw),
            io_gen: AtomicU64::new(0),
            io_active: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// The volume's free space: the allocator, and the removed files whose
/// blocks it may not hand out yet. A handle opened before
/// [`Volume::remove`] keeps working, on blocks no one else is given
/// (POSIX unlink semantics); they return once no handle reaches them.
pub(crate) struct Space {
    pub(crate) free: Allocator,
    /// Removed files, each until this list holds its only reference.
    parked: Vec<Arc<FileState>>,
}

impl Space {
    /// Return the blocks of every parked file no handle reaches any
    /// more. Nothing else can lock such a file's `meta`.
    fn reap(&mut self) {
        let free = &mut self.free;
        self.parked.retain(|state| {
            let reachable = Arc::strong_count(state) > 1;
            if !reachable {
                let meta = state.meta.read();
                release(free, &meta.device_map, &meta.extents);
            }
            reachable
        });
    }
}

pub(crate) struct VolInner {
    /// The devices as handed in. Only the meta region's images
    /// (`frame.rs`, for `superblock.rs` and `journal.rs`), teardown
    /// `flush`, and [`Volume::device`] — counters, failure state and
    /// fault injection — use them directly; every file byte goes
    /// through `io_devices`.
    pub(crate) devices: Vec<DeviceRef>,
    /// The volume's I/O executor: one persistent [`IoNode`] worker per
    /// device, dispatching FIFO; entry `i` routes to `devices[i]`.
    pub(crate) io_devices: Vec<DeviceRef>,
    pub(crate) block_size: usize,
    pub(crate) meta_blocks: u64,
    pub(crate) alloc: Mutex<Space>,
    pub(crate) files: RwLock<HashMap<String, Arc<FileState>>>,
    pub(crate) next_id: AtomicU64,
    /// Per-device health state machine, fed by executor error feedback
    /// from every `RawFile` I/O path.
    pub(crate) health: HealthBoard,
    /// The volume-wide block cache tier fronting the executor bank.
    /// Set at most once by [`Volume::enable_cache`]; absent, every span
    /// path submits straight to the executor (the seed behavior).
    pub(crate) cache: std::sync::OnceLock<Arc<VolumeCache>>,
    /// Free list of the span path's staging buffers (rank 72).
    pub(crate) staging: Staging,
    /// Free list of [`Volume::zero_fill`]'s write sources, apart from
    /// `staging` because nothing ever writes into one of its buffers:
    /// whatever it hands out is all zero (rank 72, a leaf as well).
    pub(crate) zeros: Staging,
    /// Metadata intent-journal cursor + superblock generation (rank 78).
    pub(crate) journal: Mutex<JournalState>,
    /// Checkpoint barrier. Every metadata operation holds it **shared**
    /// across its [in-memory mutation, journal append] window;
    /// `superblock::store` holds it **exclusive** from directory
    /// snapshot through journal reset. A checkpoint therefore never
    /// interleaves a window: every record in the journal when the
    /// snapshot is taken describes a mutation the snapshot already
    /// contains, so resetting the journal cannot drop a durable,
    /// acknowledged operation, and records appended after the reset
    /// carry the new generation and replay. Unranked (like `files` and
    /// per-file `meta`); acquired before any ranked lock and never held
    /// across `sync_meta`.
    pub(crate) ckpt: RwLock<()>,
    /// True once `new`/`mount` completed: teardown then syncs metadata
    /// best-effort. Stays false on construction error paths (a failed
    /// mount must not scribble a superblock onto foreign devices) and
    /// after [`Volume::abandon`] (crash simulation).
    pub(crate) live: AtomicBool,
    /// What mount found in the meta region, for recovery tooling.
    pub(crate) mount_report: std::sync::OnceLock<MountReport>,
}

impl Drop for VolInner {
    fn drop(&mut self) {
        if !self.live.load(Ordering::SeqCst) {
            return;
        }
        // Teardown sync: flush dirty cached data, checkpoint the
        // directory, and push everything to stable media. Best-effort —
        // a failed device cannot be helped at this point, and explicit
        // `sync_meta` calls are still the durability contract.
        if let Some(cache) = self.cache.get() {
            let _ = cache.flush();
        }
        let _ = superblock::store(self);
        for d in &self.devices {
            let _ = d.flush();
        }
    }
}

/// A mounted volume: cheap to clone, shared across threads.
#[derive(Clone)]
pub struct Volume {
    pub(crate) inner: Arc<VolInner>,
}

impl Volume {
    /// Create a fresh volume over `devices`, reserving the superblock
    /// region on device 0 and writing an empty superblock. The volume's
    /// I/O executor dispatches each device queue in arrival order.
    pub fn new(devices: Vec<DeviceRef>) -> Result<Volume> {
        let vol = Volume::init(devices)?;
        vol.sync_meta()?;
        vol.inner.live.store(true, Ordering::SeqCst);
        Ok(vol)
    }

    /// Build the in-memory structures without touching the superblock.
    fn init(devices: Vec<DeviceRef>) -> Result<Volume> {
        if devices.is_empty() {
            return Err(FsError::BadSpec("volume needs at least one device".into()));
        }
        let block_size = devices[0].block_size();
        if devices.iter().any(|d| d.block_size() != block_size) {
            return Err(FsError::BadSpec(
                "all devices must share a block size".into(),
            ));
        }
        let meta_blocks = superblock::meta_blocks(block_size, devices[0].num_blocks());
        if devices[0].num_blocks() <= meta_blocks {
            return Err(FsError::BadSpec(format!(
                "device 0 too small for the {meta_blocks}-block superblock region"
            )));
        }
        let sizes: Vec<u64> = devices.iter().map(|d| d.num_blocks()).collect();
        let mut free = Allocator::with_sizes(&sizes);
        let region = Extent {
            start: 0,
            len: meta_blocks,
        };
        let reserved = free.reserve(0, region);
        // invariant: a fresh allocator, and device 0 outlasts the region (checked above).
        reserved.expect("the meta region fits device 0");
        // The executor: one persistent worker per device. Dropping the
        // IoNode struct is fine — the handle's sender keeps the worker
        // alive until the volume is dropped.
        let io_devices = devices
            .iter()
            .map(|d| IoNode::spawn(Arc::clone(d)).device())
            .collect();
        let health = HealthBoard::new(devices.len(), HealthPolicy::default());
        Ok(Volume {
            inner: Arc::new(VolInner {
                devices,
                io_devices,
                block_size,
                meta_blocks,
                alloc: Mutex::new_named(
                    Space {
                        free,
                        parked: Vec::new(),
                    },
                    LockLevel::FsAlloc,
                ),
                files: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                health,
                cache: std::sync::OnceLock::new(),
                staging: Staging::new(),
                zeros: Staging::new(),
                journal: Mutex::new_named(
                    JournalState {
                        gen: 0,
                        pos: 0,
                        seq: 0,
                    },
                    LockLevel::FsJournal,
                ),
                ckpt: RwLock::new(()),
                live: AtomicBool::new(false),
                mount_report: std::sync::OnceLock::new(),
            }),
        })
    }

    /// Create a fresh volume over in-memory devices.
    pub fn create_in_memory(cfg: VolumeConfig) -> Result<Volume> {
        Volume::new(mem_array(cfg.devices, cfg.device_blocks, cfg.block_size))
    }

    /// Mount a volume previously persisted with [`Volume::sync_meta`].
    /// Fails with [`FsError::Meta`] if device 0 carries no superblock.
    pub fn mount(devices: Vec<DeviceRef>) -> Result<Volume> {
        let vol = Volume::init(devices)?;
        let report = superblock::load(&vol.inner)?;
        let _ = vol.inner.mount_report.set(report);
        vol.inner.live.store(true, Ordering::SeqCst);
        Ok(vol)
    }

    /// What this mount found in the meta region: which slot validated,
    /// the generation loaded, and how many intent-journal records were
    /// replayed. `None` on a freshly created (not mounted) volume.
    pub fn mount_report(&self) -> Option<MountReport> {
        self.inner.mount_report.get().cloned()
    }

    /// Point-in-time health of the meta region: on-disk slot
    /// generations plus the in-memory journal cursor.
    pub fn meta_status(&self) -> MetaStatus {
        superblock::status(&self.inner)
    }

    /// Blocks reserved for the meta region (superblock slots + intent
    /// journal) on device 0.
    pub fn meta_region_blocks(&self) -> u64 {
        self.inner.meta_blocks
    }

    /// Disable the volume's teardown metadata sync. A dropped volume
    /// then leaves the devices exactly as the last explicit write left
    /// them — what a crash/remount harness needs.
    pub fn abandon(&self) {
        self.inner.live.store(false, Ordering::SeqCst);
    }

    /// Volume block size in bytes.
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.inner.devices.len()
    }

    /// Shared handle to device `i` as handed in, beside the executor:
    /// for its counters and fault injection. File I/O goes through
    /// [`Volume::io_device`].
    pub fn device(&self, i: usize) -> DeviceRef {
        Arc::clone(&self.inner.devices[i])
    }

    /// Handle to device `i` routed through the volume's I/O executor:
    /// `submit_read_blocks` / `submit_write_blocks` on it enqueue onto
    /// the device's persistent worker and return immediately.
    pub fn io_device(&self, i: usize) -> DeviceRef {
        Arc::clone(&self.inner.io_devices[i])
    }

    /// Aggregate queue statistics for the volume's I/O executor: total
    /// requests serviced, current and high-water queue depths, and
    /// cumulative queue-wait vs. device service time across every
    /// per-device worker.
    pub fn executor_stats(&self) -> IoNodeStats {
        let mut agg = IoNodeStats::default();
        for d in &self.inner.io_devices {
            if let Some(s) = d.ionode_stats() {
                agg.absorb(s);
            }
        }
        agg
    }

    /// Attach the volume-wide write-back block cache tier per `cfg`,
    /// fronting the I/O executor for every span path: reads fill
    /// frames, and writes are absorbed into dirty frames that reach the
    /// devices, coalesced, at eviction, [`Volume::flush_cache`] or a
    /// range flush (`RawFile::flush_span`). Device health transitions
    /// drop the affected device's frames automatically. Fails if a
    /// cache is already attached.
    pub fn enable_cache(&self, cfg: VolumeCacheConfig) -> Result<Volume> {
        let cache = Arc::new(VolumeCache::new(self.inner.io_devices.clone(), cfg));
        if self.inner.cache.set(Arc::clone(&cache)).is_err() {
            return Err(FsError::BadSpec("volume cache already enabled".into()));
        }
        // Failed media must error (or reconstruct) instead of serving
        // frames, and Rebuilding frames predate the resync sweep. The
        // listener runs after the board mutex is released, so dropping
        // frames here respects the lock hierarchy (75 < 80 means the
        // cache lock may never be taken *under* the board).
        let weak = Arc::downgrade(&cache);
        self.inner.health.set_listener(Arc::new(move |d, to| {
            if to.is_down() {
                if let Some(c) = weak.upgrade() {
                    c.drop_device(d);
                }
            }
        }));
        Ok(self.clone())
    }

    /// The volume's cache tier, if [`Volume::enable_cache`] attached one.
    pub fn cache(&self) -> Option<&Arc<VolumeCache>> {
        self.inner.cache.get()
    }

    /// Where `RawFile` takes its staging buffers from and hands them
    /// back to.
    pub(crate) fn staging(&self) -> &Staging {
        &self.inner.staging
    }

    /// Cache traffic counters, if a cache is attached.
    pub fn cache_stats(&self) -> Option<VolumeCacheStats> {
        self.inner.cache.get().map(|c| c.stats())
    }

    /// Write every dirty cached block to its home device (no-op without
    /// a cache).
    pub fn flush_cache(&self) -> Result<()> {
        match self.inner.cache.get() {
            Some(c) => Ok(c.flush()?),
            None => Ok(()),
        }
    }

    /// The volume's device health board: the per-device state machine
    /// (Healthy / Suspect / Failed / Rebuilding) driving degraded
    /// routing, hedged reads and online rebuild.
    pub fn health(&self) -> &HealthBoard {
        &self.inner.health
    }

    /// Current health state of device `i` (lock-free).
    pub fn device_health(&self, i: usize) -> HealthState {
        self.inner.health.state(i)
    }

    /// Snapshot of every device's health record (state, error counters,
    /// full transition history).
    pub fn health_snapshot(&self) -> Vec<DeviceHealth> {
        self.inner.health.snapshot()
    }

    /// Whether any device is currently not Healthy.
    pub fn is_degraded(&self) -> bool {
        self.inner.health.any_degraded()
    }

    /// Open handles to every file in the volume, sorted by name. Used
    /// by recovery tooling to sweep all files during an online rebuild.
    pub fn open_all(&self) -> Result<Vec<RawFile>> {
        self.list()
            .into_iter()
            .map(|name| self.open(&name))
            .collect()
    }

    /// Free blocks per device. A removed file's blocks count once no
    /// handle reaches them.
    pub fn free_blocks(&self) -> Vec<u64> {
        let mut space = self.inner.alloc.lock();
        space.reap();
        (0..self.num_devices())
            .map(|d| space.free.free_blocks(d))
            .collect()
    }

    /// Names of all files, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.files.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Create a file per `spec` and open it.
    pub fn create_file(&self, spec: FileSpec) -> Result<RawFile> {
        let mut meta = self.new_meta(&spec)?;
        meta.id = self.inner.next_id.fetch_add(1, Ordering::Relaxed); // ordering: id allocation needs uniqueness, not ordering
        let id = meta.id;
        let state = Arc::new(FileState::new(meta));
        // The checkpoint barrier spans [directory insert, journal
        // append]: a checkpoint slicing between the two could persist
        // the file yet reset the journal around a Create record about
        // to land with a stale generation — losing the create at replay.
        let journal_full = {
            let _window = self.inner.ckpt.read();
            {
                let mut files = self.inner.files.write();
                if files.contains_key(&spec.name) {
                    return Err(FsError::AlreadyExists(spec.name));
                }
                // A directory that outgrew a slot could be neither
                // checkpointed nor, after a crash, remounted.
                superblock::admit(&self.inner, &files, &state.meta.read())?;
                files.insert(spec.name.clone(), Arc::clone(&state));
            }
            // Journal the create before any growth it triggers, so
            // replay sees the file before its extents arrive.
            let create_rec = Record::Create {
                meta: state.meta.read().clone(),
            };
            match journal::append(&self.inner, &create_rec) {
                Ok(a) => a == Appended::Full,
                Err(e) => {
                    self.inner.files.write().remove(&spec.name);
                    return Err(e);
                }
            }
        };
        // Fixed-size files are fully preallocated so partitioned layouts
        // never see a partial total (their mapping is sized at creation).
        // Fixed-size partitioned layouts preallocate the full mapping
        // (their bounds may round capacity up to whole file blocks).
        let bs = self.block_size();
        let cap = state.meta.read().capacity_blocks(bs);
        let lblocks = cap.unwrap_or_else(|| {
            (spec.initial_records * spec.record_size as u64).div_ceil(bs as u64)
        });
        if lblocks > 0 {
            if let Err(e) = self.grow_file(&state, lblocks) {
                // Replay must not resurrect the rolled-back create: a
                // durable Remove record must supersede the logged
                // Create record.
                let compensated = {
                    let _window = self.inner.ckpt.read();
                    self.inner.files.write().remove(&spec.name);
                    matches!(
                        journal::append(&self.inner, &Record::Remove { id }),
                        Ok(Appended::Logged)
                    )
                };
                if !compensated {
                    // No room (or a failing device): a checkpoint
                    // without the file supersedes the Create record
                    // instead; if even that fails, surface it — replay
                    // could otherwise resurrect a file the caller was
                    // told does not exist.
                    self.sync_meta()?;
                }
                return Err(e);
            }
        }
        if journal_full {
            self.sync_meta()?;
        }
        RawFile::from_state(self.clone(), state)
    }

    /// Open an existing file.
    pub fn open(&self, name: &str) -> Result<RawFile> {
        let state = self
            .inner
            .files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        RawFile::from_state(self.clone(), state)
    }

    /// Delete a file. Its blocks go back to the allocator once no handle
    /// reaches them: a `RawFile` opened before keeps reading and writing
    /// the removed file's own blocks, never a file created after.
    pub fn remove(&self, name: &str) -> Result<()> {
        let seen = self
            .inner
            .files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let id = seen.meta.read().id;
        // The checkpoint barrier spans [journal append, directory
        // removal, parking the blocks]: a checkpoint never sees the
        // record without the removal (it would reset the journal around
        // an acknowledged remove) or the release without the record.
        let window = self.inner.ckpt.read();
        // Journal the intent *before* releasing blocks: a racing grow
        // that reuses them then journals strictly after this record,
        // so replay keeps allocator and extents agreeing.
        let journal_full = journal::append(&self.inner, &Record::Remove { id })? == Appended::Full;
        let state = {
            let mut files = self.inner.files.write();
            match files.get(name) {
                Some(s) if Arc::ptr_eq(s, &seen) => {
                    // invariant: the entry was just matched under the write lock.
                    files.remove(name).expect("entry matched under write lock")
                }
                // A racing remove won; its record makes ours a no-op
                // at replay.
                _ => return Err(FsError::NotFound(name.to_string())),
            }
        };
        drop(seen);
        // Cached frames of the file's blocks die with it: a dirty
        // write-back frame flushed later would clobber whoever the
        // allocator hands these blocks to next. (A handle still open
        // writes frames of its own; the zero-fill of whoever gets the
        // blocks next drops them.)
        if let Some(cache) = self.inner.cache.get() {
            let meta = state.meta.read();
            cache.invalidate_ranges(&device_ranges(&meta.device_map, &meta.extents));
        }
        if journal_full {
            // The journal had no room, so no durable Remove record
            // exists yet: checkpoint (without the file) *before* the
            // allocator can hand these blocks to a concurrent create or
            // grow — a crash after reuse would otherwise resurrect the
            // file from the last durable checkpoint over someone else's
            // data.
            drop(window);
            self.sync_meta()?;
        }
        let mut space = self.inner.alloc.lock();
        space.parked.push(state);
        space.reap();
        Ok(())
    }

    /// Checkpoint: persist the directory and all file metadata to the
    /// superblock region on device 0 (alternating slots, CRC-protected,
    /// flushed to stable media) and reset the intent journal.
    pub fn sync_meta(&self) -> Result<()> {
        superblock::store(&self.inner)
    }

    /// The metadata of the new file `spec` describes, its id not yet
    /// minted, if it keeps the placement rules ([`check_placement`]);
    /// by default slot `i` goes to device `i`.
    fn new_meta(&self, spec: &FileSpec) -> Result<FileMeta> {
        let nslots = spec.layout.check().map_err(FsError::BadSpec)?;
        let device_map = match &spec.device_map {
            Some(map) => map.clone(),
            None if nslots > self.num_devices() => {
                return Err(FsError::BadSpec(format!(
                    "layout needs {nslots} devices, volume has {}",
                    self.num_devices()
                )))
            }
            None => (0..nslots).collect(),
        };
        let meta = FileMeta {
            id: 0,
            name: spec.name.clone(),
            record_size: spec.record_size,
            records_per_block: spec.records_per_block,
            len_records: 0,
            layout: spec.layout.clone(),
            org: spec.org.clone(),
            device_map,
            fixed_capacity_records: spec.fixed_capacity_records,
            nblocks: 0,
            extents: vec![Vec::new(); nslots],
        };
        check_placement(&self.inner, &meta).map_err(FsError::BadSpec)?;
        Ok(meta)
    }

    /// Grow `state`'s allocation to at least `total_lblocks` logical
    /// blocks, zeroing new extents (parity and shadow invariants start
    /// from all-zero stripes). The one place a file grows, and so the
    /// one place the growth policy lives:
    ///
    /// * a first allocation (`create_file`'s `initial_records`, a first
    ///   write into an empty file) and every fixed-capacity file get
    ///   exactly `total_lblocks`;
    /// * a growable file that already holds blocks grows to
    ///   `max(total_lblocks, nblocks + min(nblocks, RUN_AHEAD))` — it
    ///   doubles until the step reaches [`RUN_AHEAD`], then advances by
    ///   that — so N one-block appends cost O(log N + N / RUN_AHEAD)
    ///   allocator calls, zero-fill runs, `Grow` records and flushes
    ///   instead of N of each;
    /// * if the devices cannot hold the run-ahead, what was taken is
    ///   released and the exact request retried under the same hold of
    ///   `ckpt` and `meta`: run-ahead never turns a satisfiable append
    ///   into `NoSpace`.
    ///
    /// The blocks past the last one written are zero-filled, owned by
    /// the file (`nblocks`, the extent map and the `Grow` record all
    /// include them), at most `min(nblocks, RUN_AHEAD)` of them, never
    /// trimmed, and returned by [`Volume::remove`]. Order within one
    /// grow is DESIGN §13's: zero-fill lands, extent map, journal record
    /// and flush, return.
    pub(crate) fn grow_file(&self, state: &FileState, total_lblocks: u64) -> Result<()> {
        let journal_full = {
            // The checkpoint barrier spans [extent-map mutation, journal
            // append] — see `VolInner::ckpt`. Taken before the meta
            // write lock so a checkpoint (which reads every file's meta
            // under the exclusive barrier) cannot deadlock against the
            // append below.
            let _window = self.inner.ckpt.read();
            let mut meta = state.meta.write();
            if total_lblocks <= meta.nblocks {
                return Ok(());
            }
            if let Some(cap_blocks) = meta.capacity_blocks(self.block_size()) {
                if total_lblocks > cap_blocks {
                    return Err(FsError::CapacityExceeded {
                        requested: total_lblocks,
                        capacity: cap_blocks,
                    });
                }
            }
            let ahead = if meta.fixed_capacity_records.is_none() && meta.nblocks > 0 {
                total_lblocks.max(meta.nblocks + meta.nblocks.min(RUN_AHEAD))
            } else {
                total_lblocks
            };
            let (nblocks, added) = match self.allocate_to(&meta, ahead) {
                Err(FsError::NoSpace { .. }) if ahead > total_lblocks => {
                    (total_lblocks, self.allocate_to(&meta, total_lblocks)?)
                }
                added => (ahead, added?),
            };
            if let Err(e) = self.zero_fill(&meta.device_map, &added) {
                // Nothing points at the blocks yet and no zero is still
                // in flight to them: hand them back.
                release(&mut self.inner.alloc.lock().free, &meta.device_map, &added);
                return Err(e);
            }
            for (slot_extents, new) in meta.extents.iter_mut().zip(&added) {
                new.iter().for_each(|&e| push_merged(slot_extents, e));
            }
            meta.nblocks = nblocks;
            // Journal the completed grow. The zero-fill above already
            // landed, so at any crash point where this record exists the
            // data invariant (fresh extents read as zero) holds and
            // replay never rewrites data blocks.
            let grow = Record::Grow {
                id: meta.id,
                slots: added,
                nblocks,
            };
            journal::append(&self.inner, &grow)? == Appended::Full
        };
        if journal_full {
            self.sync_meta()?;
        }
        Ok(())
    }

    /// Allocate what each layout slot of `meta` lacks to hold
    /// `total_lblocks` logical blocks, under one hold of the allocator:
    /// the new extents by slot, or nothing taken and the error.
    fn allocate_to(&self, meta: &FileMeta, total_lblocks: u64) -> Result<Vec<Vec<Extent>>> {
        let layout = meta.layout.build();
        let mut added: Vec<Vec<Extent>> = vec![Vec::new(); layout.devices()];
        let mut space = self.inner.alloc.lock();
        space.reap();
        let alloc = &mut space.free;
        for slot in 0..added.len() {
            let need = layout.blocks_on_device(total_lblocks, slot);
            let have = extents_len(&meta.extents[slot]);
            match alloc.allocate(meta.device_map[slot], need.saturating_sub(have)) {
                Ok(extents) => added[slot] = extents,
                Err(e) => {
                    release(alloc, &meta.device_map, &added);
                    return Err(e);
                }
            }
        }
        Ok(added)
    }

    /// Write zeros over freshly allocated `extents`, indexed by layout
    /// slot, in waves: each wave submits one run of at most
    /// [`ZERO_FILL_BLOCKS`] to the executor of every device that still
    /// has blocks to zero, then waits for all of them, so the devices
    /// work at once and a file's zero-fill takes as long as its longest
    /// device's. A run's zero buffer comes back with its ticket and goes
    /// round through `VolInner::zeros`.
    ///
    /// An error ends the sweep after its wave: every run submitted has
    /// been waited for by then, so the caller may hand the blocks back —
    /// no zero is still on its way to a block someone else could be
    /// given.
    fn zero_fill(&self, device_map: &[usize], extents: &[Vec<Extent>]) -> Result<()> {
        let bs = self.block_size();
        // The zero-fill bypasses the cache. Invalidate on both sides of
        // it: before, so a write-back a previous owner of these blocks
        // left in flight lands first and not on top of the zeros; after,
        // to drop any frame filled in between.
        let cache = self
            .inner
            .cache
            .get()
            .map(|c| (c, device_ranges(device_map, extents)));
        let invalidate = || {
            if let Some((c, ranges)) = &cache {
                c.invalidate_ranges(ranges);
            }
        };
        let chunks = |e: &Extent| {
            let end = e.end();
            let starts = (e.start..end).step_by(ZERO_FILL_BLOCKS as usize);
            starts.map(move |b| (b, (end - b).min(ZERO_FILL_BLOCKS) as usize))
        };
        let runs: Vec<Vec<(u64, usize)>> = extents
            .iter()
            .map(|new| new.iter().flat_map(chunks).collect())
            .collect();
        let zeros = &self.inner.zeros;
        let mut outcome = Ok(());
        invalidate();
        for wave in 0..runs.iter().map(Vec::len).max().unwrap_or(0) {
            let submit = |(slot, runs): (usize, &Vec<(u64, usize)>)| {
                let &(block, n) = runs.get(wave)?;
                let dev = &self.inner.io_devices[device_map[slot]];
                Some(dev.submit_write_blocks(block, zeros.take(n * bs)))
            };
            let inflight: Vec<_> = runs.iter().enumerate().filter_map(submit).collect();
            // Last submitted, first waited for: where the workers share
            // a CPU with this thread they run in the order they were
            // woken, so the wave is over when this wait returns and the
            // caller is woken once, not once a device.
            for ticket in inflight.into_iter().rev() {
                match ticket.wait() {
                    Ok(zero) => zeros.give(zero),
                    Err(e) => outcome = outcome.and(Err(e.into())),
                }
            }
            if outcome.is_err() {
                break;
            }
        }
        invalidate();
        outcome
    }
}

/// How far past the block an append asked for a growable file's
/// allocation may run: the file doubles until it holds this many logical
/// blocks, then grows by this many at a time (`Volume::grow_file`).
const RUN_AHEAD: u64 = 256;

/// Most blocks in one zero-fill request; a wave has one request per
/// device in flight (`Volume::zero_fill`).
const ZERO_FILL_BLOCKS: u64 = 128;

/// `extents`, indexed by layout slot, as `(volume device, first block,
/// count)` ranges: what the cache tier's invalidation takes.
fn device_ranges(device_map: &[usize], extents: &[Vec<Extent>]) -> Vec<(usize, u64, u64)> {
    let slots = device_map.iter().zip(extents);
    let ranges = slots.flat_map(|(&dev, slot)| slot.iter().map(move |e| (dev, e.start, e.len)));
    ranges.collect()
}

/// The rules a file's placement keeps, checked at create and again on
/// every file a mount decodes: records of positive size; a buildable
/// layout ([`LayoutSpec::check`]) whose every slot maps to a device of
/// its own; a shadow over a plain layout only; a capacity whose bytes
/// fit a `u64`; and a partitioned layout, shadowed or not, only at a
/// fixed capacity its bounds cover.
pub(crate) fn check_placement(
    inner: &VolInner,
    meta: &FileMeta,
) -> std::result::Result<(), String> {
    let FileMeta {
        record_size,
        records_per_block,
        ref layout,
        ref device_map,
        fixed_capacity_records,
        ..
    } = *meta;
    if record_size == 0 || records_per_block == 0 {
        return Err("record size and records per block must be positive".into());
    }
    let nslots = layout.check()?;
    if device_map.len() != nslots {
        return Err(format!(
            "device map has {} entries, layout needs {nslots}",
            device_map.len()
        ));
    }
    let mut seen = vec![false; inner.devices.len()];
    for &d in device_map {
        let Some(seen) = seen.get_mut(d) else {
            return Err(format!("device {d} does not exist"));
        };
        if std::mem::replace(seen, true) {
            return Err(format!("device {d} mapped twice"));
        }
    }
    if let LayoutSpec::Shadowed(plain) = layout {
        if matches!(**plain, LayoutSpec::Parity { .. } | LayoutSpec::Shadowed(_)) {
            return Err("a shadow wraps only a plain (striped or partitioned) layout".into());
        }
    }
    if let Some(cap) = fixed_capacity_records {
        if cap.checked_mul(record_size as u64).is_none() {
            return Err(format!("a capacity of {cap} records overflows"));
        }
    }
    match (meta.partition_bounds(), fixed_capacity_records) {
        (Some(_), None) => Err("partitioned layouts require a fixed capacity".into()),
        (Some(bounds), Some(cap)) => {
            let cap_blocks = (cap * record_size as u64).div_ceil(inner.block_size as u64);
            // invariant: `LayoutSpec::check` above refused bounds naming no partition.
            let total = *bounds.last().expect("checked non-empty");
            if total < cap_blocks {
                return Err(format!(
                    "partition bounds cover {total} blocks but capacity needs {cap_blocks}"
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Return `extents`, indexed by layout slot, to the allocator.
fn release(alloc: &mut Allocator, device_map: &[usize], extents: &[Vec<Extent>]) {
    for (slot, slot_extents) in extents.iter().enumerate() {
        for &e in slot_extents {
            alloc.release(device_map[slot], e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pario_disk::{BlockDevice, IoCounters, MemDisk};

    fn vol() -> Volume {
        Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 128,
            block_size: 512,
        })
        .unwrap()
    }

    fn striped_spec(name: &str) -> FileSpec {
        FileSpec::new(
            name,
            64,
            8,
            LayoutSpec::Striped {
                devices: 4,
                unit: 1,
            },
        )
    }

    #[test]
    fn create_open_list_remove() {
        let v = vol();
        v.create_file(striped_spec("a")).unwrap();
        v.create_file(striped_spec("b")).unwrap();
        assert_eq!(v.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(v.open("a").is_ok());
        assert!(matches!(v.open("zz"), Err(FsError::NotFound(_))));
        assert!(matches!(
            v.create_file(striped_spec("a")),
            Err(FsError::AlreadyExists(_))
        ));
        v.remove("a").unwrap();
        assert_eq!(v.list(), vec!["b".to_string()]);
        assert!(matches!(v.remove("a"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn remove_releases_space() {
        let v = vol();
        let before = v.free_blocks();
        let f = v
            .create_file(striped_spec("big").initial_records(512))
            .unwrap();
        drop(f);
        assert!(v.free_blocks().iter().sum::<u64>() < before.iter().sum::<u64>());
        v.remove("big").unwrap();
        assert_eq!(v.free_blocks(), before);
    }

    /// A handle kept across `remove` used to move bytes through the
    /// released extents: its `write_record` returned `Ok` and landed in
    /// record 0 of the file created next, cached or not. The removed
    /// file's blocks now stay its own while a handle reaches them, and
    /// return when the last one goes.
    #[test]
    fn a_handle_kept_across_remove_never_reaches_the_next_file() {
        for cached in [false, true] {
            let v = vol();
            if cached {
                v.enable_cache(VolumeCacheConfig::write_back(64)).unwrap();
            }
            let before = v.free_blocks();
            let old = v
                .create_file(striped_spec("f").initial_records(64))
                .unwrap();
            old.write_record(0, &[1; 64]).unwrap();
            v.remove("f").unwrap();
            let next = v
                .create_file(striped_spec("g").initial_records(64))
                .unwrap();
            next.write_record(0, &[2; 64]).unwrap();
            old.write_record(0, &[3; 64]).unwrap();
            v.flush_cache().unwrap();
            let mut back = [0u8; 64];
            next.read_record(0, &mut back).unwrap();
            assert_eq!(back, [2; 64], "cached={cached}: the next file's record 0");
            old.read_record(0, &mut back).unwrap();
            assert_eq!(back, [3; 64], "cached={cached}: the removed file's own");
            assert_ne!(
                v.free_blocks(),
                before,
                "cached={cached}: a handle reaches them"
            );
            drop((old, next));
            v.remove("g").unwrap();
            assert_eq!(v.free_blocks(), before, "cached={cached}: both came back");
        }
    }

    #[test]
    fn spec_validation() {
        let v = vol();
        // Too many devices.
        let bad = FileSpec::new(
            "x",
            64,
            1,
            LayoutSpec::Striped {
                devices: 9,
                unit: 1,
            },
        );
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        // Zero record size.
        let bad = FileSpec::new(
            "x",
            0,
            1,
            LayoutSpec::Striped {
                devices: 1,
                unit: 1,
            },
        );
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        // Partitioned without fixed capacity.
        let bad = FileSpec::new(
            "x",
            512,
            1,
            LayoutSpec::Partitioned {
                bounds: vec![0, 4, 8],
                devices: 2,
            },
        );
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        // Partitioned with mismatched bounds.
        let bad = FileSpec::new(
            "x",
            512,
            1,
            LayoutSpec::Partitioned {
                bounds: vec![0, 4, 8],
                devices: 2,
            },
        )
        .fixed_capacity(9);
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        // Duplicate device in map.
        let bad = striped_spec("x").device_map(vec![0, 1, 2, 2]);
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        // Shadowed parity.
        let bad = FileSpec::new(
            "x",
            64,
            1,
            LayoutSpec::Shadowed(Box::new(LayoutSpec::Parity {
                data_devices: 1,
                rotated: false,
            })),
        );
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
    }

    /// A shadow of a shadow would allocate four copies while every write
    /// reaches only two of them, so it is refused like a shadowed parity
    /// layout.
    #[test]
    fn a_shadow_wraps_only_a_plain_placement() {
        let v = vol();
        let striped = LayoutSpec::Striped {
            devices: 1,
            unit: 1,
        };
        let nested = LayoutSpec::Shadowed(Box::new(LayoutSpec::Shadowed(Box::new(striped))));
        let bad = FileSpec::new("x", 64, 1, nested);
        assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        assert!(v.open("x").is_err());
    }

    #[test]
    fn create_refuses_a_placement_it_cannot_build() {
        let v = vol();
        let parted = LayoutSpec::Partitioned {
            bounds: vec![0, 4, 8],
            devices: 2,
        };
        let mirrored = LayoutSpec::Shadowed(Box::new(parted));
        let zero_unit = LayoutSpec::Striped {
            devices: 2,
            unit: 0,
        };
        // Both used to be created: the first write to the mirrored
        // partitions panicked, and the zero unit panicked the create.
        for layout in [mirrored.clone(), zero_unit] {
            let bad = FileSpec::new("x", 512, 1, layout);
            assert!(matches!(v.create_file(bad), Err(FsError::BadSpec(_))));
        }
        let f = v
            .create_file(FileSpec::new("x", 512, 1, mirrored).fixed_capacity(8))
            .unwrap();
        f.write_record(7, &[7; 512]).unwrap();
        let meta = f.meta_snapshot();
        assert_eq!(meta.nblocks, 8);
        assert!(meta.extents.iter().all(|e| extents_len(e) == 4));
    }

    #[test]
    fn fixed_capacity_fully_preallocates() {
        let v = vol();
        let spec = FileSpec::new(
            "ps",
            512,
            1,
            LayoutSpec::Partitioned {
                bounds: vec![0, 8, 16],
                devices: 2,
            },
        )
        .fixed_capacity(16);
        let f = v.create_file(spec).unwrap();
        let meta = f.meta_snapshot();
        assert_eq!(meta.nblocks, 16);
        assert_eq!(extents_len(&meta.extents[0]), 8);
        assert_eq!(extents_len(&meta.extents[1]), 8);
    }

    #[test]
    fn grow_rolls_back_on_no_space() {
        // Device array too small for the request: allocation must fail and
        // release anything it grabbed.
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 2,
            device_blocks: 80,
            block_size: 512,
        })
        .unwrap();
        let free_before = v.free_blocks();
        let spec = FileSpec::new(
            "huge",
            512,
            1,
            LayoutSpec::Striped {
                devices: 2,
                unit: 1,
            },
        )
        .initial_records(10_000);
        assert!(matches!(v.create_file(spec), Err(FsError::NoSpace { .. })));
        assert_eq!(v.free_blocks(), free_before);
        assert!(v.list().is_empty(), "failed create must not leave a file");
    }

    /// A growable one-record-per-block file over `devices` devices
    /// starting at volume device `first`.
    fn block_file(v: &Volume, name: &str, first: usize, devices: usize) -> RawFile {
        let layout = LayoutSpec::Striped { devices, unit: 1 };
        let spec = FileSpec::new(name, v.block_size(), 1, layout)
            .device_map((first..first + devices).collect());
        v.create_file(spec).unwrap()
    }

    fn block_of(tag: u64, bs: usize) -> Vec<u8> {
        (0..bs).map(|i| (tag as usize * 7 + i + 1) as u8).collect()
    }

    #[test]
    fn one_block_appends_grow_a_logarithm_of_times() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 4096,
            block_size: 512,
        })
        .unwrap();
        let f = block_file(&v, "q", 0, 4);
        let start = v.meta_status();
        for r in 0..8192u64 {
            f.write_record(r, &block_of(r, 512)).unwrap();
            let tail = f.nblocks() - (r + 1);
            assert!(tail <= (r + 1).min(RUN_AHEAD), "{tail} unwritten after {r}");
            if r == 0 {
                assert_eq!(f.nblocks(), 1, "a first allocation is exact");
            }
        }
        let end = v.meta_status();
        assert_eq!(
            end.generation, start.generation,
            "no journal-full checkpoint"
        );
        let grows = end.journal_pending_records - start.journal_pending_records;
        assert!(grows <= 48, "{grows} Grow records for 8192 appends");
        let meta = f.meta_snapshot();
        assert_eq!(meta.nblocks, 8192);
        assert!(
            meta.extents.iter().all(|e| e.len() == 1),
            "{:?}",
            meta.extents
        );
        let mut buf = vec![0u8; 512];
        for r in (0..8192u64).step_by(97) {
            f.read_record(r, &mut buf).unwrap();
            assert_eq!(buf, block_of(r, 512), "record {r}");
        }
    }

    /// A volume whose devices 1..=3 have exactly `k` free blocks each
    /// (a preallocated file holds the rest).
    fn nearly_full(k: u64) -> Volume {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 1024,
            block_size: 512,
        })
        .unwrap();
        let layout = LayoutSpec::Striped {
            devices: 3,
            unit: 1,
        };
        let filler = FileSpec::new("filler", 512, 1, layout)
            .device_map(vec![1, 2, 3])
            .initial_records(3 * (1024 - k));
        v.create_file(filler).unwrap();
        assert_eq!(v.free_blocks()[1..], [k, k, k]);
        v
    }

    #[test]
    fn run_ahead_never_costs_an_append() {
        let v = nearly_full(37);
        let f = block_file(&v, "full", 1, 3);
        for r in 0..3 * 37u64 {
            f.write_record(r, &block_of(r, 512)).unwrap();
        }
        let free = v.free_blocks();
        assert_eq!(free[1..], [0, 0, 0]);
        assert!(matches!(
            f.write_record(3 * 37, &block_of(0, 512)),
            Err(FsError::NoSpace { .. })
        ));
        assert_eq!(v.free_blocks(), free, "a refused append takes nothing");
        assert_eq!((f.nblocks(), f.len_records()), (3 * 37, 3 * 37));
        let mut buf = vec![0u8; 512];
        for r in 0..3 * 37u64 {
            f.read_record(r, &mut buf).unwrap();
            assert_eq!(buf, block_of(r, 512), "record {r}");
        }
    }

    #[test]
    fn two_growing_files_share_a_volume_without_losing_a_block() {
        let v = nearly_full(101);
        let files = [block_file(&v, "a", 1, 3), block_file(&v, "b", 1, 3)];
        let mut acked = [0u64; 2];
        let mut full = [false; 2];
        while full != [true; 2] {
            for (i, f) in files.iter().enumerate() {
                if full[i] {
                    continue;
                }
                // Either file may be refused while the other's unwritten
                // tail holds the blocks it wanted; it is refused cleanly.
                match f.write_record(acked[i], &block_of(acked[i] + i as u64, 512)) {
                    Ok(()) => acked[i] += 1,
                    Err(FsError::NoSpace { .. }) => full[i] = true,
                    Err(e) => panic!("file {i}: {e}"),
                }
                for (slot, free) in v.free_blocks()[1..].iter().enumerate() {
                    let held = |f: &RawFile| extents_len(&f.meta_snapshot().extents[slot]);
                    let owned: u64 = files.iter().map(held).sum();
                    assert_eq!(owned + free, 101, "device {}", slot + 1);
                }
            }
        }
        // The <= 2x bound: no file holds more unwritten than written.
        let held: u64 = 3 * 101 - v.free_blocks()[1..].iter().sum::<u64>();
        assert!(2 * (acked[0] + acked[1]) >= held, "{acked:?} of {held}");
        let mut buf = vec![0u8; 512];
        for (i, f) in files.iter().enumerate() {
            assert_eq!(f.len_records(), acked[i]);
            for r in 0..acked[i] {
                f.read_record(r, &mut buf).unwrap();
                assert_eq!(buf, block_of(r + i as u64, 512), "file {i} record {r}");
            }
        }
    }

    #[test]
    fn remove_returns_the_unwritten_tail() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 1024,
            block_size: 512,
        })
        .unwrap();
        let before = v.free_blocks();
        let f = block_file(&v, "t", 0, 4);
        for r in 0..700u64 {
            f.write_record(r, &block_of(r, 512)).unwrap();
        }
        assert_eq!(f.nblocks(), 768, "512 + RUN_AHEAD: a tail is allocated");
        let mut zero = vec![1u8; 512];
        for l in 700..768 {
            f.read_span(l * 512, &mut zero).unwrap();
            assert!(zero.iter().all(|&b| b == 0), "unwritten block {l}");
        }
        drop(f);
        v.remove("t").unwrap();
        assert_eq!(v.free_blocks(), before);
    }

    #[test]
    fn first_and_fixed_allocations_stay_exact() {
        let v = vol();
        let f = v
            .create_file(striped_spec("init").initial_records(80))
            .unwrap();
        assert_eq!(f.nblocks(), 10);
        let f = v.create_file(striped_spec("span")).unwrap();
        f.write_span(0, &[7u8; 512 * 5]).unwrap();
        assert_eq!(f.nblocks(), 5, "a first write_span into an empty file");
        f.write_span(512 * 5, &[7u8; 512]).unwrap();
        assert_eq!(f.nblocks(), 10, "the next grow doubles");
        let f = v
            .create_file(striped_spec("fixed").fixed_capacity(160))
            .unwrap();
        assert_eq!(f.nblocks(), 20);
    }

    /// The record stream a policy without run-ahead wrote for a file
    /// appended a block at a time — a `Create`, then one one-block
    /// `Grow` per append — mounts, replays to the same merged extents,
    /// and grows on under this policy.
    #[test]
    fn per_block_grow_records_replay() {
        let devs = mem_array(4, 1024, 512);
        let v = Volume::new(devs.clone()).unwrap();
        let free = v.free_blocks();
        let first = |d: usize| if d == 0 { v.meta_region_blocks() } else { 0 };
        let meta = FileMeta {
            id: 1,
            name: "old".into(),
            record_size: 512,
            records_per_block: 1,
            len_records: 0,
            layout: LayoutSpec::Striped {
                devices: 4,
                unit: 1,
            },
            org: String::new(),
            device_map: vec![0, 1, 2, 3],
            fixed_capacity_records: None,
            nblocks: 0,
            extents: vec![Vec::new(); 4],
        };
        let logged = |rec: &Record| {
            assert_eq!(journal::append(&v.inner, rec).unwrap(), Appended::Logged);
        };
        logged(&Record::Create { meta });
        for l in 0..8u64 {
            let slot = (l % 4) as usize;
            let mut slots = vec![Vec::new(); 4];
            slots[slot] = vec![Extent {
                start: first(slot) + l / 4,
                len: 1,
            }];
            logged(&Record::Grow {
                id: 1,
                slots,
                nblocks: l + 1,
            });
        }
        v.abandon();
        drop(v);

        let v = Volume::mount(devs).unwrap();
        assert_eq!(v.mount_report().unwrap().replayed_records, 9);
        let f = v.open("old").unwrap();
        let meta = f.meta_snapshot();
        assert_eq!(meta.nblocks, 8);
        for (slot, extents) in meta.extents.iter().enumerate() {
            let merged = Extent {
                start: if slot == 0 { v.meta_region_blocks() } else { 0 },
                len: 2,
            };
            assert_eq!(extents, &[merged], "slot {slot}");
        }
        let expect: Vec<u64> = free.iter().map(|n| n - 2).collect();
        assert_eq!(v.free_blocks(), expect);
        f.write_record(8, &block_of(8, 512)).unwrap();
        assert_eq!(f.nblocks(), 16);
        let mut buf = vec![0u8; 512];
        f.read_record(8, &mut buf).unwrap();
        assert_eq!(buf, block_of(8, 512));
    }

    #[test]
    fn a_create_no_slot_can_hold_is_refused_and_the_volume_remounts() {
        let devs = mem_array(4, 1024, 512);
        let v = Volume::new(devs.clone()).unwrap();
        let mut acked = Vec::new();
        let refused = loop {
            let name = format!("file-{:05}", acked.len());
            match v.create_file(striped_spec(&name)) {
                Ok(_) => acked.push(name),
                Err(e) => break e,
            }
            assert!(acked.len() < 1000, "the directory never filled a slot");
        };
        // 48-block slots of 512 bytes.
        assert!(
            matches!(refused, FsError::DirectoryFull { limit: 24_576, .. }),
            "{refused:?}"
        );
        assert_eq!(v.list(), acked, "a refused create is not listed");
        v.abandon();
        drop(v);
        let v = Volume::mount(devs).unwrap();
        assert_eq!(v.list(), acked, "every acknowledged create, and only those");
        v.sync_meta().unwrap();
    }

    #[test]
    fn every_volume_has_an_executor() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 64,
            block_size: 512,
        })
        .unwrap();
        // File I/O runs on the per-device workers, which attribute it.
        let f = v
            .create_file(striped_spec("f").initial_records(64))
            .unwrap();
        f.write_record(0, &[9u8; 64]).unwrap();
        let mut rec = [0u8; 64];
        f.read_record(0, &mut rec).unwrap();
        assert_eq!(rec[0], 9);
        let s = v.executor_stats();
        assert!(s.serviced > 0);
        assert_eq!(s.in_flight, 0);
        assert!(s.service_nanos > 0, "transfers must be attributed");
        // Submissions through io_device are counted one for one (at the
        // last block: nothing of the file's lives there).
        let before = s.serviced;
        let dev = v.io_device(1);
        dev.submit_write_blocks(63, vec![5u8; 512].into_boxed_slice())
            .wait()
            .unwrap();
        let buf = dev
            .submit_read_blocks(63, vec![0u8; 512].into_boxed_slice())
            .wait()
            .unwrap();
        assert!(buf.iter().all(|&b| b == 5));
        let s = v.executor_stats();
        assert_eq!(s.serviced, before + 2);
        assert_eq!(s.in_flight, 0);
        // The executor fronts the same storage the plain handle sees.
        let mut direct = vec![0u8; 512];
        v.device(1).read_block(63, &mut direct).unwrap();
        assert!(direct.iter().all(|&b| b == 5));
    }

    #[test]
    fn device_zero_reserves_superblock() {
        let v = vol();
        let free = v.free_blocks();
        // Device 0 has less free space than the others (superblock region).
        assert!(free[0] < free[1]);
        assert_eq!(free[1], 128);
    }

    /// A `MemDisk` whose zero runs — its writes of more than one block;
    /// journal records are single blocks — can be held at a gate or meet
    /// a fail-stop, by their index on this device. Its transfers take
    /// 100 µs, longer than a hand-off to the device's worker: a node
    /// runs submissions to a faster device on the submitting thread,
    /// which a held run would then park.
    struct Gated {
        disk: MemDisk,
        runs: std::sync::atomic::AtomicU64,
        park_on: Option<u64>,
        fail_on: Option<u64>,
        /// (a run is parked, the gate is open)
        gate: std::sync::Mutex<(bool, bool)>,
        cv: std::sync::Condvar,
    }

    impl Gated {
        fn new(park_on: Option<u64>, fail_on: Option<u64>) -> Arc<Gated> {
            Arc::new(Gated {
                disk: MemDisk::new(1024, 512).with_delay(std::time::Duration::from_micros(100)),
                runs: Default::default(),
                park_on,
                fail_on,
                gate: Default::default(),
                cv: Default::default(),
            })
        }

        fn runs(&self) -> u64 {
            self.runs.load(Ordering::SeqCst)
        }

        fn wait_parked(&self) {
            let mut g = self.gate.lock().unwrap();
            while !g.0 {
                g = self.cv.wait(g).unwrap();
            }
        }

        fn open(&self) {
            self.gate.lock().unwrap().1 = true;
            self.cv.notify_all();
        }
    }

    impl BlockDevice for Gated {
        fn block_size(&self) -> usize {
            self.disk.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.disk.num_blocks()
        }
        fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> pario_disk::Result<()> {
            self.disk.read_blocks_at(block, buf)
        }
        fn write_blocks_at(&self, block: u64, data: &[u8]) -> pario_disk::Result<()> {
            if data.len() > self.block_size() {
                let run = Some(self.runs());
                if run == self.park_on {
                    let mut g = self.gate.lock().unwrap();
                    g.0 = true;
                    self.cv.notify_all();
                    while !g.1 {
                        g = self.cv.wait(g).unwrap();
                    }
                }
                if run == self.fail_on {
                    self.disk.fail();
                }
                self.runs.fetch_add(1, Ordering::SeqCst);
            }
            self.disk.write_blocks_at(block, data)
        }
        fn counters(&self) -> IoCounters {
            self.disk.counters()
        }
        fn fail(&self) {
            self.disk.fail()
        }
        fn heal(&self) {
            self.disk.heal()
        }
        fn is_failed(&self) -> bool {
            self.disk.is_failed()
        }
    }

    fn gated_vol(devs: &[Arc<Gated>]) -> Volume {
        Volume::new(devs.iter().map(|d| Arc::clone(d) as DeviceRef).collect()).unwrap()
    }

    /// Spin until `cond` holds; a wave that never fans out would hang
    /// here, so give up loudly instead.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "never: {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_fill_keeps_every_device_busy_in_one_wave() {
        // Two waves a device. Device 0's first zero run is held: the
        // other three devices' runs of that wave land all the same, and
        // the second wave waits for the first.
        let per_device = ZERO_FILL_BLOCKS + 40;
        let devs: Vec<_> = (0..4)
            .map(|d| Gated::new((d == 0).then_some(0), None))
            .collect();
        let v = gated_vol(&devs);
        let spec = striped_spec("wide").initial_records(4 * per_device * 8);
        std::thread::scope(|s| {
            let create = s.spawn(|| v.create_file(spec).map(|_| ()));
            devs[0].wait_parked();
            eventually("devices 1..3 zeroed beside a parked device 0", || {
                devs[1..].iter().all(|d| d.runs() == 1)
            });
            assert_eq!(devs[0].runs(), 0);
            devs[0].open();
            create.join().unwrap().unwrap();
        });
        assert!(devs.iter().all(|d| d.runs() == 2));
        assert_eq!(v.open("wide").unwrap().nblocks(), 4 * per_device);
    }

    #[test]
    fn zero_fill_is_one_request_per_run_of_zero_fill_blocks() {
        let v = Volume::create_in_memory(VolumeConfig {
            devices: 4,
            device_blocks: 1024,
            block_size: 512,
        })
        .unwrap();
        let before: Vec<u64> = (0..4).map(|d| v.device(d).counters().writes).collect();
        let per_device = 3 * ZERO_FILL_BLOCKS + 17;
        let f = v
            .create_file(striped_spec("sized").initial_records(4 * per_device * 8))
            .unwrap();
        assert_eq!(f.nblocks(), 4 * per_device);
        for (d, was) in before.iter().enumerate() {
            // Device 0 also takes the `Create` and `Grow` records.
            let records = if d == 0 { 2 } else { 0 };
            let runs = v.device(d).counters().writes - was - records;
            assert_eq!(runs, per_device.div_ceil(ZERO_FILL_BLOCKS), "device {d}");
        }
    }

    /// A zero-fill that meets a fail-stop in its second wave, while the
    /// other three runs of that wave are held: the error comes back, but
    /// not before those runs have landed, and the blocks go back to the
    /// allocator only then — so whoever is handed them next never has a
    /// late zero land on its data.
    fn zero_fill_failure(allocate: impl FnOnce(&Volume) -> Result<()> + Send) {
        let devs: Vec<_> = (0..4)
            .map(|d| match d {
                1 => Gated::new(None, Some(1)),
                _ => Gated::new(Some(1), None),
            })
            .collect();
        let v = gated_vol(&devs);
        let free = v.free_blocks();
        let taken = || {
            v.free_blocks()
                .iter()
                .zip(&free)
                .all(|(now, was)| now < was)
        };
        std::thread::scope(|s| {
            let failing = s.spawn(|| allocate(&v));
            for d in [0, 2, 3] {
                devs[d].wait_parked();
            }
            eventually("device 1 failed its run", || devs[1].is_failed());
            // Three runs are still in flight: the blocks stay taken.
            assert!(!failing.is_finished());
            assert!(taken());
            devs.iter().for_each(|d| d.open());
            let e = failing.join().unwrap().unwrap_err();
            assert!(matches!(e, FsError::Disk(_)), "{e}");
        });
        assert_eq!(v.free_blocks(), free);
        // The parked runs landed, and no third wave followed them.
        assert!([0, 2, 3].iter().all(|&d| devs[d].runs() == 2));
        // The same blocks, handed to the next file, hold what it writes.
        devs[1].heal();
        let blocks = 4 * (2 * ZERO_FILL_BLOCKS + 40);
        let f = v
            .create_file(striped_spec("next").initial_records(blocks * 8))
            .unwrap();
        assert!(taken());
        let data: Vec<u8> = (0..blocks as usize * 512)
            .map(|i| (i / 7) as u8 | 1)
            .collect();
        f.write_span(0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        f.read_span(0, &mut back).unwrap();
        assert!(
            back == data,
            "a late zero landed on the next owner's blocks"
        );
    }

    #[test]
    fn zero_fill_failure_on_create_waits_out_its_wave_before_releasing() {
        let records = 4 * (2 * ZERO_FILL_BLOCKS + 40) * 8;
        zero_fill_failure(|v| {
            let sized = striped_spec("doomed").initial_records(records);
            v.create_file(sized).map(|_| ())
        });
    }

    #[test]
    fn zero_fill_failure_on_grow_waits_out_its_wave_before_releasing() {
        let records = 4 * (2 * ZERO_FILL_BLOCKS + 40) * 8;
        zero_fill_failure(|v| {
            let f = v.create_file(striped_spec("doomed"))?;
            let grown = f.ensure_capacity_records(records);
            assert_eq!(f.nblocks(), 0);
            grown
        });
    }
}
