//! The workspace lock hierarchy.
//!
//! Every named lock in the request path declares a [`LockLevel`]. The
//! rule is strict ascent: a thread may acquire a ranked lock only if its
//! level is strictly greater than every ranked lock it already holds.
//! Two locks at the same level therefore must never be held together
//! (per-file locks such as a file's block table are never nested across
//! files).
//!
//! The table below is the documented order (see DESIGN §8); the model
//! checker enforces it at runtime under `--cfg pario_check`, and
//! `cargo run -p xtask -- lint` enforces a textual approximation of it
//! on every build.
//!
//! | level | lock | crate | protects |
//! |------:|------|-------|----------|
//! |  5 | `NetClient` slot table | pario-net | flow-control window: request id -> reply slot, receive half |
//! |  7 | `NetClient` send half | pario-net | serialised frame writes to the socket |
//! | 20 | `Admission::m` | pario-server | admission queue + rotation state |
//! | 30 | `RangeLocks::held` of a server file entry | pario-server | GDA byte-range lock table |
//! | 50 | `Volume::alloc` | pario-fs | extent allocator |
//! | 60 | `RangeLocks::held` of `FileState::blocks` | pario-fs | a file's logical-block lock table |
//! | 70 | `RangeLocks::held` of `FileState::rows` | pario-fs | a file's device-row lock table |
//! | 72 | `Staging::spare` | pario-fs | the volume's free list of span staging buffers |
//! | 75 | `VolumeCache::frames` | pario-buffer | volume-wide block cache state |
//! | 78 | `VolInner::journal` | pario-fs | intent-journal cursor + superblock generation |
//! | 80 | `HealthBoard::board` | pario-fs | device health state machine |
//! | 90 | `IoNode` device | pario-disk | the wrapped device: one transfer at a time |
//! | 95 | `IoNode` queue | pario-disk | the node's jobs in arrival order and its free completion slots |

/// Rank of a lock in the global acquisition order. Larger ranks must be
/// acquired after smaller ranks; [`LockLevel::Unranked`] locks are
/// exempt from the hierarchy check (but still model-checked for
/// deadlock).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockLevel {
    /// `pario-net` client slot table: the flow-control window, each
    /// request's reply slot (its index is the request id) and the
    /// receive half. The outermost lock a network call can touch: a
    /// request first takes a slot, with no other ranked lock held.
    NetReplies = 5,
    /// `pario-net` client send half: frames are written to the socket
    /// under this lock so pipelined requests never interleave bytes.
    NetSend = 7,
    /// `pario-server` admission queue state.
    Admission = 20,
    /// `pario-server` GDA byte-range lock table (a `pario_fs::RangeLocks`
    /// built at this rank).
    RangeLock = 30,
    /// `pario-fs` volume extent allocator.
    FsAlloc = 50,
    /// `pario-fs` per-file logical-block lock table (`FileState::blocks`,
    /// a `RangeLocks` built at this rank). A write holds the blocks it
    /// touches — a partial block's read-modify-write and whole blocks
    /// alike — across its reads and writes with no mutex held; the
    /// table's mutex is held only while a range is granted or released.
    FsRmw = 60,
    /// `pario-fs` per-file device-row lock table (`FileState::rows`, a
    /// `RangeLocks` built at this rank). Its mutex is held only while a
    /// range is granted or released; the rows themselves are held
    /// across a write's waves with no mutex held.
    FsStripe = 70,
    /// `pario-fs` per-volume free list of span staging buffers. Taken
    /// while a write holds its blocks and while a file's rows are held
    /// (a parity span stages its runs holding its rows) and a leaf: held for a
    /// list scan or a push only — a miss allocates, and an evicted
    /// buffer is freed, after it is released — and nothing, ranked or
    /// not, is acquired under it.
    FsStaging = 72,
    /// `pario-buffer` volume-wide block cache state. Above the block and
    /// row tables (cache lookups happen while a write holds its blocks
    /// and rows) and below the health board (health transitions drop
    /// cached frames only after releasing the board mutex, and I/O
    /// outcome feedback is reported after the cache lock is released).
    /// Held for table lookups, frame copies and bookkeeping only: every
    /// device transfer is made with it released.
    VolumeCache = 75,
    /// `pario-fs` metadata intent journal: append cursor + superblock
    /// generation. An innermost lock on the metadata path — grow takes
    /// it after the allocator, checkpoint takes it with nothing else
    /// ranked held (the directory snapshot is collected first) — so it
    /// sits above every I/O-path lock except the health board.
    FsJournal = 78,
    /// `pario-fs` per-volume device health board. Ranked above every
    /// I/O-path lock because error feedback is reported while a write
    /// holds its blocks and rows.
    FsHealth = 80,
    /// `pario-disk` I/O-node device ownership: whoever services a
    /// transfer — the node's worker or a caller running it inline —
    /// holds this for exactly that transfer. Innermost on the request
    /// path but for the node's queue: block I/O is issued while a write
    /// holds its blocks and rows and from inside the cache and journal
    /// critical sections, and nothing ranked is ever acquired while a
    /// transfer runs.
    DiskDevice = 90,
    /// `pario-disk` I/O-node queue: the jobs waiting for the worker and
    /// the node's free completion slots. A leaf above the device lock:
    /// submitters take it from anywhere a transfer may be issued, a
    /// ticket's end from anywhere it may be dropped, and it is held for
    /// a push or a pop only — nothing is acquired under it.
    DiskQueue = 95,
    /// Outside the hierarchy: never checked for ordering.
    Unranked = 255,
}

impl LockLevel {
    /// Stable display name used in reports and the DESIGN table.
    pub fn name(self) -> &'static str {
        match self {
            LockLevel::NetReplies => "net.replies",
            LockLevel::NetSend => "net.send",
            LockLevel::Admission => "server.admission",
            LockLevel::RangeLock => "server.range_lock",
            LockLevel::FsAlloc => "fs.alloc",
            LockLevel::FsRmw => "fs.rmw",
            LockLevel::FsStripe => "fs.stripe",
            LockLevel::FsStaging => "fs.staging",
            LockLevel::VolumeCache => "buffer.volume_cache",
            LockLevel::FsJournal => "fs.journal",
            LockLevel::FsHealth => "fs.health",
            LockLevel::DiskDevice => "disk.device",
            LockLevel::DiskQueue => "disk.queue",
            LockLevel::Unranked => "unranked",
        }
    }

    /// Numeric rank (ascending acquisition order).
    pub fn rank(self) -> u8 {
        self as u8
    }
}
