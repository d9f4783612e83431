//! The workspace lock hierarchy.
//!
//! Every named lock in the request path declares a [`LockLevel`]. The
//! rule is strict ascent: a thread may acquire a ranked lock only if its
//! level is strictly greater than every ranked lock it already holds.
//! Two locks at the same level therefore must never be held together
//! (per-file locks such as the RMW lock are never nested across files).
//!
//! The table below is the documented order (see DESIGN §8); the model
//! checker enforces it at runtime under `--cfg pario_check`, and
//! `cargo run -p xtask -- lint` enforces a textual approximation of it
//! on every build.
//!
//! | level | lock | crate | protects |
//! |------:|------|-------|----------|
//! |  3 | `NetClient` credits | pario-net | per-connection flow-control window |
//! |  5 | `NetClient` reply table | pario-net | in-flight request id -> reply slot |
//! |  7 | `NetClient` send half | pario-net | serialised frame writes to the socket |
//! | 20 | `Admission::m` | pario-server | admission queue + rotation state |
//! | 30 | `ByteRangeLocks::held` | pario-server | GDA byte-range lock table |
//! | 50 | `Volume::alloc` | pario-fs | extent allocator |
//! | 60 | `FileState::rmw_lock` | pario-fs | sub-block RMW window |
//! | 70 | `FileState::stripe_lock` | pario-fs | parity stripe RMW cycle |
//! | 72 | `Staging::spare` | pario-fs | the volume's free list of span staging buffers |
//! | 75 | `VolumeCache::frames` | pario-buffer | volume-wide block cache state |
//! | 78 | `VolInner::journal` | pario-fs | intent-journal cursor + superblock generation |
//! | 80 | `HealthBoard::board` | pario-fs | device health state machine |
//! | 90 | `IoNode` device | pario-disk | the wrapped device: one transfer at a time |

/// Rank of a lock in the global acquisition order. Larger ranks must be
/// acquired after smaller ranks; [`LockLevel::Unranked`] locks are
/// exempt from the hierarchy check (but still model-checked for
/// deadlock).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockLevel {
    /// `pario-net` client flow-control credit window. The outermost
    /// lock a network call can touch: a request first takes a credit,
    /// with no other ranked lock held.
    NetCredits = 3,
    /// `pario-net` client in-flight reply table (request id -> slot).
    NetReplies = 5,
    /// `pario-net` client send half: frames are written to the socket
    /// under this lock so pipelined requests never interleave bytes.
    NetSend = 7,
    /// `pario-server` admission queue state.
    Admission = 20,
    /// `pario-server` GDA byte-range lock table.
    RangeLock = 30,
    /// `pario-fs` volume extent allocator.
    FsAlloc = 50,
    /// `pario-fs` per-file sub-block read-modify-write lock.
    FsRmw = 60,
    /// `pario-fs` per-file parity stripe lock.
    FsStripe = 70,
    /// `pario-fs` per-volume free list of span staging buffers. Taken
    /// inside the RMW and stripe critical sections (a parity span
    /// stages its runs under the stripe lock) and a leaf: held for a
    /// list scan or a push only — a miss allocates, and an evicted
    /// buffer is freed, after it is released — and nothing, ranked or
    /// not, is acquired under it.
    FsStaging = 72,
    /// `pario-buffer` volume-wide block cache state. Above the RMW and
    /// stripe locks (cache lookups happen inside those critical
    /// sections) and below the health board (health transitions drop
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
    /// I/O-path lock because error feedback is reported from inside
    /// RMW/stripe critical sections.
    FsHealth = 80,
    /// `pario-disk` I/O-node device ownership: whoever services a
    /// transfer — the node's worker or a caller running it inline —
    /// holds this for exactly that transfer. The innermost lock of the
    /// whole request path: block I/O is issued from inside the RMW,
    /// stripe, cache and journal critical sections, and nothing ranked
    /// is ever acquired while a transfer runs.
    DiskDevice = 90,
    /// Outside the hierarchy: never checked for ordering.
    Unranked = 255,
}

impl LockLevel {
    /// Stable display name used in reports and the DESIGN table.
    pub fn name(self) -> &'static str {
        match self {
            LockLevel::NetCredits => "net.credits",
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
            LockLevel::Unranked => "unranked",
        }
    }

    /// Numeric rank (ascending acquisition order).
    pub fn rank(self) -> u8 {
        self as u8
    }
}
