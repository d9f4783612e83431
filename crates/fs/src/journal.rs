//! The metadata intent journal.
//!
//! Multi-step metadata operations — create, grow/extent-merge, delete —
//! mutate the directory, the allocator and file extents together; a
//! crash between a completed operation and the next checkpoint must not
//! leave them disagreeing with the data on disk. Each such operation
//! appends one **redo record** to the journal area of the meta region
//! (see `superblock` for the layout) before it returns:
//!
//! ```text
//! magic (4) | generation (8) | seq (8) | len (4) | crc32 (4) | payload…
//! ```
//!
//! Records are tagged with the superblock generation current at append
//! time and numbered sequentially within it. Mount replays, in order,
//! the prefix of records whose generation matches the loaded checkpoint
//! and whose sequence and CRC validate — the first mismatch is the torn
//! tail (or a stale earlier generation) and stops the scan. Replay is
//! **idempotent**: a record whose effect is already in the checkpoint
//! (the checkpoint raced the append) is skipped, so the
//! checkpoint-plus-prefix state is consistent at every write boundary.
//!
//! Ordering rules that make this sound:
//! * a create appends its record right after the directory insert and
//!   before any allocation it triggers, so its grow records follow it;
//! * a grow appends *after* the new extents are allocated and
//!   zero-filled — at any crash point where the record exists, the
//!   zero-fill already landed, so replay never rewrites data;
//! * a remove appends *before* blocks are released, so a racing grow
//!   that reuses them journals strictly later.
//!
//! A full journal reports [`Appended::Full`]; the caller checkpoints
//! (which folds everything into the superblock and resets the journal)
//! and the operation is durable anyway. Appends go through the same
//! device-0 flush as checkpoints, so a returned metadata operation is
//! on stable media.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::alloc::{push_merged, Extent};
use crate::crc::crc32;
use crate::error::{FsError, Result};
use crate::meta::FileMeta;
use crate::superblock::{journal_blocks, journal_start};
use crate::volume::{FileState, VolInner};

const MAGIC: &[u8; 4] = b"PJL2";
const HEADER: usize = 28;

/// Journal cursor + the current superblock generation. Guarded by the
/// `fs.journal` (rank 78) mutex on the volume.
pub(crate) struct JournalState {
    /// Generation of the newest durable checkpoint; appended records
    /// are tagged with it.
    pub(crate) gen: u64,
    /// Next free journal block, relative to the journal area start.
    pub(crate) pos: u64,
    /// Next record sequence number within this generation.
    pub(crate) seq: u64,
    /// When false, appends are no-ops (a measurement toggle — crash
    /// consistency then degrades to checkpoint granularity).
    pub(crate) enabled: bool,
}

/// One redo record: a metadata operation that completed in memory.
#[derive(Serialize, Deserialize)]
pub(crate) enum Record {
    /// A file entered the directory (extents empty; growth follows).
    Create {
        /// The new file's full metadata at creation.
        meta: FileMeta,
    },
    /// A file's allocation grew: the appended (pre-merge) extents per
    /// layout slot and the resulting logical block count.
    Grow {
        /// File id (ids are stable across renames the directory
        /// doesn't support yet; names are not).
        id: u64,
        /// Newly allocated extents, indexed by layout slot.
        slots: Vec<Vec<Extent>>,
        /// Logical block count after the grow.
        nblocks: u64,
    },
    /// A file left the directory and its extents were released.
    Remove {
        /// File id.
        id: u64,
    },
}

/// Outcome of an append.
#[derive(PartialEq, Eq, Debug)]
pub(crate) enum Appended {
    /// The record is on stable media.
    Logged,
    /// No room: the caller must checkpoint (`sync_meta`), which makes
    /// the operation durable through the superblock instead.
    Full,
}

/// Append `rec` durably. See [`Appended`] for the full-journal case.
pub(crate) fn append(inner: &VolInner, rec: &Record) -> Result<Appended> {
    let payload = serde_json::to_vec(rec).map_err(|e| FsError::Meta(e.to_string()))?;
    let bs = inner.block_size;
    let nblocks = (HEADER + payload.len()).div_ceil(bs) as u64;
    let capacity = journal_blocks(inner.meta_blocks);
    let mut journal = inner.journal.lock();
    if !journal.enabled {
        return Ok(Appended::Logged);
    }
    if journal.pos + nblocks > capacity {
        return Ok(Appended::Full);
    }
    let mut image = Vec::with_capacity(HEADER + payload.len());
    image.extend_from_slice(MAGIC);
    image.extend_from_slice(&journal.gen.to_le_bytes());
    image.extend_from_slice(&journal.seq.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crced = Vec::with_capacity(20 + payload.len());
    crced.extend_from_slice(&journal.gen.to_le_bytes());
    crced.extend_from_slice(&journal.seq.to_le_bytes());
    crced.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    crced.extend_from_slice(&payload);
    image.extend_from_slice(&crc32(&crced).to_le_bytes());
    image.extend_from_slice(&payload);

    let base = journal_start(inner.meta_blocks) + journal.pos;
    let dev = &inner.devices[0];
    let mut block = vec![0u8; bs];
    for (i, chunk) in image.chunks(bs).enumerate() {
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()..].fill(0);
        dev.write_block(base + i as u64, &block)?;
    }
    // A returned metadata operation must survive power loss, exactly
    // like a checkpoint.
    dev.flush()?;
    journal.pos += nblocks;
    journal.seq += 1;
    Ok(Appended::Logged)
}

/// Scan the journal area and apply, in order, every record tagged with
/// `gen` whose sequence and CRC validate; stop at the first mismatch
/// (stale generation or torn tail). Returns the number of records
/// applied. Runs single-threaded at mount, before the volume is shared.
pub(crate) fn replay(inner: &VolInner, gen: u64) -> Result<u64> {
    let bs = inner.block_size;
    let capacity = journal_blocks(inner.meta_blocks);
    let start = journal_start(inner.meta_blocks);
    let dev = &inner.devices[0];
    let mut pos = 0u64;
    let mut seq = 0u64;
    let mut block = vec![0u8; bs];
    while pos < capacity {
        if dev.read_block(start + pos, &mut block).is_err() {
            break;
        }
        if &block[..4] != MAGIC {
            break;
        }
        // invariant: fixed-width header slices always convert.
        let rec_gen = u64::from_le_bytes(block[4..12].try_into().expect("8 bytes"));
        let rec_seq = u64::from_le_bytes(block[12..20].try_into().expect("8 bytes")); // invariant: fixed-width slice
        let len = u32::from_le_bytes(block[20..24].try_into().expect("4 bytes")) as usize; // invariant: fixed-width slice
        let crc = u32::from_le_bytes(block[24..28].try_into().expect("4 bytes")); // invariant: fixed-width slice
        let nblocks = (HEADER + len).div_ceil(bs) as u64;
        if rec_gen != gen || rec_seq != seq || pos + nblocks > capacity {
            break;
        }
        let mut image = vec![0u8; HEADER + len];
        let mut ok = true;
        for i in 0..nblocks {
            if i == 0 {
                let take = bs.min(image.len());
                image[..take].copy_from_slice(&block[..take]);
                continue;
            }
            let mut b = vec![0u8; bs];
            if dev.read_block(start + pos + i, &mut b).is_err() {
                ok = false;
                break;
            }
            let off = (i as usize) * bs;
            let take = bs.min(image.len() - off);
            image[off..off + take].copy_from_slice(&b[..take]);
        }
        if !ok {
            break;
        }
        let mut crced = Vec::with_capacity(20 + len);
        crced.extend_from_slice(&rec_gen.to_le_bytes());
        crced.extend_from_slice(&rec_seq.to_le_bytes());
        crced.extend_from_slice(&(len as u32).to_le_bytes());
        crced.extend_from_slice(&image[HEADER..]);
        if crc32(&crced) != crc {
            break;
        }
        let Ok(rec) = serde_json::from_slice::<Record>(&image[HEADER..]) else {
            break;
        };
        apply(inner, rec)?;
        pos += nblocks;
        seq += 1;
    }
    {
        let mut journal = inner.journal.lock();
        journal.pos = pos;
        journal.seq = seq;
    }
    Ok(seq)
}

/// Apply one replayed record idempotently: if its effect is already in
/// the loaded checkpoint, skip it.
fn apply(inner: &VolInner, rec: Record) -> Result<()> {
    match rec {
        Record::Create { meta } => {
            let mut files = inner.files.write();
            let exists = files.values().any(|s| s.meta.read().id == meta.id)
                || files.contains_key(&meta.name);
            if exists {
                return Ok(());
            }
            {
                let mut alloc = inner.alloc.lock();
                for (slot, extents) in meta.extents.iter().enumerate() {
                    for &e in extents {
                        alloc.reserve(meta.device_map[slot], e);
                    }
                }
            }
            let next = inner.next_id.load(std::sync::atomic::Ordering::Relaxed); // ordering: single-threaded mount
            if meta.id >= next {
                inner
                    .next_id
                    .store(meta.id + 1, std::sync::atomic::Ordering::Relaxed); // ordering: single-threaded mount
            }
            files.insert(meta.name.clone(), Arc::new(FileState::new(meta)));
        }
        Record::Grow { id, slots, nblocks } => {
            let state = find_by_id(inner, id);
            let Some(state) = state else { return Ok(()) };
            let mut meta = state.meta.write();
            if meta.nblocks >= nblocks {
                return Ok(());
            }
            {
                let mut alloc = inner.alloc.lock();
                for (slot, extents) in slots.iter().enumerate() {
                    let dev = meta.device_map[slot];
                    for &e in extents {
                        alloc.reserve(dev, e);
                    }
                }
            }
            for (slot, extents) in slots.into_iter().enumerate() {
                let slot_extents = &mut meta.extents[slot];
                extents
                    .into_iter()
                    .for_each(|e| push_merged(slot_extents, e));
            }
            meta.nblocks = nblocks;
        }
        Record::Remove { id } => {
            let name = {
                let files = inner.files.read();
                files
                    .iter()
                    .find(|(_, s)| s.meta.read().id == id)
                    .map(|(n, _)| n.clone())
            };
            let Some(name) = name else { return Ok(()) };
            let state = inner.files.write().remove(&name);
            // invariant: mount is single-threaded, the entry cannot vanish.
            let state = state.expect("entry present under single-threaded mount");
            let meta = state.meta.read();
            let mut alloc = inner.alloc.lock();
            for (slot, extents) in meta.extents.iter().enumerate() {
                let dev = meta.device_map[slot];
                for &e in extents {
                    alloc.release(dev, e);
                }
            }
        }
    }
    Ok(())
}

fn find_by_id(inner: &VolInner, id: u64) -> Option<Arc<FileState>> {
    let files = inner.files.read();
    files
        .values()
        .find(|s| s.meta.read().id == id)
        .map(Arc::clone)
}
