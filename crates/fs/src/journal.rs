//! The metadata intent journal.
//!
//! Multi-step metadata operations — create, grow/extent-merge, delete —
//! mutate the directory, the allocator and file extents together; a
//! crash between a completed operation and the next checkpoint must not
//! leave them disagreeing with the data on disk. Each such operation
//! appends one **redo record** to the journal area of the meta region
//! (see `superblock` for the layout) before it returns: one framed
//! image (see `frame`), written as one run and flushed.
//!
//! Records are tagged with the superblock generation current at append
//! time and numbered sequentially within it. Mount reads the journal
//! area as one run and replays, in order, the prefix of records whose
//! generation matches the loaded checkpoint and whose sequence and CRC
//! validate — the first mismatch is the torn tail (or a stale earlier
//! generation) and stops the scan. Replay is
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

use crate::alloc::{push_merged, Extent};
use crate::codec;
use crate::error::Result;
use crate::frame;
use crate::meta::FileMeta;
use crate::superblock::{covered, journal_blocks, journal_start, place, refused, reserve};
use crate::volume::{FileState, VolInner};

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
}

/// One redo record: a metadata operation that completed in memory.
#[derive(Debug, PartialEq)]
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
    let payload = codec::encode_record(rec);
    let bs = inner.block_size;
    let mut journal = inner.journal.lock();
    let image = frame::frame(journal.gen, journal.seq, &payload, bs);
    let nblocks = (image.len() / bs) as u64;
    if journal.pos + nblocks > journal_blocks(inner.meta_blocks) {
        return Ok(Appended::Full);
    }
    // A returned metadata operation must survive power loss, exactly
    // like a checkpoint.
    let at = journal_start(inner.meta_blocks) + journal.pos;
    frame::write(&inner.devices[0], at, &image)?;
    journal.pos += nblocks;
    journal.seq += 1;
    Ok(Appended::Logged)
}

/// Read the journal area as one run and apply, in order, every record
/// tagged with `gen` whose sequence and CRC validate; stop at the first
/// mismatch (stale generation or torn tail). A record whose CRC holds
/// but whose body does not decode, or names what the volume cannot
/// place, was framed by a faulty build, not torn: mount fails with
/// `FsError::Meta`. Returns the number of records applied. Runs
/// single-threaded at mount, before the volume is shared.
pub(crate) fn replay(inner: &VolInner, gen: u64) -> Result<u64> {
    let bs = inner.block_size;
    let start = journal_start(inner.meta_blocks);
    // An unreadable area replays nothing, as a torn first record would.
    let area = frame::read(&inner.devices[0], start, journal_blocks(inner.meta_blocks));
    let area = area.unwrap_or_default();
    let (mut at, mut seq) = (0, 0);
    while let Some(image) = frame::unframe(&area[at..]) {
        if image.gen != gen || image.seq != seq {
            break;
        }
        apply(inner, codec::decode_record(image.payload)?)?;
        at += frame::image_bytes(image.payload.len(), bs);
        seq += 1;
    }
    {
        let mut journal = inner.journal.lock();
        journal.pos = (at / bs) as u64;
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
            place(inner, &mut inner.alloc.lock().free, &meta)?;
            let after = meta.id.checked_add(1);
            let after = after.ok_or_else(|| refused(&meta, "no id after it".into()))?;
            inner
                .next_id
                .fetch_max(after, std::sync::atomic::Ordering::Relaxed); // ordering: single-threaded mount
            files.insert(meta.name.clone(), Arc::new(FileState::new(meta)));
        }
        Record::Grow { id, slots, nblocks } => {
            let state = find_by_id(inner, id);
            let Some(state) = state else { return Ok(()) };
            let mut meta = state.meta.write();
            if meta.nblocks >= nblocks {
                return Ok(());
            }
            let reserved = reserve(&mut inner.alloc.lock().free, &meta.device_map, &slots);
            reserved.map_err(|why| refused(&meta, why))?;
            for (slot_extents, extents) in meta.extents.iter_mut().zip(slots) {
                extents
                    .into_iter()
                    .for_each(|e| push_merged(slot_extents, e));
            }
            meta.nblocks = nblocks;
            covered(inner, &meta).map_err(|why| refused(&meta, why))?;
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
            let mut space = inner.alloc.lock();
            for (slot, extents) in meta.extents.iter().enumerate() {
                let dev = meta.device_map[slot];
                for &e in extents {
                    space.free.release(dev, e);
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

#[cfg(test)]
mod tests {
    use pario_disk::{mem_array, BlockDevice, FaultDevice, FaultPlan};
    use pario_layout::LayoutSpec;

    use crate::superblock::{journal_start, meta_blocks};
    use crate::volume::{FileSpec, Volume};

    #[test]
    fn a_torn_multi_block_record_ends_replay_before_it() {
        let plan = FaultPlan {
            crash_after_writes: Some(0),
            crash_torn: true,
            ..FaultPlan::default()
        };
        let mut devs = mem_array(3, 1024, 512);
        let (fault, dev0) = FaultDevice::wrap(devs[0].clone(), plan);
        devs[0] = dev0;
        fault.set_armed(false);
        let spec = |name: &str| {
            let layout = LayoutSpec::Striped {
                devices: 3,
                unit: 1,
            };
            FileSpec::new(name, 512, 1, layout)
        };
        let v = Volume::new(devs.clone()).unwrap();
        v.create_file(spec("first")).unwrap();
        // A name long enough that its `Create` record spans four blocks.
        let long = "n".repeat(1800);
        fault.set_armed(true);
        assert!(v.create_file(spec(&long)).is_err(), "the append crashed");
        v.abandon();
        drop(v);
        fault.heal();

        // The record's first half landed behind the intact one.
        let mut head = vec![0u8; 512];
        let second = journal_start(meta_blocks(512, 1024)) + 1;
        devs[0].read_blocks_at(second, &mut head).unwrap();
        assert_eq!(&head[..8], b"PARIOFS4");
        assert_eq!(head[20..28], 1u64.to_le_bytes(), "seq 1");

        let v = Volume::mount(devs).unwrap();
        assert_eq!(v.mount_report().unwrap().replayed_records, 1);
        assert_eq!(v.list(), vec!["first".to_string()]);
    }
}
