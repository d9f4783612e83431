//! Superblock persistence: dual-slot, checksummed, generation-numbered.
//!
//! The paper's *standard* parallel files "must appear conventional to the
//! system" and outlive the programs that use them; that requires durable
//! metadata that also survives *interrupted* writes. The reserved meta
//! region at the front of device 0 is split three ways:
//!
//! ```text
//! block 0 ............ slot A (superblock image + CRC header)
//! block S ............ slot B (same format)
//! block 2S ... M-1 ... intent journal (see `journal`)
//! ```
//!
//! A checkpoint serialises the directory (JSON — metadata is tiny and
//! cold, so a text encoding buys debuggability for free) behind a binary
//! header carrying a magic, a monotonically increasing **generation**
//! and a CRC-32 of the payload, and writes it to the slot the *previous*
//! generation did not use. Mount validates both slots and picks the
//! newest valid one, so a superblock write torn by a crash is never
//! fatal: the alternate slot still holds the previous checkpoint.
//! Mount then replays the intent journal against the loaded generation
//! to recover metadata operations that completed after that checkpoint.

use std::sync::atomic::Ordering;

use serde::{Deserialize, Serialize};

use crate::alloc::Extent;
use crate::crc::crc32;
use crate::error::{FsError, Result};
use crate::journal;
use crate::meta::FileMeta;
use crate::volume::{FileState, VolInner};

/// Preferred size of the whole reserved meta region on device 0.
pub(crate) const META_REGION_BYTES: usize = 256 * 1024;

/// Slot header magic ("2" = the dual-slot checksummed format).
const MAGIC: &[u8; 8] = b"PARIOSB2";

/// Bytes of slot header preceding the payload: magic (8), generation
/// (8), payload length (8), CRC-32 (4), padded to a round 32.
const HEADER: usize = 32;

/// Blocks reserved for the meta region: up to 256 KiB, but never more
/// than an eighth of device 0 (small test volumes), and at least 8
/// blocks. Deterministic in the device shape, so format and mount agree.
pub(crate) fn meta_blocks(block_size: usize, device_blocks: u64) -> u64 {
    let want = (META_REGION_BYTES as u64).div_ceil(block_size as u64);
    want.min(device_blocks / 8).max(8)
}

/// Blocks per superblock slot: the region less the journal share, split
/// in two. With the 8-block minimum region this is never below 3.
pub(crate) fn slot_blocks(meta_blocks: u64) -> u64 {
    (meta_blocks - (meta_blocks / 4).max(2)) / 2
}

/// First block of the intent journal area.
pub(crate) fn journal_start(meta_blocks: u64) -> u64 {
    2 * slot_blocks(meta_blocks)
}

/// Blocks available to the intent journal.
pub(crate) fn journal_blocks(meta_blocks: u64) -> u64 {
    meta_blocks - journal_start(meta_blocks)
}

/// What mount found in the meta region — kept on the volume for
/// recovery tooling and the E20 experiment.
#[derive(Clone, Debug)]
pub struct MountReport {
    /// Generation of the checkpoint the mount loaded.
    pub generation: u64,
    /// Which slot (0 = A, 1 = B) held it.
    pub slot: u64,
    /// Generation in slot A, if its image validated.
    pub slot_a: Option<u64>,
    /// Generation in slot B, if its image validated.
    pub slot_b: Option<u64>,
    /// Intent-journal records replayed on top of the checkpoint.
    pub replayed_records: u64,
}

/// Point-in-time health of the meta region, for scrub tooling.
#[derive(Clone, Debug)]
pub struct MetaStatus {
    /// Current in-memory checkpoint generation.
    pub generation: u64,
    /// Generation in slot A on disk, if its image validates.
    pub slot_a: Option<u64>,
    /// Generation in slot B on disk, if its image validates.
    pub slot_b: Option<u64>,
    /// Journal blocks holding records not yet checkpointed.
    pub journal_pending_blocks: u64,
    /// Journal records appended since the last checkpoint.
    pub journal_pending_records: u64,
    /// Total journal capacity in blocks.
    pub journal_capacity_blocks: u64,
}

#[derive(Serialize, Deserialize)]
struct Persisted {
    block_size: usize,
    next_id: u64,
    files: Vec<FileMeta>,
}

/// Serialise the directory into the slot the previous generation did
/// not use, then reset the intent journal (a checkpoint supersedes it).
pub(crate) fn store(inner: &VolInner) -> Result<()> {
    // Hold the checkpoint barrier exclusively from snapshot to journal
    // reset. Metadata operations hold it shared across their
    // [mutation, journal-append] window, so every record in the journal
    // right now belongs to a *completed* window: its mutation is
    // visible to the snapshot below, and discarding the record with the
    // journal reset cannot lose an acknowledged operation. Without the
    // barrier, an operation completing between the snapshot and the
    // reset would append a durable record tagged with the old
    // generation that the new checkpoint neither contains nor replays.
    let _barrier = inner.ckpt.write();
    let files: Vec<FileMeta> = {
        let map = inner.files.read();
        let mut metas: Vec<FileMeta> = map.values().map(|s| s.meta.read().clone()).collect();
        metas.sort_by_key(|m| m.id);
        metas
    };
    let persisted = Persisted {
        block_size: inner.block_size,
        next_id: inner.next_id.load(Ordering::Relaxed), // ordering: id counter; persistence tolerates a racing create (next checkpoint catches it)
        files,
    };
    let json = serde_json::to_vec(&persisted).map_err(|e| FsError::Meta(e.to_string()))?;
    let bs = inner.block_size;
    let slot_bytes = (slot_blocks(inner.meta_blocks) * bs as u64) as usize;
    if HEADER + json.len() > slot_bytes {
        return Err(FsError::Meta(format!(
            "superblock needs {} bytes, slot is {slot_bytes}",
            HEADER + json.len()
        )));
    }
    // The journal lock serialises generation arithmetic against record
    // appends (a record is tagged with the generation current at append
    // time, and replay only honours records matching the loaded slot);
    // the barrier above guarantees no append lands between the snapshot
    // and this acquisition.
    let mut journal = inner.journal.lock();
    let gen = journal.gen + 1;
    let slot = gen % 2;
    let mut image = Vec::with_capacity(HEADER + json.len());
    image.extend_from_slice(MAGIC);
    image.extend_from_slice(&gen.to_le_bytes());
    image.extend_from_slice(&(json.len() as u64).to_le_bytes());
    let mut crced = Vec::with_capacity(16 + json.len());
    crced.extend_from_slice(&gen.to_le_bytes());
    crced.extend_from_slice(&(json.len() as u64).to_le_bytes());
    crced.extend_from_slice(&json);
    image.extend_from_slice(&crc32(&crced).to_le_bytes());
    image.resize(HEADER, 0);
    image.extend_from_slice(&json);

    let base = slot * slot_blocks(inner.meta_blocks);
    let dev = &inner.devices[0];
    let mut block = vec![0u8; bs];
    for (i, chunk) in image.chunks(bs).enumerate() {
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()..].fill(0);
        dev.write_block(base + i as u64, &block)?;
    }
    // The durability point: the checkpoint must be on stable media
    // before the in-memory generation advances and the journal resets.
    dev.flush()?;
    journal.gen = gen;
    journal.pos = 0;
    journal.seq = 0;
    Ok(())
}

/// Read one slot and return `(generation, payload)` if it validates.
fn read_slot(inner: &VolInner, slot: u64) -> Option<(u64, Vec<u8>)> {
    let bs = inner.block_size;
    let base = slot * slot_blocks(inner.meta_blocks);
    let dev = &inner.devices[0];
    let mut head = vec![0u8; bs];
    dev.read_block(base, &mut head).ok()?;
    if &head[..8] != MAGIC {
        return None;
    }
    let gen = u64::from_le_bytes(head[8..16].try_into().ok()?);
    let len = u64::from_le_bytes(head[16..24].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(head[24..28].try_into().ok()?);
    let slot_bytes = (slot_blocks(inner.meta_blocks) * bs as u64) as usize;
    if HEADER + len > slot_bytes {
        return None;
    }
    let mut image = vec![0u8; HEADER + len];
    let blocks_needed = image.len().div_ceil(bs);
    let mut block = vec![0u8; bs];
    for i in 0..blocks_needed {
        if i == 0 {
            block.copy_from_slice(&head);
        } else {
            dev.read_block(base + i as u64, &mut block).ok()?;
        }
        let start = i * bs;
        let take = bs.min(image.len() - start);
        image[start..start + take].copy_from_slice(&block[..take]);
    }
    let mut crced = Vec::with_capacity(16 + len);
    crced.extend_from_slice(&gen.to_le_bytes());
    crced.extend_from_slice(&(len as u64).to_le_bytes());
    crced.extend_from_slice(&image[HEADER..]);
    if crc32(&crced) != crc {
        return None;
    }
    Some((gen, image[HEADER..].to_vec()))
}

/// Read the meta region, rebuild directory + allocator state from the
/// newest valid slot, and replay the intent journal on top of it.
pub(crate) fn load(inner: &VolInner) -> Result<MountReport> {
    let a = read_slot(inner, 0);
    let b = read_slot(inner, 1);
    let slot_a = a.as_ref().map(|(g, _)| *g);
    let slot_b = b.as_ref().map(|(g, _)| *g);
    let (slot, gen, payload) = match (a, b) {
        (Some((ga, pa)), Some((gb, pb))) => {
            if ga >= gb {
                (0, ga, pa)
            } else {
                (1, gb, pb)
            }
        }
        (Some((ga, pa)), None) => (0, ga, pa),
        (None, Some((gb, pb))) => (1, gb, pb),
        (None, None) => {
            return Err(FsError::Meta(
                "no valid pario superblock in either slot on device 0".into(),
            ))
        }
    };
    let bs = inner.block_size;
    let persisted: Persisted =
        serde_json::from_slice(&payload).map_err(|e| FsError::Meta(e.to_string()))?;
    if persisted.block_size != bs {
        return Err(FsError::Meta(format!(
            "volume was formatted with {}-byte blocks, devices use {bs}",
            persisted.block_size
        )));
    }
    inner.next_id.store(persisted.next_id, Ordering::Relaxed); // ordering: id counter; recovery runs before any sharing
    {
        let mut files = inner.files.write();
        let mut alloc = inner.alloc.lock();
        for meta in persisted.files {
            for (slot, extents) in meta.extents.iter().enumerate() {
                let dev_idx = meta.device_map[slot];
                for &e in extents {
                    let e: Extent = e;
                    alloc.reserve(dev_idx, e);
                }
            }
            files.insert(meta.name.clone(), std::sync::Arc::new(FileState::new(meta)));
        }
    }
    {
        let mut journal = inner.journal.lock();
        journal.gen = gen;
        journal.pos = 0;
        journal.seq = 0;
    }
    let replayed = journal::replay(inner, gen)?;
    if replayed > 0 {
        // Fold the replayed operations into a fresh checkpoint so the
        // recovered state is durable without a second replay.
        store(inner)?;
    }
    Ok(MountReport {
        generation: gen,
        slot,
        slot_a,
        slot_b,
        replayed_records: replayed,
    })
}

/// Current on-disk + in-memory health of the meta region.
pub(crate) fn status(inner: &VolInner) -> MetaStatus {
    let slot_a = read_slot(inner, 0).map(|(g, _)| g);
    let slot_b = read_slot(inner, 1).map(|(g, _)| g);
    let journal = inner.journal.lock();
    MetaStatus {
        generation: journal.gen,
        slot_a,
        slot_b,
        journal_pending_blocks: journal.pos,
        journal_pending_records: journal.seq,
        journal_capacity_blocks: journal_blocks(inner.meta_blocks),
    }
}

#[cfg(test)]
mod tests {
    use crate::volume::{FileSpec, Volume};
    use pario_disk::{mem_array, DeviceRef};
    use pario_layout::LayoutSpec;

    fn devices() -> Vec<DeviceRef> {
        mem_array(3, 1024, 512)
    }

    #[test]
    fn persist_and_mount_round_trip() {
        let devs = devices();
        {
            let v = Volume::new(devs.clone()).unwrap();
            let f = v
                .create_file(
                    FileSpec::new(
                        "data",
                        100,
                        4,
                        LayoutSpec::Striped {
                            devices: 3,
                            unit: 2,
                        },
                    )
                    .org("IS:3"),
                )
                .unwrap();
            for r in 0..40u64 {
                let rec: Vec<u8> = (0..100).map(|i| (r as usize + i) as u8).collect();
                f.write_record(r, &rec).unwrap();
            }
            v.sync_meta().unwrap();
        }
        // Remount from the same devices: directory, metadata and data all
        // survive.
        let v2 = Volume::mount(devs).unwrap();
        assert_eq!(v2.list(), vec!["data".to_string()]);
        let f = v2.open("data").unwrap();
        assert_eq!(f.len_records(), 40);
        assert_eq!(f.org(), "IS:3");
        let mut buf = vec![0u8; 100];
        for r in 0..40u64 {
            f.read_record(r, &mut buf).unwrap();
            let expect: Vec<u8> = (0..100).map(|i| (r as usize + i) as u8).collect();
            assert_eq!(buf, expect, "record {r}");
        }
    }

    #[test]
    fn mount_preserves_allocator_state() {
        let devs = devices();
        {
            let v = Volume::new(devs.clone()).unwrap();
            v.create_file(
                FileSpec::new(
                    "a",
                    512,
                    1,
                    LayoutSpec::Striped {
                        devices: 3,
                        unit: 1,
                    },
                )
                .initial_records(90),
            )
            .unwrap();
            v.sync_meta().unwrap();
        }
        let v2 = Volume::mount(devs).unwrap();
        // Creating a new file must not collide with the old one's blocks.
        let g = v2
            .create_file(
                FileSpec::new(
                    "b",
                    512,
                    1,
                    LayoutSpec::Striped {
                        devices: 3,
                        unit: 1,
                    },
                )
                .initial_records(90),
            )
            .unwrap();
        for r in 0..90u64 {
            g.write_record(r, &vec![7u8; 512]).unwrap();
        }
        let f = v2.open("a").unwrap();
        // "a" was never written, so its (zero-initialised) blocks must
        // still be zero — proof "b" landed elsewhere.
        let mut buf = vec![0u8; 512];
        f.read_span(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn mount_rejects_blank_devices() {
        use crate::error::FsError;
        let blank = mem_array(2, 1024, 512);
        assert!(matches!(Volume::mount(blank), Err(FsError::Meta(_))));
    }

    #[test]
    fn fresh_volume_mounts_empty() {
        let devs = devices();
        let v = Volume::new(devs.clone()).unwrap();
        v.abandon();
        drop(v);
        let v = Volume::mount(devs).unwrap();
        assert!(v.list().is_empty());
    }

    #[test]
    fn checkpoints_alternate_slots_and_bump_generations() {
        let devs = devices();
        let v = Volume::new(devs.clone()).unwrap();
        let s0 = v.meta_status();
        v.sync_meta().unwrap();
        let s1 = v.meta_status();
        assert_eq!(s1.generation, s0.generation + 1);
        // Both slots hold valid images with consecutive generations.
        let (a, b) = (s1.slot_a.unwrap(), s1.slot_b.unwrap());
        assert_eq!(a.max(b), s1.generation);
        assert_eq!(a.min(b) + 1, a.max(b));
    }

    #[test]
    fn retired_single_slot_image_is_rejected_and_left_untouched() {
        use crate::error::FsError;
        let devs = devices();
        // The image the pre-dual-slot format kept at block 0: an
        // unchecksummed magic ("PARIOFS" + format digit 1), payload
        // length, then the JSON directory. No reader for it remains.
        let json = br#"{"block_size":512,"next_id":1,"files":[]}"#;
        let mut block = b"PARIOFS".to_vec();
        block.push(b'1');
        block.extend_from_slice(&(json.len() as u64).to_le_bytes());
        block.extend_from_slice(json);
        block.resize(512, 0);
        devs[0].write_block(0, &block).unwrap();

        let image = || {
            let mut all = vec![0u8; 1024 * 512];
            for (i, block) in all.chunks_mut(512).enumerate() {
                devs[0].read_block(i as u64, block).unwrap();
            }
            all
        };
        let before = image();
        match Volume::mount(devs.clone()) {
            Err(FsError::Meta(msg)) => assert!(msg.contains("no valid pario superblock"), "{msg}"),
            Err(e) => panic!("expected the typed bad-superblock error, got {e:?}"),
            Ok(_) => panic!("a retired-format image must not mount"),
        }
        assert!(before == image(), "a failed mount wrote to device 0");
    }

    #[test]
    fn torn_superblock_recovers_from_alternate_slot() {
        let devs = devices();
        let synced_gen;
        {
            let v = Volume::new(devs.clone()).unwrap();
            v.create_file(
                FileSpec::new(
                    "keep",
                    512,
                    1,
                    LayoutSpec::Striped {
                        devices: 3,
                        unit: 1,
                    },
                )
                .initial_records(8),
            )
            .unwrap();
            v.sync_meta().unwrap();
            synced_gen = v.meta_status().generation;
            v.abandon();
        }
        // Corrupt the newest slot mid-image, as a torn write would: the
        // header block survives but the payload is garbage.
        {
            let probe = Volume::mount(devs.clone()).unwrap();
            let newest = probe.meta_status().generation % 2;
            probe.abandon();
            drop(probe);
            let base = newest * super::slot_blocks(super::meta_blocks(512, 1024));
            let mut head = vec![0u8; 512];
            devs[0].read_block(base, &mut head).unwrap();
            for b in head.iter_mut().skip(super::HEADER).take(16) {
                *b ^= 0xFF;
            }
            devs[0].write_block(base, &head).unwrap();
        }
        let v2 = Volume::mount(devs).unwrap();
        let report = v2.mount_report().expect("mount sets a report");
        assert!(
            report.generation < synced_gen,
            "fell back to an older checkpoint: {report:?}"
        );
        assert_eq!(v2.list(), vec!["keep".to_string()]);
    }
}
