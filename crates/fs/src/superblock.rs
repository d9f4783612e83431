//! Superblock persistence: dual-slot, checksummed, generation-numbered.
//!
//! The paper's *standard* parallel files "must appear conventional to the
//! system" and outlive the programs that use them; that requires durable
//! metadata that also survives *interrupted* writes. The reserved meta
//! region at the front of device 0 is split three ways:
//!
//! ```text
//! block 0 ............ slot A (one framed image, see `frame`)
//! block S ............ slot B (same format)
//! block 2S ... M-1 ... intent journal (see `journal`)
//! ```
//!
//! A checkpoint encodes the directory (`codec`, the byte codec the wire
//! uses too), frames it with a monotonically increasing **generation**
//! and `seq` 0, and writes it as one run to the slot the *previous*
//! generation did not use. What is kept here is the policy: slot
//! choice, generations, a directory that always fits a slot, and what
//! a mount accepts. Mount reads both slots and picks the newest valid
//! one, so a superblock write torn by a crash is never fatal: the
//! alternate slot still holds the previous checkpoint. It holds every
//! file it decodes to the rules a create keeps and to the volume's
//! devices ([`place`]), so an image a faulty build framed correctly is
//! refused as `FsError::Meta` rather than trusted. Mount then replays
//! the intent journal against the loaded generation to recover
//! metadata operations that completed after that checkpoint.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::alloc::{extents_len, Allocator, Extent};
use crate::codec;
use crate::error::{FsError, Result};
use crate::frame;
use crate::journal;
use crate::meta::FileMeta;
use crate::volume::{check_placement, FileState, VolInner};

/// Preferred size of the whole reserved meta region on device 0.
pub(crate) const META_REGION_BYTES: usize = 256 * 1024;

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

/// A checkpoint's payload: the directory and what mints its ids.
#[derive(Debug, PartialEq)]
pub(crate) struct Persisted {
    pub(crate) block_size: usize,
    pub(crate) next_id: u64,
    pub(crate) files: Vec<FileMeta>,
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
    let files = snapshot(&inner.files.read());
    let payload = encode(inner, inner.next_id.load(Ordering::Relaxed), files); // ordering: id counter; persistence tolerates a racing create (next checkpoint catches it)
    fits(inner, payload.len())?;
    // The journal lock serialises generation arithmetic against record
    // appends (a record is tagged with the generation current at append
    // time, and replay only honours records matching the loaded slot);
    // the barrier above guarantees no append lands between the snapshot
    // and this acquisition.
    let mut journal = inner.journal.lock();
    let gen = journal.gen + 1;
    let image = frame::frame(gen, 0, &payload, inner.block_size);
    // The durability point: the checkpoint must be on stable media
    // before the in-memory generation advances and the journal resets.
    frame::write(
        &inner.devices[0],
        gen % 2 * slot_blocks(inner.meta_blocks),
        &image,
    )?;
    journal.gen = gen;
    journal.pos = 0;
    journal.seq = 0;
    Ok(())
}

/// Refuse, before the directory changes, a create whose checkpoint
/// would not fit a slot: `files` is the directory about to take `new`.
/// The image is sized with the widest `next_id`, so ids handed out in
/// the meantime cannot push an admitted directory over.
pub(crate) fn admit(
    inner: &VolInner,
    files: &HashMap<String, Arc<FileState>>,
    new: &FileMeta,
) -> Result<()> {
    let mut metas = snapshot(files);
    metas.push(new.clone());
    fits(inner, encode(inner, u64::MAX, metas).len())
}

/// Every file's metadata, by id.
fn snapshot(files: &HashMap<String, Arc<FileState>>) -> Vec<FileMeta> {
    let mut metas: Vec<FileMeta> = files.values().map(|s| s.meta.read().clone()).collect();
    metas.sort_by_key(|m| m.id);
    metas
}

/// The checkpoint payload.
fn encode(inner: &VolInner, next_id: u64, files: Vec<FileMeta>) -> Vec<u8> {
    codec::encode_checkpoint(&Persisted {
        block_size: inner.block_size,
        next_id,
        files,
    })
}

/// `Ok` if the image of a `len`-byte payload fits a slot.
fn fits(inner: &VolInner, len: usize) -> Result<()> {
    let needed = (frame::HEADER + len) as u64;
    let limit = slot_blocks(inner.meta_blocks) * inner.block_size as u64;
    if needed > limit {
        return Err(FsError::DirectoryFull { needed, limit });
    }
    Ok(())
}

/// The image in `slot`, one run of the whole slot: `(generation,
/// payload)` if it validates.
fn read_slot(inner: &VolInner, slot: u64) -> Option<(u64, Vec<u8>)> {
    let blocks = slot_blocks(inner.meta_blocks);
    let buf = frame::read(&inner.devices[0], slot * blocks, blocks).ok()?;
    let image = frame::unframe(&buf)?;
    Some((image.gen, image.payload.to_vec()))
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
    let persisted = codec::decode_checkpoint(&payload)?;
    if persisted.block_size != bs {
        return Err(FsError::Meta(format!(
            "volume was formatted with {}-byte blocks, devices use {bs}",
            persisted.block_size
        )));
    }
    inner.next_id.store(persisted.next_id, Ordering::Relaxed); // ordering: id counter; recovery runs before any sharing
    {
        let mut files = inner.files.write();
        let mut space = inner.alloc.lock();
        let mut ids = HashSet::new();
        for meta in persisted.files {
            place(inner, &mut space.free, &meta)?;
            // An id at or past `next_id` would be minted again.
            if meta.id >= persisted.next_id
                || !ids.insert(meta.id)
                || files.contains_key(&meta.name)
            {
                return Err(refused(&meta, "its id or name is held twice".into()));
            }
            files.insert(meta.name.clone(), Arc::new(FileState::new(meta)));
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

/// Hold a file a mount decoded to what the volume can place, then
/// reserve its extents: the create path's rules ([`check_placement`]),
/// one extent list per slot, every extent on its own device's blocks
/// and none held twice, and its blocks covered ([`covered`]). A file
/// that breaks one is refused as `FsError::Meta`.
pub(crate) fn place(inner: &VolInner, free: &mut Allocator, meta: &FileMeta) -> Result<()> {
    check_placement(inner, meta)
        .and_then(|()| reserve(free, &meta.device_map, &meta.extents))
        .and_then(|()| covered(inner, meta))
        .map_err(|why| refused(meta, why))
}

/// Reserve `slots`' extents, one list per layout slot, on the slots'
/// devices.
pub(crate) fn reserve(
    free: &mut Allocator,
    device_map: &[usize],
    slots: &[Vec<Extent>],
) -> std::result::Result<(), String> {
    if slots.len() != device_map.len() {
        let (lists, slots) = (slots.len(), device_map.len());
        return Err(format!("{lists} extent lists for {slots} slots"));
    }
    for (&device, extents) in device_map.iter().zip(slots) {
        for &e in extents {
            free.reserve(device, e)?;
        }
    }
    Ok(())
}

/// `Err` unless `meta`'s extents hold every block its layout maps for
/// its `nblocks` logical blocks, and those fit its capacity: a
/// partitioned layout, shadowed or not, maps all of its bounds' blocks
/// or none.
pub(crate) fn covered(inner: &VolInner, meta: &FileMeta) -> std::result::Result<(), String> {
    let n = meta.nblocks;
    if n == 0 {
        return Ok(());
    }
    let cap = meta.capacity_blocks(inner.block_size);
    if cap.is_some_and(|cap| n > cap) {
        return Err(format!("{n} blocks past a capacity of {cap:?}"));
    }
    if let Some(bounds) = meta.partition_bounds() {
        if bounds.last() != Some(&n) {
            return Err(format!("{n} blocks of partitions that bound {bounds:?}"));
        }
    }
    let layout = meta.layout.build();
    for (slot, extents) in meta.extents.iter().enumerate() {
        let (need, have) = (layout.blocks_on_device(n, slot), extents_len(extents));
        if have < need {
            return Err(format!(
                "slot {slot} holds {have} of the {need} blocks its layout maps"
            ));
        }
    }
    Ok(())
}

/// `why` a mount refuses the decoded file `meta`.
pub(crate) fn refused(meta: &FileMeta, why: String) -> FsError {
    FsError::Meta(format!("file '{}' (id {}): {why}", meta.name, meta.id))
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use crate::error::FsError;
    use crate::volume::{FileSpec, Volume};
    use pario_disk::{
        mem_array, BlockDevice, DeviceRef, FaultDevice, FaultPlan, IoCounters, MemDisk,
    };
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

    /// What the retired formats checksummed: CRC-32 of `data` (the
    /// codec's checksum starts after a 12-byte prefix).
    fn retired_crc(data: &[u8]) -> [u8; 4] {
        crate::frame::checksum(&[&[0u8; 12][..], data].concat())
    }

    #[test]
    fn retired_single_slot_image_is_rejected_and_left_untouched() {
        let json = br#"{"block_size":512,"next_id":1,"files":[]}"#;
        // The pre-dual-slot image at block 0: an unchecksummed magic
        // ("PARIOFS" + format digit 1), payload length, then the JSON
        // directory.
        let mut single = b"PARIOFS1".to_vec();
        single.extend_from_slice(&(json.len() as u64).to_le_bytes());
        single.extend_from_slice(json);
        // The dual-slot format's slot A: "PARIOSB2", generation and
        // length, a CRC over those two and the payload, padding to 32.
        let mut covered = 1u64.to_le_bytes().to_vec();
        covered.extend_from_slice(&(json.len() as u64).to_le_bytes());
        covered.extend_from_slice(json);
        let mut dual = b"PARIOSB2".to_vec();
        dual.extend_from_slice(&covered[..16]);
        dual.extend_from_slice(&retired_crc(&covered));
        dual.resize(32, 0);
        dual.extend_from_slice(json);
        // And a record of its journal: "PJL2", generation, seq, a u32
        // length, a CRC over those three and the payload.
        let rec = br#"{"Remove":{"id":1}}"#;
        let mut covered = 1u64.to_le_bytes().to_vec();
        covered.extend_from_slice(&0u64.to_le_bytes());
        covered.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        covered.extend_from_slice(rec);
        let mut record = b"PJL2".to_vec();
        record.extend_from_slice(&covered[..20]);
        record.extend_from_slice(&retired_crc(&covered));
        record.extend_from_slice(rec);

        // The JSON format's slot A: today's frame, under "PARIOFS3"
        // (the CRC does not cover the magic).
        let mut json_slot = crate::frame::frame(1, 0, json, 512);
        json_slot[..8].copy_from_slice(b"PARIOFS3");

        let journal = super::journal_start(super::meta_blocks(512, 1024));
        let volumes = [
            vec![(0, single)],
            vec![(0, dual.clone())],
            vec![(0, dual), (journal, record)],
            vec![(0, json_slot)],
        ];
        for images in volumes {
            let devs = devices();
            for (block, mut image) in images {
                image.resize(image.len().next_multiple_of(512), 0);
                devs[0].write_blocks_at(block, &image).unwrap();
            }
            let image = || {
                let mut all = vec![0u8; 1024 * 512];
                devs[0].read_blocks_at(0, &mut all).unwrap();
                all
            };
            let before = image();
            match Volume::mount(devs.clone()) {
                Err(FsError::Meta(msg)) => {
                    assert!(msg.contains("no valid pario superblock"), "{msg}")
                }
                Err(e) => panic!("expected the typed bad-superblock error, got {e:?}"),
                Ok(_) => panic!("a retired-format image must not mount"),
            }
            assert!(before == image(), "a failed mount wrote to device 0");
        }
    }

    /// Two files of four blocks over the three devices, checkpointed:
    /// the devices, the checkpoint's generation and what it holds.
    fn checkpointed() -> (Vec<DeviceRef>, u64, super::Persisted) {
        let devs = devices();
        let v = Volume::new(devs.clone()).unwrap();
        v.create_file(empty("a").initial_records(4)).unwrap();
        v.create_file(empty("b").initial_records(4)).unwrap();
        v.sync_meta().unwrap();
        let files = ["a", "b"].map(|n| v.open(n).unwrap().meta_snapshot());
        let persisted = super::Persisted {
            block_size: 512,
            next_id: files[1].id + 1,
            files: files.to_vec(),
        };
        let gen = v.meta_status().generation;
        v.abandon();
        (devs, gen, persisted)
    }

    /// Frame `persisted` as the next generation's checkpoint in its slot.
    fn checkpoint(devs: &[DeviceRef], gen: u64, persisted: &super::Persisted) {
        let payload = crate::codec::encode_checkpoint(persisted);
        let slot = super::slot_blocks(super::meta_blocks(512, 1024));
        let image = crate::frame::frame(gen + 1, 0, &payload, 512);
        devs[0]
            .write_blocks_at((gen + 1) % 2 * slot, &image)
            .unwrap();
    }

    #[test]
    fn a_device_map_entry_past_the_volume_fails_mount_as_meta() {
        let (devs, gen, mut persisted) = checkpointed();
        persisted.files[1].device_map[2] = 7;
        checkpoint(&devs, gen, &persisted);
        match Volume::mount(devs) {
            Err(FsError::Meta(msg)) => assert!(msg.contains("device 7 does not exist"), "{msg}"),
            other => panic!("mounted past the volume: {:?}", other.map(|v| v.list())),
        }
    }

    #[test]
    fn mount_refuses_a_file_it_cannot_place() {
        type Corrupt = fn(&mut super::Persisted);
        let cases: [(&str, Corrupt); 9] = [
            ("mapped twice", |p| p.files[0].device_map[1] = 0),
            ("extent lists for", |p| p.files[0].extents.push(Vec::new())),
            ("does not fit device", |p| {
                p.files[0].extents[0][0].start = 1023
            }),
            ("does not fit device", |p| p.files[0].extents[0][0].len = 0),
            ("held twice", |p| {
                p.files[1].extents[0] = p.files[0].extents[0].clone()
            }),
            ("held twice", |p| p.files[1].extents[0][0].start = 0),
            ("its layout maps", |p| p.files[0].nblocks = 40),
            ("id or name is held twice", |p| p.files[1].name = "a".into()),
            ("id or name is held twice", |p| p.next_id = p.files[1].id),
        ];
        for (why, corrupt) in cases {
            let (devs, gen, mut persisted) = checkpointed();
            corrupt(&mut persisted);
            checkpoint(&devs, gen, &persisted);
            match Volume::mount(devs) {
                Err(FsError::Meta(msg)) => assert!(msg.contains(why), "{why}: {msg}"),
                other => panic!("{why}: mounted {:?}", other.map(|v| v.list())),
            }
        }
    }

    #[test]
    fn replay_refuses_a_grow_past_its_device() {
        let devs = devices();
        let v = Volume::new(devs.clone()).unwrap();
        let f = v.create_file(empty("g")).unwrap();
        f.write_record(0, &[1; 512]).unwrap();
        let gen = v.meta_status().generation;
        v.abandon();
        drop((f, v));
        // The journal holds the create and its one grow: move the
        // grow's extent on device 0 past the device.
        let mut grown = crate::codec::decode_record(&journal_record(&devs, 1)).unwrap();
        let crate::journal::Record::Grow { slots, .. } = &mut grown else {
            panic!("the second record is the grow")
        };
        slots[0][0].start = 1024;
        let at = super::journal_start(super::meta_blocks(512, 1024)) + 1;
        let image = crate::frame::frame(gen, 1, &crate::codec::encode_record(&grown), 512);
        devs[0].write_blocks_at(at, &image).unwrap();
        match Volume::mount(devs) {
            Err(FsError::Meta(msg)) => assert!(msg.contains("does not fit device 0"), "{msg}"),
            other => panic!("replayed past the device: {:?}", other.map(|v| v.list())),
        }
    }

    /// The payload of journal record `seq`, each record one block.
    fn journal_record(devs: &[DeviceRef], seq: u64) -> Vec<u8> {
        let at = super::journal_start(super::meta_blocks(512, 1024)) + seq;
        let mut block = vec![0u8; 512];
        devs[0].read_blocks_at(at, &mut block).unwrap();
        let image = crate::frame::unframe(&block).expect("an intact record");
        assert_eq!(image.seq, seq);
        image.payload.to_vec()
    }

    /// A striped file of no records over the three devices.
    fn empty(name: &str) -> FileSpec {
        let layout = LayoutSpec::Striped {
            devices: 3,
            unit: 1,
        };
        FileSpec::new(name, 512, 1, layout)
    }

    /// A `MemDisk` that counts its flushes.
    struct Flushes {
        disk: MemDisk,
        flushes: AtomicU64,
    }

    impl BlockDevice for Flushes {
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
            self.disk.write_blocks_at(block, data)
        }
        fn flush(&self) -> pario_disk::Result<()> {
            self.flushes.fetch_add(1, Ordering::SeqCst);
            Ok(())
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

    #[test]
    fn a_multi_block_checkpoint_is_one_write_and_one_flush() {
        let dev0 = Arc::new(Flushes {
            disk: MemDisk::new(1024, 512),
            flushes: AtomicU64::new(0),
        });
        let mut devs = devices();
        devs[0] = Arc::clone(&dev0) as DeviceRef;
        let v = Volume::new(devs).unwrap();
        for i in 0..12 {
            v.create_file(empty(&format!("f{i}"))).unwrap();
        }
        let (was, flushes) = (dev0.counters(), dev0.flushes.load(Ordering::SeqCst));
        v.sync_meta().unwrap();
        let now = dev0.counters();
        assert!(now.blocks_written - was.blocks_written >= 3, "{now:?}");
        assert_eq!(now.writes - was.writes, 1, "one run");
        assert_eq!(dev0.flushes.load(Ordering::SeqCst) - flushes, 1);
        assert_eq!(now.reads, was.reads, "a checkpoint reads nothing");
    }

    #[test]
    fn a_torn_multi_block_checkpoint_mounts_from_the_other_slot() {
        let plan = FaultPlan {
            crash_after_writes: Some(0),
            crash_torn: true,
            ..FaultPlan::default()
        };
        let mut devs = devices();
        let (fault, dev0) = FaultDevice::wrap(Arc::clone(&devs[0]), plan);
        devs[0] = dev0;
        fault.set_armed(false);
        let v = Volume::new(devs.clone()).unwrap();
        for i in 0..12 {
            v.create_file(empty(&format!("f{i}"))).unwrap();
        }
        v.sync_meta().unwrap();
        let synced = v.meta_status().generation;
        // Journaled after the checkpoint, so the fallback replays it.
        v.create_file(empty("late")).unwrap();
        fault.set_armed(true);
        assert!(v.sync_meta().is_err(), "the checkpoint write crashed");
        v.abandon();
        drop(v);
        fault.heal();

        // The torn slot's first blocks landed: a header for the next
        // generation whose payload does not check.
        let slot = super::slot_blocks(super::meta_blocks(512, 1024));
        let torn = (synced + 1) % 2 * slot;
        let mut head = vec![0u8; 512];
        devs[0].read_blocks_at(torn, &mut head).unwrap();
        assert_eq!(&head[..8], b"PARIOFS4");
        assert_eq!(head[12..20], (synced + 1).to_le_bytes());

        let v = Volume::mount(devs).unwrap();
        let report = v.mount_report().unwrap();
        assert_eq!((report.generation, report.replayed_records), (synced, 1));
        assert_eq!(v.list().len(), 13);
        assert!(v.list().contains(&"late".to_string()));
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
            devs[0].read_blocks_at(base, &mut head).unwrap();
            for b in head.iter_mut().skip(crate::frame::HEADER).take(16) {
                *b ^= 0xFF;
            }
            devs[0].write_blocks_at(base, &head).unwrap();
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
