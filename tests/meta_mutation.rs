//! The meta region's decoder fails closed.
//!
//! A real volume — files of all four layouts, a checkpoint, then a
//! journal of creates, grows and a remove — leaves its meta region on
//! device 0. Each case copies that region onto fresh devices, mutates a
//! few bytes of one framed image (a checkpoint slot or a journal
//! record: header or payload), recomputes the image's CRC so the
//! decoder itself reads the damage, and mounts. Every mutated volume
//! either mounts a state [`audit_volume`] calls clean or fails mount
//! with `FsError::Meta`: never a panic, never another error, never a
//! hang.

use std::sync::mpsc;
use std::time::Duration;

use pario::disk::{mem_array, DeviceRef};
use pario::fs::{FileSpec, FsError, Volume};
use pario::layout::LayoutSpec;
use pario::reliability::audit_volume;
use proptest::TestRng;

const BS: usize = 512;
const NDEV: usize = 4;
const DEV_BLOCKS: u64 = 512;
const CASES: usize = 10_000;
const MAGIC: &[u8; 8] = b"PARIOFS4";
/// Header bytes before the payload; the CRC covers from byte 12.
const HEADER: usize = 32;

/// The CRC-32 (IEEE 802.3, reflected) the frame stores, bit by bit.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// The payload length an image's header states.
fn stated_len(region: &[u8], at: usize) -> usize {
    u32::from_le_bytes(region[at + 28..at + HEADER].try_into().unwrap()) as usize
}

/// The meta region a short life of a volume leaves on device 0.
fn region() -> Vec<u8> {
    let devs = mem_array(NDEV, DEV_BLOCKS, BS);
    let vol = Volume::new(devs.clone()).unwrap();
    let striped = LayoutSpec::Striped {
        devices: 4,
        unit: 2,
    };
    let partitioned = LayoutSpec::Partitioned {
        bounds: vec![0, 3, 5, 8],
        devices: 2,
    };
    let parity = LayoutSpec::Parity {
        data_devices: 3,
        rotated: true,
    };
    let shadowed = LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
        devices: 2,
        unit: 1,
    }));
    let record = |name: &str, layout| FileSpec::new(name, 128, 4, layout);
    vol.create_file(record("s", striped.clone()).initial_records(40).org("S"))
        .unwrap();
    vol.create_file(
        record("ps", partitioned)
            .fixed_capacity(32)
            .device_map(vec![3, 1]),
    )
    .unwrap();
    vol.create_file(record("par", parity).initial_records(24))
        .unwrap();
    let mirror = vol.create_file(record("mirror", shadowed)).unwrap();
    mirror.write_record(5, &[9; 128]).unwrap();
    vol.sync_meta().unwrap();
    // Journaled after the checkpoint: a create and its grows, a grow
    // of a checkpointed file, a remove.
    let late = vol.create_file(record("late", striped)).unwrap();
    for r in [0, 9, 30] {
        late.write_record(r, &[7; 128]).unwrap();
    }
    mirror.write_record(40, &[3; 128]).unwrap();
    vol.remove("par").unwrap();
    vol.abandon();
    let mut region = vec![0u8; vol.meta_region_blocks() as usize * BS];
    devs[0].read_blocks_at(0, &mut region).unwrap();
    region
}

/// Where each framed image in `region` starts.
fn images(region: &[u8]) -> Vec<usize> {
    (0..region.len())
        .step_by(BS)
        .filter(|&at| &region[at..at + 8] == MAGIC)
        .collect()
}

/// What one mutated volume came to.
enum Outcome {
    Clean,
    Refused(String),
}

/// Mutate one image of `region` as `rng` says, re-CRC it and mount.
fn case(region: &[u8], starts: &[usize], rng: &mut TestRng) -> Outcome {
    let mut region = region.to_vec();
    let at = starts[rng.below(starts.len() as u64) as usize];
    let len = stated_len(&region, at);
    for _ in 0..1 + rng.below(3) {
        // Three in four land in the payload; the rest anywhere the CRC
        // covers (generation, sequence, length).
        let (lo, span) = match rng.below(4) {
            0 => (12, HEADER - 12 + len),
            _ => (HEADER, len.max(1)),
        };
        let byte = at + lo + rng.below(span as u64) as usize;
        region[byte] = match rng.below(3) {
            0 => region[byte] ^ 1 << rng.below(8),
            1 => rng.next_u64() as u8,
            _ => region[byte].wrapping_add(1),
        };
    }
    let end = at + HEADER + stated_len(&region, at);
    if end <= region.len() {
        let crc = crc32(&region[at + 12..end]);
        region[at + 8..at + 12].copy_from_slice(&crc.to_le_bytes());
    }
    let devs: Vec<DeviceRef> = mem_array(NDEV, DEV_BLOCKS, BS);
    devs[0].write_blocks_at(0, &region).unwrap();
    match Volume::mount(devs) {
        Ok(vol) => {
            vol.abandon();
            let audit = audit_volume(&vol).unwrap();
            assert!(
                audit.is_clean(),
                "mounted an inconsistent state: {:?}",
                audit.errors
            );
            Outcome::Clean
        }
        Err(FsError::Meta(msg)) => Outcome::Refused(msg),
        Err(e) => panic!("a mutated image failed mount untyped: {e:?}"),
    }
}

#[test]
fn a_mutated_meta_image_mounts_clean_or_is_refused_as_meta() {
    let region = region();
    let starts = images(&region);
    // Two slots, then the journal: the late create and its grows, the
    // mirror's grow and the remove.
    assert!(starts.len() >= 6, "images at {starts:?}");
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("mutations".into())
        .spawn(move || {
            let mut rng = TestRng::from_seed(0x5EED_2026);
            let (mut clean, mut decode, mut place) = (0, 0, 0);
            for i in 0..CASES {
                match case(&region, &starts, &mut rng) {
                    Outcome::Clean => clean += 1,
                    Outcome::Refused(msg) if msg.contains("meta record") => decode += 1,
                    Outcome::Refused(msg) if msg.contains("file '") => place += 1,
                    Outcome::Refused(msg) => assert!(
                        msg.contains("superblock") || msg.contains("blocks"),
                        "case {i}: {msg}"
                    ),
                }
            }
            tx.send((clean, decode, place)).unwrap();
        })
        .unwrap();
    let (clean, decode, place) = match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(counts) => counts,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a mutated mount hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
    };
    worker.join().unwrap();
    println!("{CASES} mutations: {clean} mounted clean, {decode} refused undecodable, {place} refused unplaceable");
    // The seed reaches every outcome: a CRC recomputed over the damage
    // puts it in front of the decoder and the mount's checks.
    assert!(clean > 0 && decode > 0 && place > 0);
}
