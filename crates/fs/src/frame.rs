//! The meta region's one record format.
//!
//! Superblock checkpoints and intent-journal records are the same
//! framed image — a fixed header, then the payload, zero-padded to whole
//! blocks — and each moves to or from device 0 as one run:
//!
//! ```text
//! magic (8) | crc32 (4) | generation (8) | seq (8) | len (4) | payload…
//! ```
//!
//! A checkpoint is the image with `seq` 0. The CRC covers everything
//! after its own field, so a torn or interrupted write is *detected*
//! rather than parsed: mount falls back to the alternate slot, replay
//! stops at the torn journal tail. A tiny table-driven CRC-32 keeps the
//! crate free of new dependencies; metadata is cold, so throughput is
//! irrelevant.

use pario_disk::DeviceRef;

use crate::error::Result;

/// Header magic: the fourth meta format, whose payloads are the byte
/// codec's (`codec`), after the single-slot `PARIOFS1`, the `PARIOSB2`
/// slot / `PJL2` record pair and `PARIOFS3`'s JSON payloads.
const MAGIC: &[u8; 8] = b"PARIOFS4";

/// Header bytes before the payload.
pub(crate) const HEADER: usize = 32;

/// First byte the CRC covers: the one after its own field.
const COVERED: usize = 12;

/// One image read back from media.
pub(crate) struct Frame<'a> {
    /// Checkpoint generation the image belongs to.
    pub(crate) gen: u64,
    /// Record sequence number within the generation (0 for a checkpoint).
    pub(crate) seq: u64,
    pub(crate) payload: &'a [u8],
}

/// Bytes the image of a `len`-byte payload occupies: whole blocks.
pub(crate) fn image_bytes(len: usize, bs: usize) -> usize {
    (HEADER + len).next_multiple_of(bs)
}

/// Frame `payload` as the image tagged `gen` and `seq`, zero-padded to
/// whole `bs`-byte blocks.
pub(crate) fn frame(gen: u64, seq: u64, payload: &[u8], bs: usize) -> Vec<u8> {
    let mut image = Vec::with_capacity(image_bytes(payload.len(), bs));
    image.extend_from_slice(MAGIC);
    image.extend_from_slice(&[0; COVERED - 8]);
    image.extend_from_slice(&gen.to_le_bytes());
    image.extend_from_slice(&seq.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    image.extend_from_slice(payload);
    let crc = checksum(&image);
    image[8..COVERED].copy_from_slice(&crc);
    image.resize(image_bytes(payload.len(), bs), 0);
    image
}

/// The image at the front of `buf`, or `None` if none starts there
/// intact: another magic, a length past the buffer, or a CRC that does
/// not match.
pub(crate) fn unframe(buf: &[u8]) -> Option<Frame<'_>> {
    if buf.len() < HEADER || &buf[..8] != MAGIC {
        return None;
    }
    // invariant: fixed-width header slices always convert.
    let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(buf[28..HEADER].try_into().expect("4 bytes")) as usize; // invariant: fixed-width slice
    if checksum(buf.get(..HEADER + len)?) != buf[8..COVERED] {
        return None;
    }
    Some(Frame {
        gen: u64_at(12),
        seq: u64_at(20),
        payload: &buf[HEADER..HEADER + len],
    })
}

/// Land `image` at `block` of `dev` as one run, then flush: the image is
/// on stable media when this returns.
pub(crate) fn write(dev: &DeviceRef, block: u64, image: &[u8]) -> Result<()> {
    dev.write_blocks_at(block, image)?;
    Ok(dev.flush()?)
}

/// Read `blocks` blocks at `block` of `dev` as one run.
pub(crate) fn read(dev: &DeviceRef, block: u64, blocks: u64) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; blocks as usize * dev.block_size()];
    dev.read_blocks_at(block, &mut buf)?;
    Ok(buf)
}

/// The CRC field of `image`: the CRC-32 (IEEE 802.3, reflected,
/// init/xorout `0xFFFF_FFFF`) of everything after the field.
pub(crate) fn checksum(image: &[u8]) -> [u8; 4] {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in &image[COVERED..] {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    (crc ^ 0xFFFF_FFFF).to_le_bytes()
}

/// The 256-entry lookup table for the reflected polynomial `0xEDB88320`,
/// built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` where the CRC field's coverage starts.
    fn covering(data: &[u8]) -> Vec<u8> {
        let mut image = vec![0u8; COVERED];
        image.extend_from_slice(data);
        image
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(
            checksum(&covering(b"123456789")),
            0xCBF4_3926u32.to_le_bytes()
        );
        assert_eq!(checksum(&covering(b"")), [0; 4]);
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = covering(b"pario superblock payload");
        let c0 = checksum(&base);
        for i in COVERED..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[i] ^= 1 << bit;
                assert_ne!(checksum(&m), c0, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn an_image_round_trips_in_whole_blocks() {
        let payload: Vec<u8> = (0..700).map(|i| i as u8).collect();
        let image = frame(7, 3, &payload, 512);
        assert_eq!(image.len(), 1024, "32 + 700 bytes pad to two blocks");
        // Blocks after the image do not disturb it.
        let mut buf = image.clone();
        buf.resize(4096, 0xEE);
        let f = unframe(&buf).expect("an intact image");
        assert_eq!((f.gen, f.seq), (7, 3));
        assert_eq!(f.payload, &payload[..]);
    }

    #[test]
    fn a_flipped_header_byte_another_magic_or_a_short_buffer_refuses_the_image() {
        let image = frame(1, 0, b"directory", 64);
        for at in 0..HEADER + 9 {
            let mut bad = image.clone();
            bad[at] ^= 0x10;
            assert!(unframe(&bad).is_none(), "flip at byte {at}");
        }
        assert!(unframe(&image[..HEADER + 4]).is_none(), "payload cut short");
    }
}
