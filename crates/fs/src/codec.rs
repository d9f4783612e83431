//! The meta region's payloads, encoded by hand in the tree's one byte
//! codec ([`pario_disk::wire`], the wire's too): a checkpoint's
//! directory and each intent-journal record, inside the images `frame`
//! writes.
//!
//! Integers are little-endian; a `usize` travels as a `u64`; a string
//! is a `u32` byte count and UTF-8; a list is a `u32` count and its
//! items; a `bool` or an `Option`'s presence is one byte, 0 or 1:
//!
//! ```text
//! checkpoint  block_size | next_id | files: [FileMeta]
//! FileMeta    id | name | record_size | records_per_block | len_records
//!             | layout | org | device_map: [usize]
//!             | fixed_capacity_records: Option<u64> | nblocks
//!             | extents: [[Extent]]
//! Extent      start | len
//! layout      0 Striped devices unit | 1 Partitioned devices bounds: [u64]
//!             | 2 Parity data_devices rotated | 3 Shadowed layout
//! record      0 Create FileMeta | 1 Grow id slots: [[Extent]] nblocks
//!             | 2 Remove id
//! ```
//!
//! Decoding fails closed: a bad tag, a byte past a `bool`, a value
//! cut short, bytes left over, a name that is not UTF-8, or a shadow
//! of a shadow is `FsError::Meta`, never a panic. Whether a decoded
//! file fits the volume is the mount's to check (`superblock::place`).

use pario_disk::wire::{WireError, WireReader, WireResult, WireWriter};
use pario_layout::LayoutSpec;

use crate::alloc::Extent;
use crate::error::{FsError, Result};
use crate::journal::Record;
use crate::meta::FileMeta;
use crate::superblock::Persisted;

/// A checkpoint's payload.
pub(crate) fn encode_checkpoint(p: &Persisted) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.usize(p.block_size).u64(p.next_id);
    list(&mut w, &p.files, put_meta);
    w.take()
}

/// The checkpoint `payload` holds, or why it holds none.
pub(crate) fn decode_checkpoint(payload: &[u8]) -> Result<Persisted> {
    decode(payload, |r| {
        Ok(Persisted {
            block_size: r.usize()?,
            next_id: r.u64()?,
            files: get_list(r, get_meta)?,
        })
    })
}

/// A journal record's payload.
pub(crate) fn encode_record(rec: &Record) -> Vec<u8> {
    let mut w = WireWriter::new();
    match rec {
        Record::Create { meta } => put_meta(w.u8(0), meta),
        Record::Grow { id, slots, nblocks } => {
            w.u8(1).u64(*id);
            list(&mut w, slots, |w, e| put_extents(w, e));
            w.u64(*nblocks);
        }
        Record::Remove { id } => {
            w.u8(2).u64(*id);
        }
    }
    w.take()
}

/// The journal record `payload` holds, or why it holds none.
pub(crate) fn decode_record(payload: &[u8]) -> Result<Record> {
    decode(payload, |r| {
        Ok(match r.u8()? {
            0 => Record::Create { meta: get_meta(r)? },
            1 => Record::Grow {
                id: r.u64()?,
                slots: get_list(r, get_extents)?,
                nblocks: r.u64()?,
            },
            2 => Record::Remove { id: r.u64()? },
            tag => return Err(WireError::Malformed(format!("record tag {tag}"))),
        })
    })
}

/// Run `body` over the whole of `payload`: what it reads, if that is
/// every byte.
fn decode<T>(payload: &[u8], body: impl FnOnce(&mut WireReader) -> WireResult<T>) -> Result<T> {
    let mut r = WireReader::new(payload);
    body(&mut r)
        .and_then(|v| r.finish().map(|()| v))
        .map_err(|e| FsError::Meta(format!("meta record: {e}")))
}

fn list<T>(w: &mut WireWriter, items: &[T], mut put: impl FnMut(&mut WireWriter, &T)) {
    w.u32(items.len() as u32);
    items.iter().for_each(|item| put(w, item));
}

/// A list of `get`'s items. What it reserves up front is bounded by
/// the bytes left, not by the count, so a count no encoder wrote costs
/// nothing before it runs out.
fn get_list<T>(
    r: &mut WireReader,
    mut get: impl FnMut(&mut WireReader) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let n = r.u32()? as usize;
    let mut items = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        items.push(get(r)?);
    }
    Ok(items)
}

fn get_bool(r: &mut WireReader) -> WireResult<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::Malformed(format!("{b} is no bool"))),
    }
}

fn put_meta(w: &mut WireWriter, m: &FileMeta) {
    w.u64(m.id)
        .str_prefixed(&m.name)
        .usize(m.record_size)
        .usize(m.records_per_block)
        .u64(m.len_records);
    put_layout(w, &m.layout);
    w.str_prefixed(&m.org);
    list(w, &m.device_map, |w, &d| {
        w.usize(d);
    });
    match m.fixed_capacity_records {
        Some(cap) => w.u8(1).u64(cap),
        None => w.u8(0),
    };
    w.u64(m.nblocks);
    list(w, &m.extents, |w, e| put_extents(w, e));
}

fn get_meta(r: &mut WireReader) -> WireResult<FileMeta> {
    Ok(FileMeta {
        id: r.u64()?,
        name: r.str_prefixed()?,
        record_size: r.usize()?,
        records_per_block: r.usize()?,
        len_records: r.u64()?,
        layout: get_layout(r, false)?,
        org: r.str_prefixed()?,
        device_map: get_list(r, |r| r.usize())?,
        fixed_capacity_records: get_bool(r)?.then(|| r.u64()).transpose()?,
        nblocks: r.u64()?,
        extents: get_list(r, get_extents)?,
    })
}

fn put_extents(w: &mut WireWriter, extents: &[Extent]) {
    list(w, extents, |w, e| {
        w.u64(e.start).u64(e.len);
    });
}

fn get_extents(r: &mut WireReader) -> WireResult<Vec<Extent>> {
    get_list(r, |r| {
        Ok(Extent {
            start: r.u64()?,
            len: r.u64()?,
        })
    })
}

fn put_layout(w: &mut WireWriter, spec: &LayoutSpec) {
    match spec {
        LayoutSpec::Striped { devices, unit } => {
            w.u8(0).usize(*devices).u64(*unit);
        }
        LayoutSpec::Partitioned { bounds, devices } => {
            w.u8(1).usize(*devices);
            list(w, bounds, |w, &b| {
                w.u64(b);
            });
        }
        LayoutSpec::Parity {
            data_devices,
            rotated,
        } => {
            w.u8(2).usize(*data_devices).u8(u8::from(*rotated));
        }
        LayoutSpec::Shadowed(plain) => put_layout(w.u8(3), plain),
    }
}

/// A layout; `shadowed` says it is the one a shadow wraps, which may
/// not be a shadow itself.
fn get_layout(r: &mut WireReader, shadowed: bool) -> WireResult<LayoutSpec> {
    Ok(match r.u8()? {
        0 => LayoutSpec::Striped {
            devices: r.usize()?,
            unit: r.u64()?,
        },
        1 => LayoutSpec::Partitioned {
            devices: r.usize()?,
            bounds: get_list(r, |r| r.u64())?,
        },
        2 => LayoutSpec::Parity {
            data_devices: r.usize()?,
            rotated: get_bool(r)?,
        },
        3 if shadowed => return Err(WireError::Malformed("a shadow of a shadow".into())),
        3 => LayoutSpec::Shadowed(Box::new(get_layout(r, true)?)),
        tag => return Err(WireError::Malformed(format!("layout tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    fn extent() -> impl Strategy<Value = Extent> {
        (any::<u64>(), any::<u64>()).prop_map(|(start, len)| Extent { start, len })
    }

    /// Ragged: each slot's list its own length, empty ones included.
    fn extents() -> impl Strategy<Value = Vec<Vec<Extent>>> {
        vec(vec(extent(), 0..4), 0..5)
    }

    fn plain() -> impl Strategy<Value = LayoutSpec> {
        prop_oneof![
            (1usize..9, 1u64..64).prop_map(|(devices, unit)| LayoutSpec::Striped { devices, unit }),
            (vec(any::<u64>(), 1..6), 1usize..9)
                .prop_map(|(bounds, devices)| LayoutSpec::Partitioned { bounds, devices }),
        ]
    }

    /// All four layouts, a shadow one level deep.
    fn layout() -> impl Strategy<Value = LayoutSpec> {
        prop_oneof![
            plain(),
            (1usize..8, any::<bool>()).prop_map(|(data_devices, rotated)| LayoutSpec::Parity {
                data_devices,
                rotated
            }),
            plain().prop_map(|p| LayoutSpec::Shadowed(Box::new(p))),
        ]
    }

    fn name() -> impl Strategy<Value = String> {
        vec(
            prop_oneof![Just('a'), Just('é'), Just('😀'), Just('\0')],
            0..12,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    fn meta() -> impl Strategy<Value = FileMeta> {
        let head = (any::<u64>(), name(), 1usize..4096, 1usize..64, any::<u64>());
        let cap = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
        let place = (layout(), name(), vec(0usize..16, 0..8));
        let alloc = (cap, any::<u64>(), extents());
        (head, place, alloc).prop_map(
            |(
                (id, name, record_size, records_per_block, len_records),
                (layout, org, device_map),
                (fixed_capacity_records, nblocks, extents),
            )| FileMeta {
                id,
                name,
                record_size,
                records_per_block,
                len_records,
                layout,
                org,
                device_map,
                fixed_capacity_records,
                nblocks,
                extents,
            },
        )
    }

    fn record() -> impl Strategy<Value = Record> {
        prop_oneof![
            meta().prop_map(|meta| Record::Create { meta }),
            (any::<u64>(), extents(), any::<u64>()).prop_map(|(id, slots, nblocks)| Record::Grow {
                id,
                slots,
                nblocks
            }),
            any::<u64>().prop_map(|id| Record::Remove { id }),
        ]
    }

    fn checkpoint() -> impl Strategy<Value = Persisted> {
        (1usize..65536, any::<u64>(), vec(meta(), 0..4)).prop_map(|(block_size, next_id, files)| {
            Persisted {
                block_size,
                next_id,
                files,
            }
        })
    }

    /// `bytes` decodes to `value`, and no strict prefix of it decodes.
    fn round_trips<T: PartialEq + std::fmt::Debug>(
        value: &T,
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<T>,
    ) {
        assert_eq!(&decode(bytes).unwrap(), value);
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(FsError::Meta(_)) => {}
                other => panic!("a {cut}-byte prefix of {value:?} decoded: {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        fn a_record_decodes_to_itself_and_no_prefix_decodes(rec in record()) {
            round_trips(&rec, &encode_record(&rec), decode_record);
        }

        fn a_checkpoint_decodes_to_itself_and_no_prefix_decodes(p in checkpoint()) {
            round_trips(&p, &encode_checkpoint(&p), decode_checkpoint);
        }
    }

    #[test]
    fn every_layout_and_both_capacities_are_drawn() {
        let mut rng = proptest::TestRng::from_seed(7);
        let (mut kinds, mut caps) = ([false; 4], [false; 2]);
        for _ in 0..400 {
            let m = meta().sample(&mut rng);
            let kind = match &m.layout {
                LayoutSpec::Striped { .. } => 0,
                LayoutSpec::Partitioned { .. } => 1,
                LayoutSpec::Parity { .. } => 2,
                LayoutSpec::Shadowed(_) => 3,
            };
            kinds[kind] = true;
            caps[usize::from(m.fixed_capacity_records.is_some())] = true;
        }
        assert_eq!((kinds, caps), ([true; 4], [true; 2]));
    }

    fn refused(payload: &[u8], why: &str) {
        match decode_record(payload) {
            Err(FsError::Meta(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("{payload:?} decoded: {other:?}"),
        }
    }

    #[test]
    fn a_malformed_body_is_refused_as_meta() {
        let remove = encode_record(&Record::Remove { id: 9 });
        refused(&[7], "record tag 7");
        refused(&remove[..5], "truncated");
        refused(&[&remove[..], &[0][..]].concat(), "trailing");
        let meta = FileMeta {
            id: 1,
            name: "n".into(),
            record_size: 8,
            records_per_block: 1,
            len_records: 0,
            layout: LayoutSpec::Shadowed(Box::new(LayoutSpec::Parity {
                data_devices: 1,
                rotated: true,
            })),
            org: "S".into(),
            device_map: vec![0, 1, 2, 3],
            fixed_capacity_records: None,
            nblocks: 0,
            extents: vec![Vec::new(); 4],
        };
        let create = encode_record(&Record::Create { meta });
        // The tag, the id, the name's length and its byte, three
        // numbers: the shadow's tag is byte 38, its parity's tag 39.
        const SHADOW: usize = 38;
        for (at, byte, why) in [
            (13, 0xFF, "UTF-8"),
            (SHADOW + 1, 3, "a shadow of a shadow"),
            (SHADOW + 1, 9, "layout tag 9"),
            (SHADOW + 10, 2, "2 is no bool"),
        ] {
            let mut bad = create.clone();
            bad[at] = byte;
            refused(&bad, why);
        }
    }
}
