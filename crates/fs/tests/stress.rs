//! Stress and property tests for the volume layer: concurrent growth,
//! allocator churn, and metadata round trips under arbitrary file
//! populations.

use proptest::prelude::*;

use pario_disk::mem_array;
use pario_fs::{FileSpec, Volume, VolumeConfig};
use pario_layout::LayoutSpec;

const BS: usize = 256;

fn vol() -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 4096,
        block_size: BS,
    })
    .unwrap()
}

#[test]
fn concurrent_growth_of_one_file() {
    // Threads write ever-further records; growth (allocation) races with
    // reads and other writers without tearing.
    let v = vol();
    let f = v
        .create_file(FileSpec::new(
            "grow",
            BS,
            1,
            LayoutSpec::Striped {
                devices: 4,
                unit: 2,
            },
        ))
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let f = f.clone();
            s.spawn(move || {
                for k in 0..50u64 {
                    let i = t + k * 6;
                    f.write_record(i, &vec![(i % 250) as u8 + 1; BS]).unwrap();
                }
            });
        }
    });
    assert_eq!(f.len_records(), 300);
    let mut buf = vec![0u8; BS];
    for i in 0..300u64 {
        f.read_record(i, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == (i % 250) as u8 + 1),
            "record {i} torn"
        );
    }
}

#[test]
fn concurrent_file_creation_and_removal() {
    let v = vol();
    let baseline: u64 = v.free_blocks().iter().sum();
    std::thread::scope(|s| {
        for t in 0..4 {
            let v = v.clone();
            s.spawn(move || {
                for round in 0..10 {
                    let name = format!("f-{t}-{round}");
                    let f = v
                        .create_file(
                            FileSpec::new(
                                &name,
                                BS,
                                1,
                                LayoutSpec::Striped {
                                    devices: 4,
                                    unit: 1,
                                },
                            )
                            .initial_records(32),
                        )
                        .unwrap();
                    f.write_record(0, &vec![t as u8 + 1; BS]).unwrap();
                    if round % 2 == 0 {
                        v.remove(&name).unwrap();
                    }
                }
            });
        }
    });
    // 4 threads x 5 surviving files each.
    assert_eq!(v.list().len(), 20);
    // All blocks released by removals are reusable: exactly the 20
    // surviving files' blocks are out of the free pool.
    let used: u64 = 20 * 32;
    let total_free: u64 = v.free_blocks().iter().sum();
    assert_eq!(total_free, baseline - used, "leaked blocks");
}

#[test]
fn concurrent_spans_match_serial_reference() {
    // Eight threads each own a disjoint, block-aligned byte region of a
    // striped file and hammer it with unaligned span writes interleaved
    // with read-backs — all through the volume executor's async submit
    // path. Afterwards the parallel and serial read paths must agree
    // with the per-thread models on every byte.
    const THREADS: usize = 8;
    const REGION: usize = 6 * BS;
    let v = vol();
    let f = v
        .create_file(FileSpec::new(
            "spans",
            BS,
            1,
            LayoutSpec::Striped {
                devices: 4,
                unit: 1,
            },
        ))
        .unwrap();
    // Allocate the whole surface up front so growth does not race.
    f.write_span((THREADS * REGION - 1) as u64, &[0]).unwrap();
    let models = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let f = f.clone();
                s.spawn(move || {
                    let base = (t * REGION) as u64;
                    let mut model = vec![0u8; REGION];
                    for k in 0..60usize {
                        let len = 1 + (k * 91 + t * 13) % (2 * BS);
                        let off = (k * 137 + t * 29) % (REGION - len);
                        let byte = (t * 60 + k) as u8;
                        let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                        f.write_span(base + off as u64, &data).unwrap();
                        model[off..off + len].copy_from_slice(&data);
                        if k % 5 == 0 {
                            let mut got = vec![0u8; REGION];
                            f.read_span(base, &mut got).unwrap();
                            assert_eq!(got, model, "thread {t} round {k}");
                        }
                    }
                    model
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let expect: Vec<u8> = models.concat();
    let mut par = vec![0u8; THREADS * REGION];
    f.read_span(0, &mut par).unwrap();
    assert_eq!(par, expect, "parallel read path");
    let serial = f.clone().with_span_parallel(false);
    let mut ser = vec![0u8; THREADS * REGION];
    serial.read_span(0, &mut ser).unwrap();
    assert_eq!(ser, expect, "serial read path");
}

/// A whole-block writer and a one-record writer into the same block of
/// a 4-device stripe, 512 B records in 4 KiB blocks. The record's
/// read-modify-write holds its block, so no whole-block write lands
/// between its read and its write only to be undone by it: after every
/// round the bytes outside the record hold the last whole-block tag.
#[test]
fn a_record_write_never_undoes_a_whole_block_write() {
    const BLOCK: usize = 4096;
    const REC: usize = 512;
    const ROUNDS: u32 = 100;
    const WRITES: u32 = 100;
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 64,
        block_size: BLOCK,
    })
    .unwrap();
    let layout = LayoutSpec::Striped {
        devices: 4,
        unit: 1,
    };
    let spec = FileSpec::new("mixed", REC, BLOCK / REC, layout).initial_records(8);
    let f = v.create_file(spec).unwrap();
    let record = 3..4;
    let tagged = |tag: u32| tag.to_le_bytes().repeat(BLOCK / 4);
    let mut lost = Vec::new();
    for round in 0..ROUNDS {
        let tags = round * WRITES + 1..=(round + 1) * WRITES;
        std::thread::scope(|s| {
            s.spawn(|| {
                for tag in tags.clone() {
                    f.write_span(0, &tagged(tag)).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..WRITES {
                    f.write_record(record.start as u64, &[0xEE; REC]).unwrap();
                }
            });
        });
        let mut got = vec![0u8; BLOCK];
        f.read_span(0, &mut got).unwrap();
        let last = tagged(*tags.end());
        let outside = |b: &[u8]| [&b[..record.start * REC], &b[record.end * REC..]].concat();
        if outside(&got) != outside(&last) {
            lost.push(round);
        }
    }
    assert!(
        lost.is_empty(),
        "rounds {lost:?} lost their last whole-block write"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary populations of files survive a persistence round trip
    /// with identical metadata and content samples.
    #[test]
    fn persistence_round_trip_arbitrary_population(
        files in proptest::collection::vec(
            (1u64..40, 1u64..3, 0u8..3), 1..8
        ),
    ) {
        let devs = mem_array(3, 4096, BS);
        let expected: Vec<(String, u64)> = {
            let v = Volume::new(devs.clone()).unwrap();
            let mut expected = Vec::new();
            for (i, &(records, unit, kind)) in files.iter().enumerate() {
                let name = format!("file{i}");
                let layout = match kind {
                    0 => LayoutSpec::Striped { devices: 3, unit },
                    1 => LayoutSpec::Parity { data_devices: 2, rotated: true },
                    _ => LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped {
                        devices: 1,
                        unit,
                    })),
                };
                let f = v.create_file(FileSpec::new(&name, BS, 1, layout)).unwrap();
                for r in 0..records {
                    f.write_record(r, &vec![(r + i as u64) as u8; BS]).unwrap();
                }
                expected.push((name, records));
            }
            v.sync_meta().unwrap();
            expected
        };
        let v2 = Volume::mount(devs).unwrap();
        prop_assert_eq!(v2.list().len(), expected.len());
        let mut buf = vec![0u8; BS];
        for (i, (name, records)) in expected.iter().enumerate() {
            let f = v2.open(name).unwrap();
            prop_assert_eq!(f.len_records(), *records);
            for r in 0..*records {
                f.read_record(r, &mut buf).unwrap();
                prop_assert!(
                    buf.iter().all(|&b| b == (r + i as u64) as u8),
                    "{} record {}", name, r
                );
            }
        }
    }

    /// Interleaved create/remove cycles never leak or double-allocate.
    #[test]
    fn allocator_churn(ops in proptest::collection::vec((0u8..2, 1u64..60), 1..40)) {
        let v = vol();
        let baseline: u64 = v.free_blocks().iter().sum();
        let mut live: Vec<(String, u64)> = Vec::new();
        let mut counter = 0;
        for (op, records) in ops {
            if op == 0 || live.is_empty() {
                let name = format!("n{counter}");
                counter += 1;
                if v.create_file(
                    FileSpec::new(&name, BS, 1, LayoutSpec::Striped { devices: 4, unit: 1 })
                        .initial_records(records),
                )
                .is_ok()
                {
                    live.push((name, records));
                }
            } else {
                let (name, _) = live.swap_remove(0);
                v.remove(&name).unwrap();
            }
        }
        let used: u64 = live.iter().map(|(_, r)| *r).sum();
        let free: u64 = v.free_blocks().iter().sum();
        prop_assert_eq!(free, baseline - used);
        // And every surviving file still reads (its blocks were never
        // handed to anyone else).
        let mut buf = vec![0u8; BS];
        for (name, records) in &live {
            let f = v.open(name).unwrap();
            f.read_span(0, &mut buf).unwrap();
            prop_assert!(*records == 0 || f.nblocks() >= 1);
        }
    }
}
