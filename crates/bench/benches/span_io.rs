//! Span I/O: per-block loop vs coalesced vectored runs vs coalesced
//! runs fanned out across devices, on memory devices with a modelled
//! per-request service time (the request-count-dominated 1989 regime).
//! The per-block lanes are not another path: `read_lblock` /
//! `write_lblock` are the span reader and writer handed one block at a
//! time, which is what leaves them nothing to coalesce.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use pario_disk::{DeviceRef, MemDisk};
use pario_fs::{FileSpec, RawFile, Volume};
use pario_layout::LayoutSpec;

const BS: usize = 4096;
const DEVICES: usize = 4;
const SPAN_BLOCKS: usize = 256; // 1 MiB
const DELAY: Duration = Duration::from_micros(5);

fn file() -> RawFile {
    let devs: Vec<DeviceRef> = (0..DEVICES)
        .map(|i| {
            Arc::new(MemDisk::named(&format!("m{i}"), 4096, BS).with_delay(DELAY)) as DeviceRef
        })
        .collect();
    let v = Volume::new(devs).unwrap();
    let f = v
        .create_file(FileSpec::new(
            "b",
            BS,
            1,
            LayoutSpec::Striped {
                devices: DEVICES,
                unit: 2,
            },
        ))
        .unwrap();
    let data = vec![3u8; SPAN_BLOCKS * BS];
    f.write_span(0, &data).unwrap();
    f
}

fn bench_span_read(c: &mut Criterion) {
    let f = file();
    let serial = f.clone().with_span_parallel(false);
    let mut g = c.benchmark_group("span_io");
    g.throughput(Throughput::Bytes((SPAN_BLOCKS * BS) as u64));
    g.sample_size(20);
    let mut out = vec![0u8; SPAN_BLOCKS * BS];
    g.bench_function("read_per_block", |b| {
        b.iter(|| {
            for l in 0..SPAN_BLOCKS {
                f.read_lblock(l as u64, &mut out[l * BS..(l + 1) * BS])
                    .unwrap();
            }
        })
    });
    g.bench_function("read_coalesced", |b| {
        b.iter(|| serial.read_span(0, &mut out).unwrap())
    });
    g.bench_function("read_coalesced_parallel", |b| {
        b.iter(|| f.read_span(0, &mut out).unwrap())
    });
    let data = vec![9u8; SPAN_BLOCKS * BS];
    g.bench_function("write_per_block", |b| {
        b.iter(|| {
            for l in 0..SPAN_BLOCKS {
                f.write_lblock(l as u64, &data[l * BS..(l + 1) * BS])
                    .unwrap();
            }
        })
    });
    g.bench_function("write_coalesced_parallel", |b| {
        b.iter(|| f.write_span(0, &data).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_span_read);
criterion_main!(benches);
