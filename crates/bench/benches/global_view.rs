//! Global-view record throughput (the sequential stream, reading ahead
//! and writing behind) as the device count grows — the wall-clock
//! companion to E2, on in-memory devices, so it measures the software
//! path: windowing, the hand-off, framing — and the cross-organization
//! conversion utility.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pario_core::{convert, Organization, ParallelFile};
use pario_fs::{GlobalWriter, Volume, VolumeConfig};

// 96-byte records deliberately straddle 4 KiB volume blocks, while
// 128 records per file block (12 KiB = 3 volume blocks) keeps the
// alignment the interleaved conversion target requires.
const RECORD: usize = 96;
const RPB: usize = 128;
const RECORDS: u64 = 4096;

fn vol(devices: usize) -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices,
        device_blocks: 4096,
        block_size: 4096,
    })
    .unwrap()
}

fn fill(pf: &ParallelFile) -> u64 {
    let mut w = GlobalWriter::truncate(pf.raw().clone()).unwrap();
    let rec = vec![5u8; RECORD];
    for _ in 0..RECORDS {
        w.write_record(&rec).unwrap();
    }
    w.finish().unwrap()
}

/// Write and read passes of 4096 records over 1 to 8 devices.
fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("global_view");
    g.throughput(Throughput::Bytes(RECORDS * RECORD as u64));
    g.sample_size(20);
    for devices in [1usize, 2, 4, 8] {
        let v = vol(devices);
        let pf = ParallelFile::create(&v, "s", Organization::Sequential, RECORD, RPB).unwrap();
        g.bench_with_input(BenchmarkId::new("write_records", devices), &pf, |b, pf| {
            b.iter(|| fill(pf))
        });
        g.bench_with_input(BenchmarkId::new("read_records", devices), &pf, |b, pf| {
            b.iter(|| pf.global_reader().for_each(|_, _| {}).unwrap())
        });
    }
    g.finish();
}

fn bench_convert(c: &mut Criterion) {
    let v = vol(4);
    let src = ParallelFile::create(&v, "src", Organization::Sequential, RECORD, RPB).unwrap();
    fill(&src);
    let mut g = c.benchmark_group("convert");
    g.throughput(Throughput::Bytes(RECORDS * RECORD as u64));
    g.sample_size(10);
    let mut i = 0u32;
    g.bench_function("seq_to_is", |b| {
        b.iter(|| {
            i += 1;
            let name = format!("dst{i}");
            let dst = convert(
                &v,
                &src,
                &name,
                Organization::InterleavedSeq { processes: 4 },
            )
            .unwrap();
            let n = dst.len_records();
            v.remove(&name).unwrap();
            n
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stream, bench_convert);
criterion_main!(benches);
