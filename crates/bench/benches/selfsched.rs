//! Wall-clock companion to E3: two-phase vs big-lock self-scheduling
//! under thread contention on in-memory devices (measures the pure
//! synchronization cost; the device-delay version lives in
//! `exp_e3_selfsched`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pario_bench::naive_read_next;
use pario_core::{Organization, ParallelFile};
use pario_fs::{Volume, VolumeConfig};

const RECORD: usize = 512;
const RECORDS: u64 = 2048;

fn make_file() -> ParallelFile {
    let v = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: RECORD,
    })
    .unwrap();
    let pf = ParallelFile::create(&v, "ss", Organization::SelfScheduledSeq, RECORD, 1).unwrap();
    pf.raw().ensure_capacity_records(RECORDS).unwrap();
    for r in 0..RECORDS {
        pf.raw().write_record(r, &vec![r as u8; RECORD]).unwrap();
    }
    pf
}

fn drain(pf: &ParallelFile, threads: u32, naive: bool) -> u64 {
    // Fresh cursor per drain: reopen the file handle.
    let pf = ParallelFile::open(pf.raw().volume(), "ss").unwrap();
    let served = std::sync::atomic::AtomicU64::new(0);
    let cursor = std::sync::Mutex::new(0u64);
    let two_phase = pf.self_sched_reader().unwrap();
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            let (pf, cursor, two_phase, served) = (&pf, &cursor, &two_phase, &served);
            s.spawn(move |_| {
                let mut buf = vec![0u8; RECORD];
                let next = |buf: &mut [u8]| match naive {
                    true => naive_read_next(pf, cursor, buf),
                    false => two_phase.read_next(buf).unwrap(),
                };
                while next(&mut buf).is_some() {
                    served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    })
    .unwrap();
    served.load(std::sync::atomic::Ordering::Relaxed)
}

fn bench(c: &mut Criterion) {
    let pf = make_file();
    let mut g = c.benchmark_group("selfsched_drain");
    g.throughput(Throughput::Elements(RECORDS));
    g.sample_size(15);
    for threads in [1u32, 4] {
        g.bench_with_input(BenchmarkId::new("two_phase", threads), &threads, |b, &t| {
            b.iter(|| drain(&pf, t, false))
        });
        g.bench_with_input(BenchmarkId::new("big_lock", threads), &threads, |b, &t| {
            b.iter(|| drain(&pf, t, true))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
