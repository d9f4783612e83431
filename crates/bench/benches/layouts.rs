//! Microbenchmarks of the placement mathematics: `map`, `invert`, and
//! the planner are on every I/O path, so their cost bounds the
//! per-request software overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pario_layout::{plan, Layout, ParityPlacement, ParityStriped, Partitioned, Striped};

fn bench_map(c: &mut Criterion) {
    let striped = Striped::new(8, 4);
    let partitioned = Partitioned::uniform(1 << 20, 64, 8);
    let parity = ParityStriped::new(7, ParityPlacement::Rotated);
    let mut g = c.benchmark_group("layout_map");
    let cases: Vec<(&str, &dyn Layout)> = vec![
        ("striped", &striped),
        ("partitioned_64", &partitioned),
        ("parity_rotated", &parity),
    ];
    for (name, layout) in cases {
        g.bench_with_input(BenchmarkId::from_parameter(name), &layout, |b, l| {
            b.iter(|| {
                let mut acc = 0u64;
                for blk in (0..100_000u64).step_by(97) {
                    let p = l.map(blk);
                    acc = acc.wrapping_add(p.block + p.device as u64);
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_invert(c: &mut Criterion) {
    let striped = Striped::new(8, 4);
    c.bench_function("layout_invert_striped", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for blk in (0..100_000u64).step_by(97) {
                let p = striped.map(blk);
                acc = acc.wrapping_add(striped.invert(p.device, p.block).unwrap());
            }
            acc
        })
    });
}

fn bench_plan(c: &mut Criterion) {
    let striped = Striped::new(4, 16);
    let partitioned = Partitioned::uniform(65_536, 4, 4);
    let no_holes = |_: usize, _: u64| false;
    let mut g = c.benchmark_group("plan_64k_blocks");
    g.bench_function("striped", |b| {
        b.iter(|| plan(&striped, &[(0, 65_536)], no_holes).len())
    });
    g.bench_function("partitioned", |b| {
        b.iter(|| plan(&partitioned, &[(0, 65_536)], no_holes).len())
    });
    g.finish();
}

criterion_group!(benches, bench_map, bench_invert, bench_plan);
criterion_main!(benches);
