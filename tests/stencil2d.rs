//! Integration: a 2-D Jacobi relaxation over a row-partitioned PS file —
//! the full boundary-data workflow of the paper's §5 on a workload one
//! dimension up from E10. Each worker owns a band of rows (one record
//! per row), exchanges halo rows through the file each pass, and the
//! final grid is bit-identical to the sequential reference.

use pario::core::{read_partition_with_halo, Organization, ParallelFile};
use pario::fs::{Volume, VolumeConfig};
use pario::workloads::Stencil2D;

const ROWS: usize = 64;
const COLS: usize = 16;
const RECORD: usize = COLS * 8; // one row per record (128 B)
const PARTS: u32 = 4;
const PASSES: u32 = 3;

#[test]
fn row_partitioned_2d_stencil_matches_reference() {
    let v = Volume::create_in_memory(VolumeConfig {
        devices: PARTS as usize,
        device_blocks: 2048,
        block_size: RECORD * 2, // 2 rows per volume block
    })
    .unwrap();
    let s0 = Stencil2D::random(ROWS, COLS, 77);
    let reference = s0.run(PASSES);

    let org = Organization::PartitionedSeq { partitions: PARTS };
    let pf = ParallelFile::create_sized(&v, "grid", org, RECORD, 2, ROWS as u64).unwrap();
    for p in 0..PARTS {
        let mut h = pf.partition_handle(p).unwrap();
        let (lo, hi) = h.range();
        for r in lo..hi {
            h.write_next(&s0.row_record(r as usize, RECORD)).unwrap();
        }
    }

    for _pass in 0..PASSES {
        // Read phase: every worker loads its band plus one halo row per
        // side (all reads before any writes — Jacobi semantics).
        let regions: Vec<_> = (0..PARTS)
            .map(|p| read_partition_with_halo(&pf, p, 1).unwrap())
            .collect();
        // Compute + write phase.
        for region in regions {
            let (lo, hi) = region.own_range();
            let first = region.first_record();
            let held = region.len_records();
            let row = |r: i64| -> Vec<f64> {
                let r = r.clamp(first as i64, (first + held - 1) as i64) as u64;
                Stencil2D::parse_row(region.record(r), COLS)
            };
            let p = (0..PARTS)
                .find(|&p| pf.partition_record_range(p).unwrap() == (lo, hi))
                .unwrap();
            let h = pf.partition_handle(p).unwrap();
            for r in lo..hi {
                let up = if r == 0 { row(0) } else { row(r as i64 - 1) };
                let mid = row(r as i64);
                let down = if r as usize + 1 == ROWS {
                    row(r as i64)
                } else {
                    row(r as i64 + 1)
                };
                let mut out = vec![0u8; RECORD];
                for c in 0..COLS {
                    let left = mid[c.saturating_sub(1)];
                    let right = mid[(c + 1).min(COLS - 1)];
                    let val = (mid[c] + up[c] + down[c] + left + right) / 5.0;
                    out[c * 8..(c + 1) * 8].copy_from_slice(&val.to_le_bytes());
                }
                h.write_record(r, &out).unwrap();
            }
        }
    }

    // Compare the whole grid against the sequential reference.
    let mut g = pf.global_reader();
    let mut rec = vec![0u8; RECORD];
    let mut r = 0usize;
    while g.read_record(&mut rec).unwrap() {
        let row = Stencil2D::parse_row(&rec, COLS);
        for (c, &got) in row.iter().enumerate() {
            let want = reference.cells[r * COLS + c];
            assert!((got - want).abs() < 1e-9, "cell ({r},{c}): {got} vs {want}");
        }
        r += 1;
    }
    assert_eq!(r, ROWS);
}
