//! Wrapped matrix storage — the paper's motivating workload for the
//! interleaved (IS) organization: "this organization would be useful for
//! wrapped storage of a matrix, for example."
//!
//! Three worker threads own the rows of a 12x8 matrix round-robin
//! (wrapped): worker p holds rows p, p+3, p+6, p+9. Each writes its rows
//! through its strided IS handle; the global view then shows the matrix
//! in plain row-major order for any sequential tool.
//!
//! ```sh
//! cargo run --example wrapped_matrix
//! ```

use pario::core::{Organization, ParallelFile};
use pario::fs::{Volume, VolumeConfig};
use pario::workloads::WrappedMatrix;

const ROWS: u64 = 12;
const COLS: u64 = 8;
const ELEM: usize = 64; // one record per matrix element

fn main() {
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 3, // one device per worker: private drives
        device_blocks: 1024,
        block_size: ELEM * COLS as usize, // one row = one volume block
    })
    .expect("volume");

    let m = WrappedMatrix {
        rows: ROWS,
        cols: COLS,
        processes: 3,
    };
    let pf = ParallelFile::create(
        &volume,
        "matrix",
        Organization::InterleavedSeq { processes: 3 },
        ELEM,
        COLS as usize, // one file block per row
    )
    .expect("create");

    // Each worker writes its wrapped rows concurrently.
    std::thread::scope(|s| {
        for p in 0..3u32 {
            let mut h = pf.interleaved_handle(p).expect("handle");
            let rows = m.rows_of(p);
            s.spawn(move || {
                for row in rows {
                    for col in 0..COLS {
                        let mut rec = vec![0u8; ELEM];
                        rec[..8].copy_from_slice(&m.element(row, col).to_le_bytes());
                        h.write_next(&rec).expect("write");
                    }
                }
            });
        }
    });
    println!(
        "3 workers wrote a {ROWS}x{COLS} matrix wrapped row-wise \
         ({} records)",
        pf.len_records()
    );

    // Because IS interleaves whole rows across the three drives, each
    // worker's rows sit on its own device:
    let layout = pf.raw().layout();
    for row in 0..ROWS {
        assert_eq!(layout.map(row).device, (row % 3) as usize);
    }
    println!("row r is stored on device r % 3 — a private drive per worker");

    // A sequential program reads the matrix in row-major order through
    // the global view, oblivious to the parallel structure.
    let mut g = pf.global_reader();
    let mut rec = vec![0u8; ELEM];
    print!("global view (first column of each row): ");
    for row in 0..ROWS {
        g.seek_record(row * COLS);
        assert!(g.read_record(&mut rec).expect("read"));
        let v = u64::from_le_bytes(rec[..8].try_into().unwrap());
        assert_eq!(v, m.element(row, 0));
        print!("{v} ");
    }
    println!("\nok");
}
