//! E3 — §4: "Some care is needed in the self-scheduled version to assure
//! proper synchronization without unduly serializing access. The use of
//! predictable length records reduces the problem, since file pointers
//! can be adjusted and buffer areas reserved early in an I/O call,
//! thereby allowing the next call from another process to proceed before
//! the actual data transfer from the first call has completed."
//!
//! Real threads read an SS file whose devices have a calibrated service
//! delay. The naive baseline (`pario_bench::naive_read_next`) holds one
//! lock across each whole I/O call; the library's two-phase reader
//! reserves the cursor atomically and transfers outside any lock. On a
//! single CPU the transfers still overlap because a thread waiting on a
//! device sleeps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pario_bench::table::{save_json, secs, Table};
use pario_bench::{banner, naive_read_next};
use pario_core::{Organization, ParallelFile};
use pario_disk::{DeviceRef, MemDisk};
use pario_fs::Volume;

const RECORD: usize = 4096;
const RECORDS: u64 = 96;
const DELAY: Duration = Duration::from_millis(2);

fn volume(devices: usize) -> Volume {
    let devs: Vec<DeviceRef> = (0..devices)
        .map(|i| {
            Arc::new(MemDisk::named(&format!("d{i}"), 512, RECORD).with_delay(DELAY)) as DeviceRef
        })
        .collect();
    Volume::new(devs).expect("volume")
}

fn run(threads: u32, naive: bool) -> Duration {
    let v = volume(4);
    let pf =
        ParallelFile::create(&v, "ss", Organization::SelfScheduledSeq, RECORD, 1).expect("create");
    // Fill without timing it.
    pf.raw().ensure_capacity_records(RECORDS).unwrap();
    for r in 0..RECORDS {
        pf.raw().write_record(r, &vec![r as u8; RECORD]).unwrap();
    }
    let cursor = std::sync::Mutex::new(0u64);
    let two_phase = pf.self_sched_reader().unwrap();
    let t0 = Instant::now();
    crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            let (pf, cursor, two_phase) = (&pf, &cursor, &two_phase);
            s.spawn(move |_| {
                let mut buf = vec![0u8; RECORD];
                let next = |buf: &mut [u8]| match naive {
                    true => naive_read_next(pf, cursor, buf),
                    false => two_phase.read_next(buf).unwrap(),
                };
                while let Some(idx) = next(&mut buf) {
                    assert_eq!(buf[0], idx as u8);
                }
            });
        }
    })
    .unwrap();
    t0.elapsed()
}

fn main() {
    banner(
        "E3 (self-scheduled synchronization)",
        "two-phase pointer reservation lets the next process proceed \
         before the previous transfer completes; a big lock unduly \
         serializes access",
    );
    println!(
        "{RECORDS} records of {RECORD} B on 4 devices with {:?} service \
         time per block\n",
        DELAY
    );
    let mut t = Table::new(&[
        "threads",
        "big-lock (naive)",
        "two-phase",
        "two-phase speedup",
    ]);
    for threads in [1u32, 2, 4, 8] {
        let naive = run(threads, true);
        let twophase = run(threads, false);
        t.row(&[
            threads.to_string(),
            secs(naive.as_secs_f64()),
            secs(twophase.as_secs_f64()),
            format!("{:.2}x", naive.as_secs_f64() / twophase.as_secs_f64()),
        ]);
    }
    t.print();
    save_json("e3_selfsched", &t);
    println!(
        "\nShape: with one thread the two are equal; as threads grow the \
         big lock pins throughput to one transfer at a time while \
         two-phase overlaps transfers across devices."
    );
}
