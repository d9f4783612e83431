//! E3 — §4: "Some care is needed in the self-scheduled version to assure
//! proper synchronization without unduly serializing access. The use of
//! predictable length records reduces the problem, since file pointers
//! can be adjusted and buffer areas reserved early in an I/O call,
//! thereby allowing the next call from another process to proceed before
//! the actual data transfer from the first call has completed."
//!
//! Real threads read an SS file whose devices have a calibrated service
//! delay. The naive baseline ([`naive_read_next`]) holds one
//! lock across each whole I/O call; the library's two-phase reader
//! reserves the cursor atomically and transfers outside any lock. On a
//! single CPU the transfers still overlap because a thread waiting on a
//! device sleeps.

use std::sync::Mutex;
use std::time::Duration;

use pario_core::{Organization, ParallelFile};

use crate::rig::{clients, fill, rec_byte, Rig};
use crate::table::{secs, Table};
use crate::{Report, Size};

const RECORD: usize = 4096;
const RECORDS: u64 = 96;
const DELAY: Duration = Duration::from_millis(2);

/// The foil of §4's "unduly serializing access": read the next unread
/// record of an SS file with `cursor`'s lock held across the whole I/O
/// call, file pointer and transfer alike. `None` at end of file. Built
/// here from public pieces — the library itself ships only the
/// two-phase reservation.
fn naive_read_next(pf: &ParallelFile, cursor: &Mutex<u64>, out: &mut [u8]) -> Option<u64> {
    let mut next = cursor.lock().expect("a reader panicked");
    let cur = *next;
    if cur >= pf.len_records() {
        return None;
    }
    pf.raw().read_record(cur, out).expect("read");
    *next = cur + 1;
    Some(cur)
}

/// Seconds `threads` readers take to drain the file.
fn drain(threads: u32, naive: bool) -> f64 {
    let v = Rig::new(4).blocks(512).delay(DELAY).volume();
    let pf =
        ParallelFile::create(&v, "ss", Organization::SelfScheduledSeq, RECORD, 1).expect("create");
    fill(&pf, RECORDS);
    let cursor = Mutex::new(0u64);
    let two_phase = pf.self_sched_reader().unwrap();
    clients(threads as usize, |_| {
        let mut buf = vec![0u8; RECORD];
        let next = |buf: &mut [u8]| match naive {
            true => naive_read_next(&pf, &cursor, buf),
            false => two_phase.read_next(buf).unwrap(),
        };
        while let Some(idx) = next(&mut buf) {
            assert_eq!(buf[0], rec_byte(idx));
        }
    })
}

/// The two readers' drain times against the thread count.
pub fn run(_: Size) -> Report {
    let mut r = Report::default();
    r.note(format!(
        "{RECORDS} records of {RECORD} B on 4 devices with {DELAY:?} service \
         time per block\n"
    ));
    let mut t = Table::new(&[
        "threads",
        "big-lock (naive)",
        "two-phase",
        "two-phase speedup",
    ]);
    for threads in [1u32, 2, 4, 8] {
        let naive = drain(threads, true);
        let twophase = drain(threads, false);
        t.row(&[
            threads.to_string(),
            secs(naive),
            secs(twophase),
            format!("{:.2}x", naive / twophase),
        ]);
    }
    r.table("e3_selfsched", t).note(
        "\nShape: with one thread the two are equal; as threads grow the \
         big lock pins throughput to one transfer at a time while \
         two-phase overlaps transfers across devices.",
    );
    r
}
