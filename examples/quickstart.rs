//! Quickstart: create a volume over four devices, write a self-scheduled
//! parallel file from multiple threads, read it back through both the
//! internal and the global (conventional sequential) views.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pario::core::{Organization, ParallelFile};
use pario::fs::{Volume, VolumeConfig};

fn main() {
    // A volume over 4 in-memory devices (swap in `FileDisk`s for
    // persistence — see the `persistence` integration test).
    let volume = Volume::create_in_memory(VolumeConfig {
        devices: 4,
        device_blocks: 1024,
        block_size: 4096,
    })
    .expect("volume");

    // A self-scheduled (type SS) file: any thread's write lands in the
    // globally next record slot.
    let pf = ParallelFile::create(
        &volume,
        "results.dat",
        Organization::SelfScheduledSeq,
        128, // record size
        32,  // records per file block
    )
    .expect("create");

    // Four worker threads produce 100 records total, racing freely.
    std::thread::scope(|s| {
        for worker in 0..4u8 {
            let w = pf.self_sched_writer().expect("SS writer");
            s.spawn(move || {
                for k in 0..25u32 {
                    let mut rec = vec![0u8; 128];
                    rec[0] = worker;
                    rec[1] = k as u8;
                    let slot = w.write_next(&rec).expect("write");
                    let _ = slot; // position chosen by the shared cursor
                }
            });
        }
    });
    pf.self_sched_writer().unwrap().finish().expect("finish");
    println!("wrote {} records from 4 threads", pf.len_records());

    // The internal view: claim records cooperatively.
    let reader = pf.self_sched_reader().expect("SS reader");
    let mut buf = vec![0u8; 128];
    let mut claimed = 0;
    while reader.read_next(&mut buf).expect("read").is_some() {
        claimed += 1;
    }
    println!("internal (SS) view claimed {claimed} records exactly once");

    // The global view: the same file as an ordinary sequential file, the
    // way an editor or print spooler would see it.
    let mut global = pf.global_reader();
    let mut per_worker = [0u32; 4];
    while global.read_record(&mut buf).expect("read") {
        per_worker[buf[0] as usize] += 1;
    }
    println!("global view totals per worker: {per_worker:?}");
    assert_eq!(per_worker.iter().sum::<u32>(), 100);
    println!("ok");
}
