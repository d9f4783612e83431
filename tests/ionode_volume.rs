//! Integration: an entire volume operated behind dedicated I/O
//! processors (one node thread per drive, the paper's §4 suggestion:
//! every volume's executor) — every organization works unchanged, and
//! the node queues observe the traffic.

use pario::core::{Organization, ParallelFile};
use pario::disk::mem_array;
use pario::fs::Volume;
use pario::workloads::record_payload;

#[test]
fn full_stack_behind_io_processors() {
    let v = Volume::new(mem_array(4, 1024, 512)).unwrap();

    // A self-scheduled file written by racing threads, all I/O flowing
    // through the node threads.
    let pf = ParallelFile::create(&v, "q", Organization::SelfScheduledSeq, 128, 4).unwrap();
    crossbeam::thread::scope(|s| {
        for _ in 0..4 {
            let w = pf.self_sched_writer().unwrap();
            s.spawn(move |_| {
                for _ in 0..30 {
                    let idx = w.write_next(&[0u8; 128]).unwrap();
                    let _ = idx;
                }
            });
        }
    })
    .unwrap();
    pf.self_sched_writer().unwrap().finish().unwrap();
    assert_eq!(pf.len_records(), 120);
    for i in 0..120u64 {
        pf.raw().write_record(i, &record_payload(i, 128)).unwrap();
    }

    // Read back through the global view.
    let mut r = pf.global_reader();
    let mut buf = vec![0u8; 128];
    let mut i = 0u64;
    while r.read_record(&mut buf).unwrap() {
        assert_eq!(buf, record_payload(i, 128));
        i += 1;
    }
    assert_eq!(i, 120);

    // Every node serviced traffic; queues drained.
    let s = v.executor_stats();
    assert!(s.serviced > 0, "executor idle");
    assert_eq!(s.in_flight, 0, "executor queues not drained");
    for d in 0..v.num_devices() {
        let s = v.io_device(d).ionode_stats().unwrap();
        assert!(s.serviced > 0, "node {d} idle");
    }
}
