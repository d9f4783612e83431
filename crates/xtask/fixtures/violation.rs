//! Committed lint fixture: every rule of `cargo run -p xtask -- lint`
//! must fire on this file. `lint --self-test` (run in CI) fails the
//! build if any rule stops detecting its seeded violation below.
//!
//! This file is data for the lint self-test, not code: it is never
//! compiled (it lives outside any `src/` tree).

use std::sync::Mutex; // R1: std::sync::Mutex on the request path
use parking_lot::Mutex; // R1: a lock beside pario_check's
use std::sync::Condvar as _; // R1: std::sync::Condvar
use std::sync::RwLock as _; // R1: std::sync::RwLock
use std::sync::{Arc, Mutex}; // R1: a grouped std::sync::Mutex
use std::sync::{atomic::AtomicU64, Condvar}; // R1 R4: a grouped std::sync::Condvar and raw atomic
use std::sync::{
    atomic::{AtomicBool, Ordering}, // R4: a raw atomic in rustfmt's multi-line groups
    RwLock, // R1: std::sync::RwLock, one group down
};

struct Node {
    state: Mutex<Vec<u8>>,
}

fn spawn_worker() {
    let h = std::thread::spawn(|| {}); // R1: raw spawn, not a named Builder worker
    // R2: expect without an invariant comment.
    h.join().expect("worker never panics");
}

fn read_state(n: &Node) -> usize {
    // R2: unwrap without an invariant comment.
    let g = n.state.lock().unwrap();
    g.len()
}

fn inverted_locks(file: &File, vol: &Volume) {
    // R3: a file's logical blocks (fs.rmw, rank 60) are held first...
    let _blocks = file.blocks.acquire(0, 1);
    // ...and fs.alloc (rank 50) acquired under it: descending order.
    let _alloc = vol.alloc.lock();
}

fn gda_bytes_under_rows(file: &RawFile, entry: &FileEntry) {
    // R3: a file's device rows (fs.stripe, rank 70) are held...
    let _rows = file.lock_rows(0..4);
    // ...and the GDA byte-range table (rank 30) taken under them.
    let _bytes = entry.ranges.acquire(0, 4096);
}

fn worker_serves_under_its_queue(node: &Shared) {
    // R3: an I/O node's queue (disk.queue, rank 95) is held...
    let _queue = node.queue.lock();
    // ...and the device (disk.device, rank 90) taken under it: the
    // worker must pop its job and release the queue first.
    let _dev = node.device.lock();
}

use std::sync::atomic::AtomicU64; // R4: a raw std atomic type, invisible to the race detector

fn unjustified_relaxed(n: &AtomicU64) -> u64 {
    // R5: Relaxed with no justification comment.
    n.load(std::sync::atomic::Ordering::Relaxed)
}
