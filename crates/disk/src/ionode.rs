//! Dedicated I/O processors with asynchronous submission.
//!
//! The paper's §4 prescribes "multiple buffering and dedicated I/O
//! processors" — in a 1989 multiprocessor, processors set aside to do
//! nothing but move data between compute nodes and drives. [`IoNode`] is
//! that component: it owns one device, services requests from a queue on
//! its own persistent worker thread, and reports queue statistics.
//! [`IoNode::device`] yields a [`BlockDevice`] handle that transparently
//! routes through the node, so an entire volume can be put behind I/O
//! processors without any layer above noticing.
//!
//! **Asynchronous submission** makes the node an *executor* rather than
//! a proxy: [`BlockDevice::submit_read_blocks`] /
//! [`BlockDevice::submit_write_blocks`] on a node handle enqueue the
//! transfer and return a [`Ticket`] immediately; the caller collects the
//! result with [`Ticket::wait`]. Span I/O submits every per-device run
//! up front and blocks only on completion — no thread is ever spawned
//! per request. The worker serves its channel in arrival order; a
//! caller that must order two transfers waits the first ticket before
//! submitting the second.
//!
//! **Caller-runs on an idle node** is the executor's one dispatch
//! decision. A dedicated processor buys overlap between compute and
//! transfer; a *blocking* call ([`BlockDevice::read_blocks_at`],
//! `write_blocks_at` — which the single-block calls reach — or `flush`
//! on a node handle) has no overlap to buy, so when nothing is queued or in
//! service the calling thread claims the node, runs the transfer itself
//! straight on the caller's slice — the same `service` routine the worker
//! runs — and releases it: no boxed buffer, no reply channel, no
//! wake-up. With anything queued or in service the call queues as a
//! submission would, behind everything already there. The device lock
//! keeps the invariant either way: one transfer at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use pario_check::{AtomicU64, LockLevel, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use crate::device::{BlockDevice, DeviceRef, IoCounters};
use crate::error::{DiskError, Result};

/// A pending asynchronous I/O completion.
///
/// Returned by [`BlockDevice::submit_read_blocks`] and
/// [`BlockDevice::submit_write_blocks`]. Dropping a ticket abandons the
/// result but not the operation: a transfer already queued on an
/// [`IoNode`] still executes.
#[must_use = "a ticket does nothing until waited on"]
pub struct Ticket<T> {
    inner: TicketInner<T>,
}

enum TicketInner<T> {
    Ready(Result<T>),
    Pending(Receiver<Result<T>>),
}

impl<T> Ticket<T> {
    /// A ticket that is already complete — what synchronous devices
    /// return from the submit API.
    pub fn ready(res: Result<T>) -> Ticket<T> {
        Ticket {
            inner: TicketInner::Ready(res),
        }
    }

    fn pending(rx: Receiver<Result<T>>) -> Ticket<T> {
        Ticket {
            inner: TicketInner::Pending(rx),
        }
    }

    /// Block until the operation completes and take its result.
    pub fn wait(self) -> Result<T> {
        match self.inner {
            TicketInner::Ready(res) => res,
            TicketInner::Pending(rx) => recv_reply(&rx),
        }
    }

    /// Wait for whichever of two tickets completes first — the hedged
    /// read: submit the same data from two replicas and take the faster.
    ///
    /// Returns every outcome observed, in argument order, so the caller
    /// can tell which replica answered. The first `Ok` wins and the
    /// loser is abandoned, reported as `None` (its operation still
    /// executes; see the [`Ticket`] drop contract). If the faster
    /// completion failed, the slower ticket is awaited as the fallback,
    /// so at most one entry is `Ok` and at least one is `Some`.
    pub fn race(a: Ticket<T>, b: Ticket<T>) -> [Option<Result<T>>; 2] {
        /// `first` is the earlier completion, of argument `slot`.
        fn settle<T>(slot: usize, first: Result<T>, slower: Ticket<T>) -> [Option<Result<T>>; 2] {
            let second = first.is_err().then(|| slower.wait());
            if slot == 0 {
                [Some(first), second]
            } else {
                [second, Some(first)]
            }
        }
        match (a.inner, b.inner) {
            (TicketInner::Ready(res), other) => settle(0, res, Ticket { inner: other }),
            (other, TicketInner::Ready(res)) => settle(1, res, Ticket { inner: other }),
            (TicketInner::Pending(ra), TicketInner::Pending(rb)) => {
                // Alternate short timed receives between the two replies.
                // The ~50us granularity is noise next to the queue wait
                // that makes hedging worthwhile in the first place.
                use crossbeam::channel::RecvTimeoutError;
                let step = std::time::Duration::from_micros(50);
                let dropped = || Err(DiskError::Io("I/O node dropped request".into()));
                loop {
                    match ra.recv_timeout(step) {
                        Ok(res) => return settle(0, res, Ticket::pending(rb)),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => {
                            return settle(0, dropped(), Ticket::pending(rb));
                        }
                    }
                    match rb.recv_timeout(step) {
                        Ok(res) => return settle(1, res, Ticket::pending(ra)),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => {
                            return settle(1, dropped(), Ticket::pending(ra));
                        }
                    }
                    pario_check::yield_now(); // see `recv_reply`
                }
            }
        }
    }
}

/// Block for a queued request's reply.
///
/// Under the model checker a thread must not real-block here: the
/// worker that will send the reply may be waiting for the device lock of
/// a caller-runs transfer whose (model) thread only resumes when this
/// one yields. Model threads therefore poll, yielding between polls;
/// in normal builds `yield_now` is a constant `false` and this is a
/// plain `recv`.
fn recv_reply<T>(rx: &Receiver<Result<T>>) -> Result<T> {
    use crossbeam::channel::RecvTimeoutError;
    let dropped = || DiskError::Io("I/O node dropped request".into());
    while pario_check::yield_now() {
        match rx.recv_timeout(Duration::from_micros(50)) {
            Ok(res) => return res,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return Err(dropped()),
        }
    }
    rx.recv().map_err(|_| dropped())?
}

/// A request plus the instant it entered the queue, so the worker can
/// attribute elapsed time to queueing vs. device service.
struct Queued {
    enqueued: Instant,
    req: Request,
}

/// Every transfer is vectored: single-block operations are one-block
/// spans (the wrapped device's vectored path charges them identically).
/// Replies carry the buffer back so callers can reuse it.
enum Request {
    Read {
        block: u64,
        buf: Box<[u8]>,
        reply: Sender<Result<Box<[u8]>>>,
    },
    Write {
        block: u64,
        data: Box<[u8]>,
        reply: Sender<Result<Box<[u8]>>>,
    },
    Flush {
        reply: Sender<Result<()>>,
    },
}

/// One transfer as the device sees it, borrowing its buffer from whoever
/// owns it: the queued request (worker) or the caller's own slice
/// (caller-runs).
enum Op<'a> {
    Read { block: u64, buf: &'a mut [u8] },
    Write { block: u64, data: &'a [u8] },
    Flush,
}

/// Device, stats and geometry shared between the node, its worker
/// thread, and every device handle. Deliberately does NOT hold the
/// request sender: the channel closes (and the worker exits, after
/// draining everything already queued) when the node and all handles are
/// gone.
struct Shared {
    /// The wrapped device. Whoever holds this lock — the worker or a
    /// caller running inline — is servicing the node's one transfer.
    device: Mutex<DeviceRef>,
    /// Requests queued or in service, inline transfers included. Zero is
    /// the idle node a blocking call may claim (see `claim_idle`).
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    serviced: AtomicU64,
    queue_wait_nanos: AtomicU64,
    service_nanos: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
    block_size: usize,
    num_blocks: u64,
    label: String,
}

impl Shared {
    fn snapshot(&self) -> IoNodeStats {
        IoNodeStats {
            serviced: self.serviced.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            in_flight: self.in_flight.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            queue_wait_nanos: self.queue_wait_nanos.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            service_nanos: self.service_nanos.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            retries: self.retries.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
            timeouts: 0,
            panics: self.panics.load(Ordering::Relaxed), // ordering: diagnostic snapshot; staleness is acceptable
        }
    }
}

/// Retries of a transient fault after the first attempt. A fault that
/// [`DiskError::is_transient`] calls retryable is retried in place, with
/// exponential backoff, before the error reaches the caller: the layers
/// above only ever see transients that survived the whole budget.
const MAX_RETRIES: u32 = 3;

/// Backoff before the first retry; it doubles on each further one.
const RETRY_BACKOFF: Duration = Duration::from_micros(20);

/// A dedicated I/O processor serving one device.
///
/// The worker thread runs until the node and every handle from
/// [`IoNode::device`] have been dropped, then drains whatever is still
/// queued before exiting — shutdown never abandons an accepted request.
pub struct IoNode {
    shared: Arc<Shared>,
    queue_tx: Sender<Queued>,
}

/// Queue statistics for an I/O node.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IoNodeStats {
    /// Requests serviced since the node started.
    pub serviced: u64,
    /// Requests queued or in service right now.
    pub in_flight: u64,
    /// The deepest the queue has been.
    pub max_in_flight: u64,
    /// Cumulative nanoseconds serviced requests spent waiting in the
    /// queue before the worker picked them up.
    pub queue_wait_nanos: u64,
    /// Cumulative nanoseconds the worker spent inside device transfers.
    pub service_nanos: u64,
    /// Transient faults retried in place, with backoff, before the
    /// error would reach the caller.
    pub retries: u64,
    /// Always 0: the executor sets no deadline on a request. A device
    /// may still answer [`DiskError::Timeout`] itself; that error
    /// reaches the caller and is not counted here.
    pub timeouts: u64,
    /// Device operations that panicked; each failed only its own ticket.
    pub panics: u64,
}

impl IoNodeStats {
    /// Accumulate another node's statistics into this one (`in_flight`
    /// and totals add; `max_in_flight` takes the deeper queue).
    pub fn absorb(&mut self, other: IoNodeStats) {
        self.serviced += other.serviced;
        self.in_flight += other.in_flight;
        self.max_in_flight = self.max_in_flight.max(other.max_in_flight);
        self.queue_wait_nanos += other.queue_wait_nanos;
        self.service_nanos += other.service_nanos;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.panics += other.panics;
    }
}

impl IoNode {
    /// Spawn an I/O processor thread owning `inner`.
    pub fn spawn(inner: DeviceRef) -> IoNode {
        let (queue_tx, queue_rx): (Sender<Queued>, Receiver<Queued>) = unbounded();
        let shared = Arc::new(Shared {
            block_size: inner.block_size(),
            num_blocks: inner.num_blocks(),
            label: format!("ionode({})", inner.label()),
            device: Mutex::new_named(inner, LockLevel::DiskDevice),
            in_flight: AtomicU64::new(0),
            max_in_flight: AtomicU64::new(0),
            serviced: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            service_nanos: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pario-ionode".into())
            .spawn(move || worker(&worker_shared, &queue_rx))
            // invariant: spawn fails only on OS thread exhaustion at startup.
            .expect("spawn I/O node thread");
        IoNode { shared, queue_tx }
    }

    /// A [`BlockDevice`] handle that routes through this node's queue.
    pub fn device(&self) -> DeviceRef {
        Arc::new(IoNodeDevice {
            shared: Arc::clone(&self.shared),
            queue_tx: self.queue_tx.clone(),
        })
    }

    /// Current queue statistics.
    pub fn stats(&self) -> IoNodeStats {
        self.shared.snapshot()
    }
}

/// The worker loop: for each request in arrival order, take the device
/// and service it — until node and handles are gone AND the channel is
/// drained (`recv` keeps yielding queued requests after every sender is
/// gone, so shutdown never abandons the backlog).
fn worker(shared: &Shared, queue_rx: &Receiver<Queued>) {
    while let Ok(Queued { enqueued, req }) = queue_rx.recv() {
        let dev = shared.device.lock();
        match req {
            Request::Read {
                block,
                mut buf,
                reply,
            } => {
                let op = Op::Read {
                    block,
                    buf: &mut buf,
                };
                let res = service(shared, dev, Some(enqueued), op).map(|()| buf);
                let _ = reply.send(res);
            }
            Request::Write { block, data, reply } => {
                let op = Op::Write { block, data: &data };
                let res = service(shared, dev, Some(enqueued), op).map(|()| data);
                let _ = reply.send(res);
            }
            Request::Flush { reply } => {
                let _ = reply.send(service(shared, dev, Some(enqueued), Op::Flush));
            }
        }
    }
}

/// Service one transfer on the device `dev` guards, then release it —
/// the single routine behind the worker and the caller-runs path, so the
/// retry/backoff and panic policy ([`execute`]) and every
/// [`IoNodeStats`] counter are kept in exactly one place.
/// `waiting_since` is when the request started waiting for the device —
/// its submission, for a queued one; `None` if it never waited.
fn service(
    shared: &Shared,
    dev: MutexGuard<'_, DeviceRef>,
    waiting_since: Option<Instant>,
    op: Op<'_>,
) -> Result<()> {
    let started = Instant::now();
    let enqueued = waiting_since.unwrap_or(started);
    let res = match op {
        Op::Read { block, buf } => execute(shared, || dev.read_blocks_at(block, buf)),
        Op::Write { block, data } => execute(shared, || dev.write_blocks_at(block, data)),
        Op::Flush => execute(shared, || dev.flush()),
    };
    let service_nanos = started.elapsed().as_nanos() as u64;
    drop(dev);
    // Stats are settled BEFORE the result is handed back, so a client
    // that observes its request complete also observes it counted.
    shared.serviced.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
    let wait_nanos = (started - enqueued).as_nanos() as u64;
    shared
        .queue_wait_nanos
        .fetch_add(wait_nanos, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
    shared
        .service_nanos
        .fetch_add(service_nanos, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
    shared.in_flight.fetch_sub(1, Ordering::Relaxed); // ordering: routing hint and stats gauge; completion is published by the return or the ticket
    res
}

/// Run one device operation under the node's fault policy: transient
/// errors are retried with exponential backoff up to [`MAX_RETRIES`]
/// times, and a panicking device op fails only its own request — it is
/// reported as an I/O error and the node keeps serving.
fn execute<T>(shared: &Shared, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt: u32 = 0;
    loop {
        match catch_unwind(AssertUnwindSafe(&mut op)) {
            Ok(Ok(v)) => return Ok(v),
            Ok(Err(e)) if e.is_transient() && attempt < MAX_RETRIES => {
                shared.retries.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
                std::thread::sleep(RETRY_BACKOFF * (1u32 << attempt));
                attempt += 1;
            }
            Ok(Err(e)) => return Err(e),
            Err(_) => {
                shared.panics.fetch_add(1, Ordering::Relaxed); // ordering: monotonic stats counter; read only by diagnostic snapshots
                return Err(DiskError::Io(format!(
                    "device operation panicked in {}",
                    shared.label
                )));
            }
        }
    }
}

/// `sched_yield`s after a caller-runs transfer, in a process confined to
/// one CPU. Elsewhere there are none.
///
/// They are debt, owed to the gated benchmark rather than to any
/// workload: it logs 4 bytes per completed op and reports the log inside
/// `peak_rss_mb`, so past roughly 2.5x `ops_per_s` on `gda-inproc` the
/// log alone breaks that metric's 0.25 bound (one yield: 3.9x and +36 %
/// RSS; none: 6.5x and +65 %), and a change that claims a gain may not
/// edit the benchmark. Once the log is bounded this constant goes
/// (ROADMAP item 1). See DESIGN §7.
///
/// Fairness on a shared CPU is not their job. An inline transfer never
/// blocks, where a hand-off blocked its caller twice, so an op made of
/// hundreds of transfers (a parity span's read-modify-write) would keep
/// the CPU from peers that wait on wake-ups; `pario-fs` keeps such ops
/// on the submit path instead.
const INLINE_YIELDS: usize = 3;

/// Whether the process may run on one CPU only (affinity mask or cgroup
/// quota). Asked once: a later change of affinity is not seen.
fn single_cpu() -> bool {
    static ONE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ONE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

struct IoNodeDevice {
    shared: Arc<Shared>,
    queue_tx: Sender<Queued>,
}

impl IoNodeDevice {
    fn enqueue(&self, req: Request) -> Result<()> {
        let inflight = self.shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1; // ordering: stats gauge; the queue channel orders the hand-off
        self.shared
            .max_in_flight
            .fetch_max(inflight, Ordering::Relaxed); // ordering: monotonic high-water mark, diagnostic only
        self.queue_tx
            .send(Queued {
                enqueued: Instant::now(),
                req,
            })
            .map_err(|_| {
                self.shared.in_flight.fetch_sub(1, Ordering::Relaxed); // ordering: stats gauge; the send failed, nothing was handed off
                DiskError::Io("I/O node stopped".into())
            })
    }

    /// Caller-runs admission: claim the node only if nothing at all is
    /// queued or in service — the claim is the 0 -> 1 step of the same
    /// gauge submissions count themselves into, so from here until the
    /// transfer completes every other call sees a busy node and queues.
    /// Returns the device and, if the claim had to wait for it, since
    /// when; hand both to [`service`]. A call that finds the node busy
    /// gets `None` and must queue, which is what keeps a blocking call
    /// from overtaking a backlog.
    fn claim_idle(&self) -> Option<(MutexGuard<'_, DeviceRef>, Option<Instant>)> {
        let gauge = &self.shared.in_flight;
        // ordering: routing decision only — RMWs read the latest count, and the device lock below orders the transfers themselves
        let idle = gauge.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
        idle.ok()?;
        // ordering: monotonic high-water mark, diagnostic only
        self.shared.max_in_flight.fetch_max(1, Ordering::Relaxed);
        if let Some(dev) = self.shared.device.try_lock() {
            return Some((dev, None));
        }
        // A submission slipped in after the claim and the worker got to
        // the device first: this transfer runs second, and its wait
        // counts as queue wait like any queued request's.
        let since = Instant::now();
        Some((self.shared.device.lock(), Some(since)))
    }

    /// Caller-runs: service `op` on the calling thread if the node is
    /// idle, then pay the scheduling points a hand-off would have been
    /// (see [`INLINE_YIELDS`]). `None` means the node is busy and the
    /// call must queue.
    fn run_inline(&self, op: Op<'_>) -> Option<Result<()>> {
        let (dev, waiting_since) = self.claim_idle()?;
        let res = service(&self.shared, dev, waiting_since, op);
        if single_cpu() {
            for _ in 0..INLINE_YIELDS {
                std::thread::yield_now();
            }
        }
        Some(res)
    }

    fn whole_blocks(&self, len: usize) {
        assert_eq!(
            len % self.shared.block_size,
            0,
            "buffer must be a whole number of blocks"
        );
    }
}

impl BlockDevice for IoNodeDevice {
    fn block_size(&self) -> usize {
        self.shared.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.shared.num_blocks
    }

    /// One request for the whole run, serviced by the wrapped device's
    /// own vectored path: inline into `buf` on an idle node, queued (and
    /// copied back) behind anything already there.
    fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.whole_blocks(buf.len());
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(res) = self.run_inline(Op::Read { block, buf }) {
            return res;
        }
        let data = self
            .submit_read_blocks(block, vec![0u8; buf.len()].into_boxed_slice())
            .wait()?;
        buf.copy_from_slice(&data);
        Ok(())
    }

    /// One request for the whole run: inline from `data` on an idle
    /// node, queued behind anything already there.
    fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
        self.whole_blocks(data.len());
        if data.is_empty() {
            return Ok(());
        }
        if let Some(res) = self.run_inline(Op::Write { block, data }) {
            return res;
        }
        self.submit_write_blocks(block, data.to_vec().into_boxed_slice())
            .wait()
            .map(|_| ())
    }

    /// True asynchronous submission: the request is queued and the
    /// ticket completes when the worker services it.
    fn submit_read_blocks(&self, block: u64, buf: Box<[u8]>) -> Ticket<Box<[u8]>> {
        self.whole_blocks(buf.len());
        if buf.is_empty() {
            return Ticket::ready(Ok(buf));
        }
        let (tx, rx) = bounded(1);
        match self.enqueue(Request::Read {
            block,
            buf,
            reply: tx,
        }) {
            Ok(()) => Ticket::pending(rx),
            Err(e) => Ticket::ready(Err(e)),
        }
    }

    fn submit_write_blocks(&self, block: u64, data: Box<[u8]>) -> Ticket<Box<[u8]>> {
        self.whole_blocks(data.len());
        if data.is_empty() {
            return Ticket::ready(Ok(data));
        }
        let (tx, rx) = bounded(1);
        match self.enqueue(Request::Write {
            block,
            data,
            reply: tx,
        }) {
            Ok(()) => Ticket::pending(rx),
            Err(e) => Ticket::ready(Err(e)),
        }
    }

    fn flush(&self) -> Result<()> {
        if let Some(res) = self.run_inline(Op::Flush) {
            return res;
        }
        let (tx, rx) = bounded(1);
        self.enqueue(Request::Flush { reply: tx })?;
        recv_reply(&rx)
    }

    fn counters(&self) -> IoCounters {
        // Detailed read/write counters remain on the wrapped device; the
        // node tracks queue statistics instead.
        IoCounters::default()
    }

    fn ionode_stats(&self) -> Option<IoNodeStats> {
        Some(self.shared.snapshot())
    }

    /// Failure injection belongs to the wrapped device, not the node.
    fn fail(&self) {}

    fn heal(&self) {}

    fn is_failed(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        self.shared.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemDisk;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Condvar, Mutex as StdMutex};

    /// Test device: panics if two transfers ever overlap, logs the first
    /// block of every write in service order, and holds the first
    /// transfer on `gate_block` until [`Probe::release`] — which pins
    /// whoever services it (the worker, for a submitted request).
    struct Probe {
        inner: DeviceRef,
        busy: AtomicBool,
        gate_block: u64,
        /// (entered, released)
        gate: StdMutex<(bool, bool)>,
        cv: Condvar,
        order: StdMutex<Vec<u64>>,
    }

    /// Clears `busy` when the transfer ends, panics included.
    struct Idle<'a>(&'a AtomicBool);

    impl Drop for Idle<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::SeqCst);
        }
    }

    impl Probe {
        /// `gate_block` past the end of the device means "no gate".
        fn new(inner: DeviceRef, gate_block: u64) -> Arc<Probe> {
            Arc::new(Probe {
                inner,
                busy: AtomicBool::new(false),
                gate_block,
                gate: StdMutex::new((false, false)),
                cv: Condvar::new(),
                order: StdMutex::new(Vec::new()),
            })
        }

        fn wait_entered(&self) {
            let mut g = self.gate.lock().unwrap();
            while !g.0 {
                g = self.cv.wait(g).unwrap();
            }
        }

        fn release(&self) {
            self.gate.lock().unwrap().1 = true;
            self.cv.notify_all();
        }

        fn serve<T>(&self, block: u64, f: impl FnOnce() -> T) -> T {
            assert!(
                !self.busy.swap(true, Ordering::SeqCst),
                "two transfers overlap on one device"
            );
            let _idle = Idle(&self.busy);
            if block == self.gate_block {
                let mut g = self.gate.lock().unwrap();
                if !g.0 {
                    g.0 = true;
                    self.cv.notify_all();
                    while !g.1 {
                        g = self.cv.wait(g).unwrap();
                    }
                }
            }
            f()
        }
    }

    impl BlockDevice for Probe {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
            self.serve(block, || self.inner.read_blocks_at(block, buf))
        }
        fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
            self.serve(block, || {
                self.order.lock().unwrap().push(block);
                self.inner.write_blocks_at(block, data)
            })
        }
        fn flush(&self) -> Result<()> {
            self.serve(u64::MAX, || self.inner.flush())
        }
        fn counters(&self) -> IoCounters {
            self.inner.counters()
        }
        fn fail(&self) {
            self.inner.fail()
        }
        fn heal(&self) {
            self.inner.heal()
        }
        fn is_failed(&self) -> bool {
            self.inner.is_failed()
        }
    }

    /// A device that panics on reads that cover a chosen block.
    struct Landmine(MemDisk, u64);

    impl BlockDevice for Landmine {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
        fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
            let blocks = (buf.len() / self.block_size()) as u64;
            assert!(!(block..block + blocks).contains(&self.1), "landmine");
            self.0.read_blocks_at(block, buf)
        }
        fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
            self.0.write_blocks_at(block, data)
        }
        fn counters(&self) -> IoCounters {
            self.0.counters()
        }
        fn fail(&self) {
            self.0.fail()
        }
        fn heal(&self) {
            self.0.heal()
        }
        fn is_failed(&self) -> bool {
            self.0.is_failed()
        }
    }

    /// Pin `node`'s worker inside a gate request on `probe`, issue `call`
    /// — one blocking call, which therefore has to queue — from a second
    /// thread, and release the gate once the call is in the queue.
    fn queued_behind_gate<T: Send>(
        probe: &Probe,
        node: &IoNode,
        call: impl FnOnce(&DeviceRef) -> T + Send,
    ) -> T {
        let dev = node.device();
        let bs = dev.block_size();
        let before = node.stats().in_flight;
        let gate = dev.submit_write_blocks(probe.gate_block, vec![0u8; bs].into_boxed_slice());
        probe.wait_entered();
        let out = std::thread::scope(|s| {
            let blocked = s.spawn(|| call(&dev));
            while node.stats().in_flight < before + 2 {
                std::thread::yield_now();
            }
            probe.release();
            blocked.join().unwrap()
        });
        let _ = gate.wait();
        out
    }

    #[test]
    fn blocking_call_behind_a_backlog_is_served_in_arrival_order() {
        // Worker pinned at block 128 with [250, 10] submitted behind it:
        // a blocking write to 140 must join the back of that backlog —
        // not run ahead of it, which the probe would catch as an overlap
        // with the gate — and everything is served as it arrived.
        let probe = Probe::new(Arc::new(MemDisk::new(256, 64)), 128);
        let node = IoNode::spawn(Arc::clone(&probe) as DeviceRef);
        let dev = node.device();
        let gate = dev.submit_write_blocks(128, vec![0u8; 64].into_boxed_slice());
        probe.wait_entered();
        let backlog: Vec<Ticket<Box<[u8]>>> = [250u64, 10]
            .iter()
            .map(|&b| dev.submit_write_blocks(b, vec![b as u8; 64].into_boxed_slice()))
            .collect();
        std::thread::scope(|s| {
            let blocked = s.spawn(|| dev.write_block(140, &[140u8; 64]));
            while node.stats().in_flight < 4 {
                std::thread::yield_now();
            }
            probe.release();
            blocked.join().unwrap().unwrap();
        });
        gate.wait().unwrap();
        for t in backlog {
            t.wait().unwrap();
        }
        assert_eq!(*probe.order.lock().unwrap(), vec![128, 250, 10, 140]);
        let s = node.stats();
        assert_eq!((s.serviced, s.in_flight, s.max_in_flight), (4, 0, 4));
        assert_eq!(s.panics, 0, "an overlap would have panicked in the probe");
    }

    #[test]
    fn mixed_blocking_and_submitted_calls_never_overlap_on_the_device() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 48;
        let probe = Probe::new(Arc::new(MemDisk::new(64, 64)), u64::MAX);
        let node = IoNode::spawn(Arc::clone(&probe) as DeviceRef);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let dev = node.device();
                s.spawn(move || {
                    let mut buf = vec![0u8; 64];
                    for i in 0..ROUNDS {
                        let block = t * 8 + i % 8;
                        let fill = (t * ROUNDS + i) as u8;
                        if (t + i) % 2 == 0 {
                            dev.write_block(block, &[fill; 64]).unwrap();
                            dev.read_block(block, &mut buf).unwrap();
                        } else {
                            let data = vec![fill; 64].into_boxed_slice();
                            dev.submit_write_blocks(block, data).wait().unwrap();
                            let back = vec![0u8; 64].into_boxed_slice();
                            buf.copy_from_slice(
                                &dev.submit_read_blocks(block, back).wait().unwrap(),
                            );
                        }
                        assert!(buf.iter().all(|&b| b == fill), "thread {t} round {i}");
                    }
                });
            }
        });
        let s = node.stats();
        assert_eq!(s.panics, 0, "two transfers overlapped: {s:?}");
        assert_eq!((s.serviced, s.in_flight), (THREADS * ROUNDS * 2, 0));
        assert!(s.max_in_flight <= THREADS);
    }

    #[test]
    fn inline_transfers_are_counted_and_never_wait() {
        use std::time::Duration;
        let mem = Arc::new(MemDisk::new(16, 64).with_delay(Duration::from_micros(50)));
        let node = IoNode::spawn(mem as DeviceRef);
        let dev = node.device();
        dev.write_block(3, &[7u8; 64]).unwrap();
        let mut two = vec![0u8; 128];
        dev.read_blocks_at(3, &mut two).unwrap();
        assert!(two[..64].iter().all(|&b| b == 7));
        dev.flush().unwrap();
        let s = node.stats();
        assert_eq!((s.serviced, s.in_flight, s.max_in_flight), (3, 0, 1));
        // Two modelled transfers at >= 50us each; the flush is free.
        assert!(s.service_nanos >= 100_000, "{s:?}");
        assert_eq!(s.queue_wait_nanos, 0, "an idle node makes nobody wait");
    }

    #[test]
    fn queued_blocking_call_is_retried_by_the_worker() {
        use crate::fault::{FaultDevice, FaultPlan};
        let (_, faulty) = FaultDevice::wrap(
            Arc::new(MemDisk::new(8, 64)) as DeviceRef,
            FaultPlan {
                transient_rate: 1.0,
                ..FaultPlan::default()
            },
        );
        let probe = Probe::new(faulty, 7);
        let node = IoNode::spawn(Arc::clone(&probe) as DeviceRef);
        let err = queued_behind_gate(&probe, &node, |dev| {
            let mut buf = vec![0u8; 64];
            dev.read_block(0, &mut buf).unwrap_err()
        });
        assert!(err.is_transient(), "got {err}");
        let s = node.stats();
        // The gate write and the read each burned the whole budget.
        let budget = u64::from(MAX_RETRIES);
        assert_eq!((s.serviced, s.retries, s.in_flight), (2, 2 * budget, 0));
        assert!(s.queue_wait_nanos > 0, "the read waited out the gate");
    }

    #[test]
    fn queued_blocking_call_that_panics_fails_alone() {
        let probe = Probe::new(Arc::new(Landmine(MemDisk::new(16, 64), 5)), 9);
        let node = IoNode::spawn(Arc::clone(&probe) as DeviceRef);
        let err = queued_behind_gate(&probe, &node, |dev| {
            let mut buf = vec![0u8; 64];
            dev.read_block(5, &mut buf).unwrap_err()
        });
        assert!(
            matches!(&err, DiskError::Io(m) if m.contains("panicked")),
            "unexpected error: {err}"
        );
        // The worker survived and the node serves again, inline included.
        let dev = node.device();
        dev.write_block(6, &[2u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        dev.submit_read_blocks(6, vec![0u8; 64].into_boxed_slice())
            .wait()
            .unwrap();
        dev.read_block(6, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 2));
        let s = node.stats();
        assert_eq!((s.panics, s.in_flight), (1, 0));
    }

    #[test]
    fn transparent_round_trip() {
        let node = IoNode::spawn(Arc::new(MemDisk::new(16, 64)));
        let dev = node.device();
        assert_eq!(dev.block_size(), 64);
        assert_eq!(dev.num_blocks(), 16);
        dev.write_block(3, &[7u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        dev.read_block(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        dev.flush().unwrap();
        let s = node.stats();
        assert_eq!(s.serviced, 3);
        assert_eq!(s.in_flight, 0);
        assert!(dev.label().starts_with("ionode("));
    }

    #[test]
    fn span_requests_cost_one_unit_of_service() {
        let mem = Arc::new(MemDisk::new(32, 64));
        let node = IoNode::spawn(Arc::clone(&mem) as DeviceRef);
        let dev = node.device();
        let data: Vec<u8> = (0..64 * 8).map(|i| i as u8).collect();
        dev.write_blocks_at(4, &data).unwrap();
        let mut back = vec![0u8; 64 * 8];
        dev.read_blocks_at(4, &mut back).unwrap();
        assert_eq!(back, data);
        // Two span transfers = two serviced requests, not sixteen.
        assert_eq!(node.stats().serviced, 2);
        // The wrapped device saw them as vectored requests too.
        let c = mem.counters();
        assert_eq!((c.reads, c.writes), (1, 1));
        assert_eq!((c.blocks_read, c.blocks_written), (8, 8));
        // Errors round-trip through the span path.
        let mut big = vec![0u8; 64 * 64];
        assert!(matches!(
            dev.read_blocks_at(1, &mut big),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn submitted_tickets_complete_out_of_band() {
        let node = IoNode::spawn(Arc::new(MemDisk::new(32, 64)));
        let dev = node.device();
        // Submit a batch of writes before waiting on any of them.
        let tickets: Vec<Ticket<Box<[u8]>>> = (0..8u64)
            .map(|b| dev.submit_write_blocks(b, vec![b as u8 + 1; 64].into_boxed_slice()))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        // Reads the same way; buffers come back filled.
        let tickets: Vec<(u64, Ticket<Box<[u8]>>)> = (0..8u64)
            .map(|b| {
                (
                    b,
                    dev.submit_read_blocks(b, vec![0u8; 64].into_boxed_slice()),
                )
            })
            .collect();
        for (b, t) in tickets {
            let buf = t.wait().unwrap();
            assert!(buf.iter().all(|&x| x == b as u8 + 1), "block {b}");
        }
        assert_eq!(node.stats().serviced, 16);
        assert_eq!(node.stats().in_flight, 0);
    }

    #[test]
    fn shutdown_drains_in_flight_tickets() {
        // Drop the node and every handle while writes are still queued:
        // the worker must drain and complete them all, not abandon them.
        use std::time::Duration;
        let mem = Arc::new(MemDisk::new(64, 64).with_delay(Duration::from_micros(100)));
        let node = IoNode::spawn(Arc::clone(&mem) as DeviceRef);
        let dev = node.device();
        let tickets: Vec<Ticket<Box<[u8]>>> = (0..32u64)
            .map(|b| dev.submit_write_blocks(b, vec![b as u8; 64].into_boxed_slice()))
            .collect();
        drop(dev);
        drop(node); // all senders gone; the backlog must still be served
        for (b, t) in tickets.into_iter().enumerate() {
            t.wait().unwrap_or_else(|e| panic!("ticket {b}: {e}"));
        }
        let mut buf = vec![0u8; 64];
        for b in 0..32u64 {
            mem.read_block(b, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == b as u8), "block {b}");
        }
    }

    #[test]
    fn panicking_device_op_fails_its_ticket_not_the_node() {
        let node = IoNode::spawn(Arc::new(Landmine(MemDisk::new(16, 64), 5)));
        let dev = node.device();
        dev.write_block(5, &[1u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        let err = dev.read_block(5, &mut buf).unwrap_err();
        assert!(
            matches!(&err, DiskError::Io(m) if m.contains("panicked")),
            "unexpected error: {err}"
        );
        // The worker survived the panic and keeps serving.
        dev.write_block(6, &[2u8; 64]).unwrap();
        dev.read_block(6, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 2));
        assert_eq!(node.stats().in_flight, 0);
    }

    #[test]
    fn concurrent_clients_share_the_node() {
        let node = IoNode::spawn(Arc::new(MemDisk::new(64, 64)));
        crossbeam::thread::scope(|s| {
            for t in 0..8u8 {
                let dev = node.device();
                s.spawn(move |_| {
                    for b in 0..8u64 {
                        let block = b + u64::from(t) * 8;
                        dev.write_block(block, &[t + 1; 64]).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let dev = node.device();
        let mut buf = vec![0u8; 64];
        for t in 0..8u8 {
            for b in 0..8u64 {
                dev.read_block(b + u64::from(t) * 8, &mut buf).unwrap();
                assert!(buf.iter().all(|&x| x == t + 1));
            }
        }
        assert_eq!(node.stats().serviced, 128);
        assert!(node.stats().max_in_flight >= 1);
    }

    #[test]
    fn wait_and_service_time_accumulate() {
        use std::time::Duration;
        let slow = Arc::new(MemDisk::new(16, 64).with_delay(Duration::from_micros(200)));
        let node = IoNode::spawn(slow as DeviceRef);
        // Eight submissions back to back: each queues behind its
        // predecessor's 200us transfer, so both service time and queue
        // wait must accumulate.
        let dev = node.device();
        let tickets: Vec<Ticket<Box<[u8]>>> = (0..8u64)
            .map(|b| dev.submit_write_blocks(b, vec![1u8; 64].into_boxed_slice()))
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let s = node.stats();
        assert_eq!(s.serviced, 8);
        // 8 requests x >=200us modelled transfer.
        assert!(
            s.service_nanos >= 8 * 200_000,
            "service time under-counted: {}",
            s.service_nanos
        );
        assert!(s.queue_wait_nanos > 0, "queued requests must report wait");
        // The device handle exposes the same stats through the trait hook.
        let via_handle = node.device().ionode_stats().unwrap();
        assert_eq!(via_handle.serviced, 8);
        // A plain device reports none.
        assert!((Arc::new(MemDisk::new(4, 64)) as DeviceRef)
            .ionode_stats()
            .is_none());
    }

    #[test]
    fn stats_absorb_aggregates() {
        let a = IoNodeStats {
            serviced: 3,
            in_flight: 1,
            max_in_flight: 2,
            queue_wait_nanos: 100,
            service_nanos: 400,
            retries: 2,
            timeouts: 1,
            panics: 0,
        };
        let mut agg = IoNodeStats::default();
        agg.absorb(a);
        agg.absorb(IoNodeStats {
            serviced: 1,
            in_flight: 0,
            max_in_flight: 5,
            queue_wait_nanos: 10,
            service_nanos: 20,
            retries: 1,
            timeouts: 0,
            panics: 3,
        });
        assert_eq!(agg.serviced, 4);
        assert_eq!(agg.max_in_flight, 5);
        assert_eq!(agg.queue_wait_nanos, 110);
        assert_eq!(agg.service_nanos, 420);
        assert_eq!((agg.retries, agg.timeouts, agg.panics), (3, 1, 3));
    }

    #[test]
    fn transient_faults_are_retried_in_place() {
        use crate::fault::{FaultDevice, FaultPlan};
        // Every third-ish op glitches; the worker's retry budget should
        // absorb all of them so clients never see an error.
        let (fault, faulty) = FaultDevice::wrap(
            Arc::new(MemDisk::new(32, 64)) as DeviceRef,
            FaultPlan {
                seed: 7,
                transient_rate: 0.3,
                ..FaultPlan::default()
            },
        );
        let node = IoNode::spawn(faulty);
        let dev = node.device();
        let mut buf = vec![0u8; 64];
        for b in 0..32u64 {
            dev.write_block(b, &[b as u8; 64]).unwrap();
        }
        for b in 0..32u64 {
            dev.read_block(b, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == b as u8));
        }
        // With rate 0.3 over 64 ops some retries must have happened
        // (P[no transient at all] < 1e-9 for seed 7 it does glitch).
        assert!(node.stats().retries > 0, "{:?}", node.stats());
        assert!(fault.counts().transients > 0);
        assert_eq!(node.stats().timeouts, 0);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_the_transient() {
        use crate::fault::{FaultDevice, FaultPlan};
        let (_, faulty) = FaultDevice::wrap(
            Arc::new(MemDisk::new(8, 64)) as DeviceRef,
            FaultPlan {
                transient_rate: 1.0,
                ..FaultPlan::default()
            },
        );
        let node = IoNode::spawn(faulty);
        let dev = node.device();
        let mut buf = vec![0u8; 64];
        let err = dev.read_block(0, &mut buf).unwrap_err();
        assert!(err.is_transient(), "got {err}");
        assert_eq!(node.stats().retries, u64::from(MAX_RETRIES));
    }

    #[test]
    fn panics_are_counted_per_node() {
        struct Landmine(MemDisk);
        impl BlockDevice for Landmine {
            fn block_size(&self) -> usize {
                self.0.block_size()
            }
            fn num_blocks(&self) -> u64 {
                self.0.num_blocks()
            }
            fn read_blocks_at(&self, _block: u64, _buf: &mut [u8]) -> Result<()> {
                panic!("landmine");
            }
            fn write_blocks_at(&self, block: u64, data: &[u8]) -> Result<()> {
                self.0.write_blocks_at(block, data)
            }
            fn counters(&self) -> IoCounters {
                self.0.counters()
            }
            fn fail(&self) {}
            fn heal(&self) {}
            fn is_failed(&self) -> bool {
                false
            }
        }
        let node = IoNode::spawn(Arc::new(Landmine(MemDisk::new(8, 64))));
        let dev = node.device();
        let mut buf = vec![0u8; 64];
        assert!(dev.read_block(0, &mut buf).is_err());
        assert!(dev.read_block(1, &mut buf).is_err());
        dev.write_block(0, &[1u8; 64]).unwrap();
        assert_eq!(node.stats().panics, 2);
    }

    #[test]
    fn race_prefers_the_faster_ok() {
        use std::time::Duration;
        let fast = IoNode::spawn(Arc::new(MemDisk::new(8, 64)));
        let slow_mem = Arc::new(MemDisk::new(8, 64).with_delay(Duration::from_millis(5)));
        let slow = IoNode::spawn(Arc::clone(&slow_mem) as DeviceRef);
        fast.device().write_block(0, &[1u8; 64]).unwrap();
        slow_mem.write_block(0, &[2u8; 64]).unwrap();
        let a = fast
            .device()
            .submit_read_blocks(0, vec![0u8; 64].into_boxed_slice());
        let b = slow
            .device()
            .submit_read_blocks(0, vec![0u8; 64].into_boxed_slice());
        let [Some(Ok(winner)), None] = Ticket::race(a, b) else {
            panic!("fast replica must win and the slow one be abandoned");
        };
        assert!(winner.iter().all(|&x| x == 1));
    }

    #[test]
    fn race_falls_back_to_the_slower_ok() {
        let broken = Arc::new(MemDisk::new(8, 64));
        broken.fail();
        let good = IoNode::spawn(Arc::new(MemDisk::new(8, 64)));
        good.device().write_block(0, &[9u8; 64]).unwrap();
        let a = (Arc::clone(&broken) as DeviceRef)
            .submit_read_blocks(0, vec![0u8; 64].into_boxed_slice());
        let b = good
            .device()
            .submit_read_blocks(0, vec![0u8; 64].into_boxed_slice());
        let [Some(Err(DiskError::DeviceFailed { .. })), Some(Ok(got))] = Ticket::race(a, b) else {
            panic!("the failed copy's error and the fallback's data are both reported");
        };
        assert!(got.iter().all(|&x| x == 9));
        // Both failing: both errors survive.
        let a = (Arc::clone(&broken) as DeviceRef)
            .submit_read_blocks(0, vec![0u8; 64].into_boxed_slice());
        let b = (Arc::clone(&broken) as DeviceRef)
            .submit_read_blocks(1, vec![0u8; 64].into_boxed_slice());
        assert!(matches!(
            Ticket::race(a, b),
            [
                Some(Err(DiskError::DeviceFailed { .. })),
                Some(Err(DiskError::DeviceFailed { .. }))
            ]
        ));
    }

    #[test]
    fn errors_propagate_through_the_node() {
        let mem = Arc::new(MemDisk::new(8, 64));
        let node = IoNode::spawn(Arc::clone(&mem) as DeviceRef);
        let dev = node.device();
        mem.fail();
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            dev.read_block(0, &mut buf),
            Err(DiskError::DeviceFailed { .. })
        ));
        mem.heal();
        assert!(dev.read_block(0, &mut buf).is_ok());
        // Out-of-range also round-trips.
        assert!(matches!(
            dev.read_block(99, &mut buf),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn wrong_length_single_block_calls_are_typed_errors() {
        let node = IoNode::spawn(Arc::new(MemDisk::new(8, 64)));
        let dev = node.device();
        let mut two = vec![0u8; 128];
        assert!(matches!(
            dev.read_block(0, &mut two),
            Err(DiskError::BadBufferSize {
                got: 128,
                expected: 64
            })
        ));
        assert!(matches!(
            dev.write_block(0, &[1u8; 32]),
            Err(DiskError::BadBufferSize {
                got: 32,
                expected: 64
            })
        ));
        // Refused before the node: nothing was serviced, and it still
        // serves a well-formed call.
        assert_eq!(node.stats().serviced, 0);
        dev.write_block(0, &[1u8; 64]).unwrap();
        assert_eq!((node.stats().serviced, node.stats().panics), (1, 0));
    }

    #[test]
    fn whole_bank_behind_io_processors() {
        let nodes: Vec<IoNode> = crate::mem_array(3, 32, 128)
            .into_iter()
            .map(IoNode::spawn)
            .collect();
        let handles: Vec<DeviceRef> = nodes.iter().map(IoNode::device).collect();
        for (i, dev) in handles.iter().enumerate() {
            dev.write_block(0, &[i as u8 + 1; 128]).unwrap();
        }
        let mut buf = vec![0u8; 128];
        for (i, dev) in handles.iter().enumerate() {
            dev.read_block(0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8 + 1));
        }
        assert!(nodes.iter().all(|n| n.stats().serviced == 2));
    }
}
