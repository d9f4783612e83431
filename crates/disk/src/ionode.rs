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
//! per request. The worker serves its queue in arrival order; a
//! caller that must order two transfers waits the first ticket before
//! submitting the second. A queued transfer completes through a slot
//! from the node's free list — its result, a state word and the thread
//! to wake — so once a node's queue and free list have grown to its
//! deepest backlog, a queued submission allocates nothing (a blocking
//! call that has to queue still copies through a boxed buffer).
//!
//! **Caller-runs on an idle node** is the executor's one dispatch
//! decision. A dedicated processor buys overlap between compute and
//! transfer; a *blocking* call ([`BlockDevice::read_blocks_at`],
//! `write_blocks_at` — which the single-block calls reach — or `flush`
//! on a node handle) has no overlap to buy, so when nothing is queued or in
//! service the calling thread claims the node, runs the transfer itself
//! straight on the caller's slice — the same `service` routine the worker
//! runs — and releases it: no boxed buffer, no completion slot, no
//! wake-up. A *submission* to an idle node runs the same way, and its
//! ticket comes back ready, while the node's transfers measure under
//! [`HANDOFF_NANOS`] — the cost of waking the worker and being woken by
//! it. A faster device than that gains nothing from the overlap a
//! hand-off buys, because the hand-off alone costs more than the transfer;
//! a slower one keeps its worker, so a wave of submissions across such
//! devices still runs in parallel. The node keeps that measurement as a
//! running estimate of its service time; until the first transfer sets
//! it, submissions queue. With anything queued or in service every call
//! queues, behind everything already there. The device lock keeps the
//! invariant either way: one transfer at a time.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use pario_check::{AtomicU32, AtomicU64, CheckCell, Condvar, LockLevel, Mutex, MutexGuard};

use crate::device::{BlockDevice, DeviceRef, IoCounters};
use crate::error::{DiskError, Result};

/// A pending asynchronous I/O completion.
///
/// Returned by [`BlockDevice::submit_read_blocks`] and
/// [`BlockDevice::submit_write_blocks`]. Dropping a ticket abandons the
/// result but not the operation: a transfer already queued on an
/// [`IoNode`] still executes, and its completion slot goes back to the
/// node's free list only once the worker is done with it.
#[must_use = "a ticket does nothing until waited on"]
pub struct Ticket<T> {
    inner: TicketInner<T>,
}

enum TicketInner<T> {
    Ready(Result<T>),
    /// Queued: the worker completes the claimed slot with a buffer, and
    /// the function makes the ticket's `T` of it.
    Pending(Claim, fn(Box<[u8]>) -> T),
}

impl<T> Ticket<T> {
    /// A ticket that is already complete — what synchronous devices
    /// return from the submit API.
    pub fn ready(res: Result<T>) -> Ticket<T> {
        Ticket {
            inner: TicketInner::Ready(res),
        }
    }

    /// Block until the operation completes and take its result.
    pub fn wait(self) -> Result<T> {
        match self.inner {
            TicketInner::Ready(res) => res,
            TicketInner::Pending(claim, yields) => {
                first_done(&[&claim]);
                claim.take().map(yields)
            }
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
        let first = match (&a.inner, &b.inner) {
            (TicketInner::Pending(ca, _), TicketInner::Pending(cb, _)) => first_done(&[ca, cb]),
            (TicketInner::Pending(..), TicketInner::Ready(_)) => 1,
            (TicketInner::Ready(_), _) => 0,
        };
        let (faster, slower) = if first == 0 { (a, b) } else { (b, a) };
        let won = faster.wait();
        let second = won.is_err().then(|| slower.wait());
        let mut out = [Some(won), second];
        out.rotate_left(first);
        out
    }
}

/// The states of a [`Slot`]'s word. The owner moves `IDLE -> WAITING`
/// and, when its ticket goes, to `DROPPED`; the worker moves `IDLE` or
/// `WAITING` to `DONE`. Whichever of the ticket's end and the completion
/// comes second puts the slot back on the free list.
const IDLE: u32 = 0;
const WAITING: u32 = 1;
const DONE: u32 = 2;
const DROPPED: u32 = 3;

/// Where one queued transfer completes. The worker writes `result`
/// before it publishes `DONE`; the owner writes `waiter` before it
/// publishes `WAITING`, and never again while the slot is out.
#[derive(Default)]
struct Slot {
    state: AtomicU32,
    result: CheckCell<Option<Result<Box<[u8]>>>>,
    waiter: CheckCell<Option<Thread>>,
}

/// A ticket's hold on its slot, and the node whose free list the slot
/// goes back to.
struct Claim {
    slot: Arc<Slot>,
    node: Arc<Shared>,
}

impl Claim {
    fn done(&self) -> bool {
        self.slot.state.load(Ordering::Acquire) == DONE
    }

    /// Ask the worker to unpark `me` on completion; `false` if the
    /// completion is already in. Called again by the same owner (the
    /// fallback wait after a race), it leaves the registered waiter be.
    fn watch(&self, me: &Thread) -> bool {
        let state = &self.slot.state;
        match state.load(Ordering::Acquire) {
            IDLE => {
                self.slot.waiter.with_mut(|w| *w = Some(me.clone()));
                let to = state.compare_exchange(IDLE, WAITING, Ordering::AcqRel, Ordering::Acquire);
                to.is_ok()
            }
            s => s == WAITING,
        }
    }

    /// The completion, once [`Claim::done`]. Dropping the claim then puts
    /// the slot back.
    fn take(self) -> Result<Box<[u8]>> {
        let res = self.slot.result.with_mut(Option::take);
        // invariant: a slot is DONE only after the worker stored its result, and one owner takes it once.
        res.expect("a completed slot holds its result")
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.slot.state.swap(DROPPED, Ordering::AcqRel) == DONE {
            self.node.put_back(Arc::clone(&self.slot));
        }
    }
}

/// Wait until one of `claims` is complete and return its index: the one
/// wait loop behind [`Ticket::wait`] and [`Ticket::race`]. A normal
/// thread registers with each slot and parks. A model thread polls,
/// yielding between polls, and never really blocks: the worker that will
/// complete its slot may be waiting for the device lock of a
/// caller-runs transfer whose (model) thread only resumes when this one
/// yields. In normal builds `yield_now` is a constant `false`.
fn first_done(claims: &[&Claim]) -> usize {
    let me = std::thread::current();
    if let Some(i) = claims.iter().position(|c| !c.watch(&me)) {
        return i;
    }
    loop {
        if let Some(i) = claims.iter().position(|c| c.done()) {
            return i;
        }
        if !pario_check::yield_now() {
            std::thread::park();
        }
    }
}

/// What a queued job asks of the device, at which block.
enum Work {
    Read(u64),
    Write(u64),
    Flush,
}

/// A queued transfer: the buffer travels to the worker and back through
/// the slot, so callers can reuse it. Every transfer is vectored:
/// single-block operations are one-block spans (the wrapped device's
/// vectored path charges them identically).
struct Job {
    work: Work,
    buf: Box<[u8]>,
    /// When it entered the queue, so the worker can attribute elapsed
    /// time to queueing vs. device service.
    enqueued: Instant,
    slot: Arc<Slot>,
}

/// One transfer as the device sees it, borrowing its buffer from whoever
/// owns it: the queued job (worker) or the caller's own slice
/// (caller-runs).
enum Op<'a> {
    Read(u64, &'a mut [u8]),
    Write(u64, &'a [u8]),
    Flush,
}

/// The jobs in arrival order and the free completion slots.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    free: Vec<Arc<Slot>>,
    /// Slots made so far: the free list plus those out.
    made: usize,
    /// Set when the node and every handle are gone: the worker then
    /// drains what is queued and exits.
    closed: bool,
}

/// Device, queue, stats and geometry shared between the node's handle,
/// its worker thread, and every pending ticket.
struct Shared {
    /// The wrapped device. Whoever holds this lock — the worker or a
    /// caller running inline — is servicing the node's one transfer.
    device: Mutex<DeviceRef>,
    queue: Mutex<Queue>,
    /// The worker sleeps on it while the queue is empty and open.
    queued: Condvar,
    /// Requests queued or in service, inline transfers included. Zero is
    /// the idle node a caller may claim (see `claim_idle`).
    in_flight: AtomicU64,
    /// Running estimate of one read or write's service time, in
    /// nanoseconds; `u64::MAX` until the first one is measured. Written
    /// only under the device lock (see [`service`]).
    service_estimate: AtomicU64,
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
    /// Fold one transfer's service time into the estimate, 1/8 weight to
    /// the newest. The caller holds the device lock, so updates do not
    /// race. Under the model checker the scheduler stretches wall time at
    /// will, so there every measured transfer counts as instant: which
    /// path a submission takes then depends on the explored schedule
    /// alone.
    fn record_service(&self, nanos: u64) {
        let nanos = if cfg!(pario_check) { 0 } else { nanos };
        // ordering: read and written only under the device lock
        let old = self.service_estimate.load(Ordering::Relaxed);
        let new = match old {
            u64::MAX => nanos,
            _ => old - old / 8 + nanos / 8,
        };
        // ordering: read and written only under the device lock; readers elsewhere take it as a routing hint
        self.service_estimate.store(new, Ordering::Relaxed);
    }

    /// Whether this node's transfers measure cheaper than a hand-off
    /// (false until one has been measured).
    fn fast(&self) -> bool {
        // ordering: routing hint only; a stale estimate picks a slower path, never a wrong one
        self.service_estimate.load(Ordering::Relaxed) < HANDOFF_NANOS
    }

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

    /// The next job in arrival order; `None` once the node is closed and
    /// its queue drained.
    fn next_job(&self) -> Option<Job> {
        let mut q = self.queue.lock();
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            self.queued.wait(&mut q);
        }
    }

    /// The worker's one completion of `slot`: store `res`, then publish
    /// it and wake the owner — or, if the ticket is already gone, put the
    /// slot back.
    fn complete(&self, slot: Arc<Slot>, res: Result<Box<[u8]>>) {
        slot.result.with_mut(|r| *r = Some(res));
        let word = &slot.state;
        loop {
            let state = word.load(Ordering::Acquire);
            if state == DROPPED {
                return self.put_back(slot);
            }
            // Read the waiter before `DONE` is out: after that the owner
            // may put the slot back and its next owner write it.
            let waiter = (state == WAITING).then(|| slot.waiter.with(Clone::clone));
            let done = word.compare_exchange(state, DONE, Ordering::AcqRel, Ordering::Acquire);
            if done.is_ok() {
                return waiter.flatten().iter().for_each(Thread::unpark);
            }
        }
    }

    /// Put back a slot whose one completion has been written and taken
    /// (or abandoned with its ticket).
    fn put_back(&self, slot: Arc<Slot>) {
        slot.result.with_mut(|r| *r = None);
        slot.waiter.with_mut(|w| *w = None);
        // ordering: the slot is this thread's alone; the queue lock publishes it to its next owner
        slot.state.store(IDLE, Ordering::Relaxed);
        self.queue.lock().free.push(slot);
    }
}

/// Retries of a transient fault after the first attempt. A fault that
/// [`DiskError::is_transient`] calls retryable is retried in place, with
/// exponential backoff, before the error reaches the caller: the layers
/// above only ever see transients that survived the whole budget.
const MAX_RETRIES: u32 = 3;

/// Backoff before the first retry; it doubles on each further one.
const RETRY_BACKOFF: Duration = Duration::from_micros(20);

/// What handing a transfer to the worker costs, in nanoseconds: a
/// submission to an idle node whose estimated service time is below this
/// runs on the submitting thread. A queued hand-off is two wake-ups — the
/// worker off its queue's condvar, the waiter out of `park` — ~6 µs on
/// one CPU, 15–50 µs when they cross vCPUs, against ~4 µs for a
/// zero-delay `MemDisk` transfer; a 200 µs device stays well above it
/// and keeps the overlap its worker buys.
const HANDOFF_NANOS: u64 = 20_000;

/// A dedicated I/O processor serving one device.
///
/// The worker thread runs until the node and every handle from
/// [`IoNode::device`] have been dropped, then drains whatever is still
/// queued before exiting — shutdown never abandons an accepted request.
pub struct IoNode {
    handle: Arc<IoNodeDevice>,
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
    /// Always 0: the executor sets no deadline on a request, and no
    /// device reports one. Kept because the benchmark reads it as
    /// `disk.timeouts`.
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
        let shared = Arc::new(Shared {
            block_size: inner.block_size(),
            num_blocks: inner.num_blocks(),
            label: format!("ionode({})", inner.label()),
            device: Mutex::new_named(inner, LockLevel::DiskDevice),
            queue: Mutex::new_named(Queue::default(), LockLevel::DiskQueue),
            queued: Condvar::new(),
            in_flight: AtomicU64::new(0),
            service_estimate: AtomicU64::new(u64::MAX),
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
            .spawn(move || worker(&worker_shared))
            // invariant: spawn fails only on OS thread exhaustion at startup.
            .expect("spawn I/O node thread");
        IoNode {
            handle: Arc::new(IoNodeDevice { shared }),
        }
    }

    /// A [`BlockDevice`] handle that routes through this node's queue.
    pub fn device(&self) -> DeviceRef {
        Arc::clone(&self.handle) as DeviceRef
    }

    /// Current queue statistics.
    pub fn stats(&self) -> IoNodeStats {
        self.handle.shared.snapshot()
    }

    /// Completion slots not on the free list: each belongs to a queued
    /// or in-service transfer, or to a ticket not yet waited. Zero once
    /// every ticket has been waited or dropped and the worker is idle.
    pub fn slots_out(&self) -> usize {
        let q = self.handle.shared.queue.lock();
        q.made - q.free.len()
    }
}

/// The worker loop: for each job in arrival order, take the device and
/// service it, then complete its slot — until node and handles are gone
/// AND the queue is drained, so shutdown never abandons the backlog.
fn worker(shared: &Shared) {
    while let Some(mut job) = shared.next_job() {
        let op = match job.work {
            Work::Read(block) => Op::Read(block, &mut job.buf),
            Work::Write(block) => Op::Write(block, &job.buf),
            Work::Flush => Op::Flush,
        };
        let dev = shared.device.lock();
        let res = service(shared, dev, Some(job.enqueued), op).map(|()| job.buf);
        shared.complete(job.slot, res);
    }
}

/// Service one transfer on the device `dev` guards, then release it —
/// the single routine behind the worker and both caller-runs paths, so
/// the retry/backoff and panic policy ([`execute`]), every
/// [`IoNodeStats`] counter and the service estimate are kept in exactly
/// one place.
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
    let transfer = !matches!(op, Op::Flush);
    let res = match op {
        Op::Read(block, buf) => execute(shared, || dev.read_blocks_at(block, buf)),
        Op::Write(block, data) => execute(shared, || dev.write_blocks_at(block, data)),
        Op::Flush => execute(shared, || dev.flush()),
    };
    let service_nanos = started.elapsed().as_nanos() as u64;
    if transfer {
        shared.record_service(service_nanos);
    }
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
/// `peak_rss_mb`, whose bound is 0.25, and a change that claims a gain
/// may not edit the benchmark. Without them and nothing else changed
/// (two sets of two alternating 15 s pairs on one pinned CPU of a
/// 2-vCPU host), `gda-inproc` ran 2.6-2.9x the ops at +47-60 % RSS and
/// `ss-queue` 2.6-2.7x at +35 %, past that bound through the log alone;
/// `gda-socket` ran 1.33-1.37x at +1-2.5 %. Once the log has a cap,
/// this constant goes (ROADMAP item 1). See DESIGN §7.
///
/// Fairness on a shared CPU is not their job either. Submissions to an
/// idle fast node run inline without them, a parity span's whole
/// read-modify-write included: such an op is a handful of transfers of a
/// few µs each, and no rule holds it to the queue.
const INLINE_YIELDS: usize = 3;

/// Whether the process may run on one CPU only (affinity mask or cgroup
/// quota). Asked once: a later change of affinity is not seen.
fn single_cpu() -> bool {
    static ONE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ONE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

/// The one handle of a node: [`IoNode`] and every [`IoNode::device`]
/// share it, so the queue closes when the last of them goes.
struct IoNodeDevice {
    shared: Arc<Shared>,
}

impl Drop for IoNodeDevice {
    fn drop(&mut self) {
        self.shared.queue.lock().closed = true;
        self.shared.queued.notify_one();
    }
}

impl IoNodeDevice {
    /// Queue `work` behind everything already there, on a slot from the
    /// free list (a new one only when every slot is out).
    fn enqueue(&self, work: Work, buf: Box<[u8]>) -> Ticket<Box<[u8]>> {
        let inflight = self.shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1; // ordering: stats gauge; the queue lock orders the hand-off
        self.shared
            .max_in_flight
            .fetch_max(inflight, Ordering::Relaxed); // ordering: monotonic high-water mark, diagnostic only
        let enqueued = Instant::now();
        let mut q = self.shared.queue.lock();
        let slot = q.free.pop().unwrap_or_else(|| {
            q.made += 1;
            Arc::default()
        });
        let job = Job {
            work,
            buf,
            enqueued,
            slot: Arc::clone(&slot),
        };
        q.jobs.push_back(job);
        drop(q);
        self.shared.queued.notify_one();
        let node = Arc::clone(&self.shared);
        let inner = TicketInner::Pending(Claim { slot, node }, std::convert::identity);
        Ticket { inner }
    }

    /// Caller-runs admission, for blocking calls and submissions alike:
    /// claim the node only if nothing at all is queued or in service —
    /// the claim is the 0 -> 1 step of the same gauge queued requests
    /// count themselves into, so from here until the transfer completes
    /// every other call sees a busy node and queues. Returns the device
    /// and, if the claim had to wait for it, since when; hand both to
    /// [`service`]. A call that finds the node busy gets `None` and must
    /// queue, which is what keeps an inline transfer from overtaking a
    /// backlog.
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

    /// Caller-runs for a blocking call: service `op` on the calling
    /// thread if the node is idle, then pay the scheduling points a
    /// hand-off would have been (see [`INLINE_YIELDS`]). `None` means the
    /// node is busy and the call must queue.
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

    /// Caller-runs for a submission: service `op` on the calling thread
    /// if the node is idle and its transfers measure under
    /// [`HANDOFF_NANOS`]. `None` means the submission must queue — the
    /// node is busy, or slow enough (or not yet measured) that its worker
    /// buys overlap.
    fn serve_submission(&self, op: Op<'_>) -> Option<Result<()>> {
        if !self.shared.fast() {
            return None;
        }
        let (dev, waiting_since) = self.claim_idle()?;
        Some(service(&self.shared, dev, waiting_since, op))
    }

    /// A read submission: inline on an idle fast node if `may_run_here`,
    /// queued otherwise.
    fn submit_read(&self, block: u64, mut buf: Box<[u8]>, may_run_here: bool) -> Ticket<Box<[u8]>> {
        self.whole_blocks(buf.len());
        if buf.is_empty() {
            return Ticket::ready(Ok(buf));
        }
        if may_run_here {
            if let Some(res) = self.serve_submission(Op::Read(block, &mut buf)) {
                return Ticket::ready(res.map(|()| buf));
            }
        }
        self.enqueue(Work::Read(block), buf)
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
        if let Some(res) = self.run_inline(Op::Read(block, buf)) {
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
        if let Some(res) = self.run_inline(Op::Write(block, data)) {
            return res;
        }
        self.submit_write_blocks(block, data.to_vec().into_boxed_slice())
            .wait()
            .map(|_| ())
    }

    /// Serviced here into `buf` with a ready ticket on an idle fast node
    /// (see [`HANDOFF_NANOS`]); otherwise queued, and the ticket
    /// completes when the worker services it.
    fn submit_read_blocks(&self, block: u64, buf: Box<[u8]>) -> Ticket<Box<[u8]>> {
        self.submit_read(block, buf, true)
    }

    /// Always queued, so the copy is in flight beside the one it races.
    fn submit_hedged_read_blocks(&self, block: u64, buf: Box<[u8]>) -> Ticket<Box<[u8]>> {
        self.submit_read(block, buf, false)
    }

    /// As [`submit_read_blocks`](Self::submit_read_blocks): inline
    /// from `data` on an idle fast node, queued otherwise.
    fn submit_write_blocks(&self, block: u64, data: Box<[u8]>) -> Ticket<Box<[u8]>> {
        self.whole_blocks(data.len());
        if data.is_empty() {
            return Ticket::ready(Ok(data));
        }
        if let Some(res) = self.serve_submission(Op::Write(block, &data)) {
            return Ticket::ready(res.map(|()| data));
        }
        self.enqueue(Work::Write(block), data)
    }

    /// Inline on an idle node; otherwise queued, and its slot completes
    /// like a transfer's.
    fn flush(&self) -> Result<()> {
        if let Some(res) = self.run_inline(Op::Flush) {
            return res;
        }
        self.enqueue(Work::Flush, Box::default()).wait().map(drop)
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
        /// The thread that serviced each transfer, in service order.
        served_by: StdMutex<Vec<std::thread::ThreadId>>,
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
                served_by: StdMutex::new(Vec::new()),
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

        fn last_served_by(&self) -> std::thread::ThreadId {
            *self.served_by.lock().unwrap().last().unwrap()
        }

        fn serve<T>(&self, block: u64, f: impl FnOnce() -> T) -> T {
            assert!(
                !self.busy.swap(true, Ordering::SeqCst),
                "two transfers overlap on one device"
            );
            let _idle = Idle(&self.busy);
            self.served_by
                .lock()
                .unwrap()
                .push(std::thread::current().id());
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

    /// Submit the write that pins `node`'s worker at `probe`'s gate. The
    /// node must not have measured a transfer yet: with a fast estimate
    /// an idle node would run the submission on this thread, which would
    /// then wait at the gate for a release only it can give.
    fn pin_worker_at_gate(probe: &Probe, node: &IoNode) -> Ticket<Box<[u8]>> {
        assert!(
            !node.handle.shared.fast(),
            "the gate submission would run inline"
        );
        let bs = probe.block_size();
        let gate = node
            .device()
            .submit_write_blocks(probe.gate_block, vec![0u8; bs].into_boxed_slice());
        assert!(matches!(gate.inner, TicketInner::Pending(..)));
        probe.wait_entered();
        gate
    }

    /// Bring `node`'s service estimate under [`HANDOFF_NANOS`] with
    /// blocking writes to `block`: one is normally enough, more only if
    /// the test thread was preempted inside a transfer.
    fn warm_fast(node: &IoNode, block: u64) {
        let dev = node.device();
        let data = vec![0u8; dev.block_size()];
        for _ in 0..1000 {
            if node.handle.shared.fast() {
                return;
            }
            dev.write_block(block, &data).unwrap();
        }
        panic!("an undelayed device never measured under the hand-off cost");
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
        let before = node.stats().in_flight;
        let gate = pin_worker_at_gate(probe, node);
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
        let gate = pin_worker_at_gate(&probe, &node);
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
    fn a_submission_to_an_idle_fast_node_runs_on_the_calling_thread() {
        let probe = Probe::new(Arc::new(MemDisk::new(16, 64)), u64::MAX);
        let node = IoNode::spawn(Arc::clone(&probe) as DeviceRef);
        let dev = node.device();
        let me = std::thread::current().id();
        // Unmeasured, the node hands even an idle submission to its worker.
        let first = dev.submit_write_blocks(1, vec![1u8; 64].into_boxed_slice());
        first.wait().unwrap();
        assert_ne!(probe.last_served_by(), me, "an unmeasured node queues");
        warm_fast(&node, 2);
        let wait_before = node.stats().queue_wait_nanos;
        let write = dev.submit_write_blocks(3, vec![3u8; 64].into_boxed_slice());
        assert!(matches!(write.inner, TicketInner::Ready(Ok(_))));
        assert_eq!(probe.last_served_by(), me);
        let read = dev.submit_read_blocks(3, vec![0u8; 64].into_boxed_slice());
        assert!(matches!(read.inner, TicketInner::Ready(Ok(_))));
        assert_eq!(probe.last_served_by(), me);
        assert!(read.wait().unwrap().iter().all(|&b| b == 3));
        let s = node.stats();
        assert_eq!(s.queue_wait_nanos, wait_before, "nobody waited: {s:?}");
        assert_eq!((s.in_flight, s.max_in_flight), (0, 1));
    }

    #[test]
    fn a_submission_that_finds_the_node_busy_queues_behind_it() {
        let probe = Probe::new(Arc::new(MemDisk::new(64, 64)), 9);
        let node = IoNode::spawn(Arc::clone(&probe) as DeviceRef);
        warm_fast(&node, 1);
        let dev = node.device();
        std::thread::scope(|s| {
            // A blocking call on the idle node runs inline on its own
            // thread and holds the device at the gate.
            let holder = s.spawn(|| dev.write_block(9, &[9u8; 64]));
            probe.wait_entered();
            let behind = dev.submit_write_blocks(20, vec![20u8; 64].into_boxed_slice());
            assert!(
                matches!(behind.inner, TicketInner::Pending(..)),
                "a busy node queues even a fast submission"
            );
            assert_eq!(node.stats().in_flight, 2);
            probe.release();
            holder.join().unwrap().unwrap();
            behind.wait().unwrap();
        });
        let order = probe.order.lock().unwrap().clone();
        assert_eq!(order[order.len() - 2..], [9, 20]);
        assert_ne!(probe.last_served_by(), std::thread::current().id());
        assert!(node.stats().queue_wait_nanos > 0, "{:?}", node.stats());
    }

    /// Holds every read until `want` reads are in service at once, or
    /// until the hang guard runs out; keeps the most it saw.
    struct Meet {
        want: usize,
        guard: Instant,
        /// (in service now, most ever at once)
        count: StdMutex<(usize, usize)>,
        cv: Condvar,
    }

    impl Meet {
        fn hold(&self) {
            let mut c = self.count.lock().unwrap();
            c.0 += 1;
            c.1 = c.1.max(c.0);
            self.cv.notify_all();
            while c.1 < self.want && Instant::now() < self.guard {
                let left = self.guard - Instant::now();
                c = self.cv.wait_timeout(c, left).unwrap().0;
            }
            c.0 -= 1;
        }
    }

    /// A device whose reads meet at a shared [`Meet`].
    struct Gated(MemDisk, Arc<Meet>);

    impl BlockDevice for Gated {
        fn block_size(&self) -> usize {
            self.0.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.0.num_blocks()
        }
        fn read_blocks_at(&self, block: u64, buf: &mut [u8]) -> Result<()> {
            self.1.hold();
            self.0.read_blocks_at(block, buf)
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

    #[test]
    fn a_wave_on_delayed_nodes_still_overlaps() {
        use std::time::Duration;
        const DELAY: Duration = Duration::from_micros(200);
        // Each read is held until all four are in service at once, which
        // a wave served one device after another never reaches: it fails
        // on the count, after the hang guard.
        let meet = Arc::new(Meet {
            want: 4,
            guard: Instant::now() + Duration::from_secs(30),
            count: StdMutex::new((0, 0)),
            cv: Condvar::new(),
        });
        let nodes: Vec<IoNode> = (0..4)
            .map(|_| {
                let mem = MemDisk::new(8, 64).with_delay(DELAY);
                IoNode::spawn(Arc::new(Gated(mem, Arc::clone(&meet))))
            })
            .collect();
        let devs: Vec<DeviceRef> = nodes.iter().map(IoNode::device).collect();
        for dev in &devs {
            dev.write_block(0, &[1u8; 64]).unwrap();
        }
        assert!(nodes.iter().all(|n| !n.handle.shared.fast()));
        let tickets: Vec<_> = devs
            .iter()
            .map(|d| d.submit_read_blocks(0, vec![0u8; 64].into_boxed_slice()))
            .collect();
        assert!(tickets
            .iter()
            .all(|t| matches!(t.inner, TicketInner::Pending(..))));
        for t in tickets {
            assert!(t.wait().unwrap().iter().all(|&b| b == 1));
        }
        let most = meet.count.lock().unwrap().1;
        assert_eq!(
            most, 4,
            "only {most} of the wave's 4 reads were in service at once"
        );
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
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let dev = node.device();
                s.spawn(move || {
                    for b in 0..8u64 {
                        let block = b + u64::from(t) * 8;
                        dev.write_block(block, &[t + 1; 64]).unwrap();
                    }
                });
            }
        });
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
