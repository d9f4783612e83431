//! The cooperative scheduler behind `--cfg pario_check`.
//!
//! One model run owns one [`Sched`]. Model threads are real OS threads,
//! but at most one is ever *logically running*: every instrumented
//! operation (mutex acquire/release, condvar wait/notify, atomic
//! access) is a yield point where the running thread hands control back
//! and the scheduler picks who continues, consulting a seeded
//! [`Decider`]. The sequence of choices is the schedule; recording it
//! yields a replay string, and replaying it re-executes the same
//! interleaving.
//!
//! Blocking is scheduler-level: a thread that cannot take a lock is
//! parked in the scheduler *before* touching the underlying
//! [`crate::real`] lock, so the real lock is only ever contended between
//! a model thread and free-running helper threads (e.g. I/O-node
//! workers), never between two model threads. When the running thread
//! must block and no other thread is runnable, every model thread is
//! stuck: that is a deadlock (or a lost wakeup) and the run fails with
//! the schedule attached.
//!
//! The scheduler also checks the declared lock hierarchy
//! ([`LockLevel`]): acquiring a ranked lock while holding one of equal
//! or higher rank is reported as a lock-order inversion even if the
//! particular schedule did not deadlock.
//!
//! On top of scheduling, the scheduler maintains the happens-before
//! relation of the run as vector clocks ([`crate::clocks`]): spawn,
//! join, lock hand-off, condvar notify→wake, and release/acquire
//! atomic pairs each propagate clocks — keyed on the `Ordering` the
//! call site actually passes, so `Relaxed` correctly propagates
//! nothing. [`crate::CheckCell`] accesses are checked against those
//! clocks and a concurrent conflicting pair is reported as a
//! [`FailureKind::DataRace`] with both sites labeled.
//!
//! Each yield point carries an [`OpTag`] naming the object about to be
//! touched; the scheduler uses the tags for a sleep-set partial-order
//! reduction (a thread whose next operation is independent of
//! everything executed since it was last considered is not re-picked —
//! running it now would only permute independent operations) and for
//! the Foata canonical trace hash that counts distinct schedules by
//! equivalence class rather than by raw decision string.

use std::collections::{HashMap, HashSet};
use std::panic::{resume_unwind, Location};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::clocks::{CellMeta, Foata, Site, VClock};
use crate::hierarchy::LockLevel;

/// Forced preemption threshold: a thread that passes this many
/// consecutive yield points while other threads are runnable is
/// preempted regardless of strategy, so busy-wait loops in model code
/// cannot livelock a schedule.
const FAIRNESS_LIMIT: u32 = 64;

/// Hard cap on scheduling decisions per schedule; exceeding it fails
/// the run (runaway livelock in the modelled code).
const MAX_STEPS: usize = 200_000;

/// Why a model run failed.
#[derive(Clone, Debug)]
pub(crate) enum FailureKind {
    /// Every live model thread is blocked.
    Deadlock,
    /// A ranked lock was acquired out of hierarchy order.
    LockOrder,
    /// A model thread panicked (assertion failure in the test body).
    Panic,
    /// The schedule exceeded [`MAX_STEPS`] decisions.
    Runaway,
    /// Two unsynchronized accesses to a [`crate::CheckCell`], at least
    /// one a write, with no happens-before edge between them.
    DataRace,
}

/// What kind of operation a yield point is about to perform; drives the
/// independence relation behind the sleep sets and the canonical trace
/// hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    AtomicLoad,
    AtomicStore,
    AtomicRmw,
    CellRead,
    CellWrite,
    Lock,
    /// Conservatively dependent with everything (spawn, notify, and any
    /// untagged yield).
    Global,
}

/// A yield point's pending operation: which object, what kind.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpTag {
    pub(crate) obj: usize,
    pub(crate) kind: OpKind,
}

impl OpTag {
    pub(crate) const GLOBAL: OpTag = OpTag {
        obj: 0,
        kind: OpKind::Global,
    };

    fn read_like(self) -> bool {
        matches!(self.kind, OpKind::AtomicLoad | OpKind::CellRead)
    }

    /// Two operations are dependent iff reordering them can change the
    /// outcome: anything global, or two accesses to the same object
    /// that are not both read-like.
    fn dependent(self, other: OpTag) -> bool {
        if self.kind == OpKind::Global || other.kind == OpKind::Global {
            return true;
        }
        self.obj == other.obj && !(self.read_like() && other.read_like())
    }
}

/// A recorded model-run failure: what happened plus the schedule that
/// makes it happen again.
#[derive(Clone, Debug)]
pub(crate) struct Failure {
    pub(crate) kind: FailureKind,
    pub(crate) message: String,
    /// Comma-separated thread ids, one per scheduling decision.
    pub(crate) replay: String,
}

/// Sentinel unwind payload used to tear a model thread down once the
/// run has failed; raised with `resume_unwind` so no panic hook fires.
pub(crate) struct AbortUnwind;

/// How the scheduler chooses the next thread at a decision point.
pub(crate) enum Decider {
    /// Uniform choice among runnable threads (seeded random walk).
    Random(SplitMix64),
    /// Prefer the running thread; preempt at most `bound` times per
    /// schedule (sleep-set-free bounded-preemption walk).
    BoundedPreemption {
        /// RNG used both to decide *whether* to preempt and *whom* to run.
        rng: SplitMix64,
        /// Preemptions still available in this schedule.
        remaining: u32,
    },
    /// Follow a recorded schedule; fall back to the first candidate
    /// once the recording is exhausted or diverges.
    Replay {
        /// Recorded thread choices, oldest first.
        tids: Vec<usize>,
        /// Next index into `tids`.
        at: usize,
    },
}

/// SplitMix64: tiny, seedable, deterministic — all the checker needs.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Logically executing (or real-blocked inside its step).
    Running,
    /// At a yield point, waiting to be picked.
    Ready,
    /// Parked until the lock at this address frees.
    BlockedLock(usize),
    /// Parked on the condvar at this address.
    BlockedCv(usize),
    /// Parked until thread `tid` finishes.
    BlockedJoin(usize),
    /// Finished (normally or by abort unwind).
    Done,
}

struct ThreadState {
    status: Status,
    /// Ranked locks currently held: (lock address, level).
    held: Vec<(usize, LockLevel)>,
    /// Consecutive decisions that kept this thread running.
    streak: u32,
    /// This thread's happens-before knowledge.
    clock: VClock,
    /// The operation the thread will perform when next scheduled
    /// (set at its yield point, consumed when it is picked).
    pending: Option<OpTag>,
}

impl ThreadState {
    fn new(status: Status, clock: VClock) -> ThreadState {
        ThreadState {
            status,
            held: Vec::new(),
            streak: 0,
            clock,
            pending: None,
        }
    }
}

struct LockState {
    owner: Option<usize>,
}

struct State {
    threads: Vec<ThreadState>,
    current: usize,
    locks: HashMap<usize, LockState>,
    cv_waiters: HashMap<usize, Vec<usize>>,
    decider: Decider,
    trace: Vec<usize>,
    failure: Option<Failure>,
    abort: bool,
    /// Clock published by the last release of each lock.
    lock_clocks: HashMap<usize, VClock>,
    /// Clock accumulated by notifies of each condvar.
    cv_clocks: HashMap<usize, VClock>,
    /// Clock accumulated by release-writes to each checked atomic.
    atomic_clocks: HashMap<usize, VClock>,
    /// FastTrack access metadata per [`crate::CheckCell`], keyed by the
    /// cell's address and carrying its label.
    cells: HashMap<usize, (&'static str, CellMeta)>,
    /// Sleep set: Ready threads whose pending operation is independent
    /// of everything executed since they were passed over.
    sleep: HashSet<usize>,
    /// Decisions taken while the sleep set was non-empty; cleared with
    /// the set. Bounds how long a sleeper can be deferred, so a
    /// busy-wait polling independent state cannot starve the thread it
    /// is waiting for (trace equivalence holds per finite prefix, but a
    /// walk does not backtrack — liveness needs the bound).
    sleep_age: u32,
    /// Canonical (order-insensitive) hash of the executed operations.
    foata: Foata,
}

/// One model run's scheduler. Shared by every model thread of the run
/// via `Arc`; internally a plain std mutex + condvar (never the
/// instrumented kind).
pub(crate) struct Sched {
    state: StdMutex<State>,
    cv: StdCondvar,
    /// Quick pre-lock check so finished runs stop paying for the mutex.
    aborted: AtomicBool,
    /// Real join handles of spawned model threads, drained by the
    /// explorer at the end of the run.
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Sched>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's scheduler context, if it is a model thread.
pub(crate) fn current() -> Option<(Arc<Sched>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// Install `ctx` as the calling thread's model context (used by the
/// spawn wrapper in `explore`).
pub(crate) fn set_current(ctx: Option<(Arc<Sched>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

impl Sched {
    /// A scheduler whose root thread (tid 0) is already running.
    pub(crate) fn new(decider: Decider) -> Sched {
        // Every thread's clock starts with its own component at 1, so a
        // fresh thread's accesses are never mistaken for ordered-after
        // by a clock that has merely never heard of it (zero default).
        let mut root_clock = VClock::default();
        root_clock.bump(0);
        Sched {
            state: StdMutex::new(State {
                threads: vec![ThreadState::new(Status::Running, root_clock)],
                current: 0,
                locks: HashMap::new(),
                cv_waiters: HashMap::new(),
                decider,
                trace: Vec::new(),
                failure: None,
                abort: false,
                lock_clocks: HashMap::new(),
                cv_clocks: HashMap::new(),
                atomic_clocks: HashMap::new(),
                cells: HashMap::new(),
                sleep: HashSet::new(),
                sleep_age: 0,
                foata: Foata::default(),
            }),
            cv: StdCondvar::new(),
            aborted: AtomicBool::new(false),
            handles: StdMutex::new(Vec::new()),
        }
    }

    /// Stash a spawned thread's real join handle for end-of-run
    /// teardown.
    pub(crate) fn stash_handle(&self, h: std::thread::JoinHandle<()>) {
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }

    /// Drain the stashed join handles.
    pub(crate) fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// First park of a freshly spawned model thread: wait to be
    /// scheduled before running any model code.
    pub(crate) fn wait_first(&self, me: usize) {
        if self.abort_gate() {
            return;
        }
        let st = self.lock_state();
        self.wait_until_running(st, me);
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a new model thread spawned by `parent`; returns its tid
    /// (caller spawns the real thread). Spawn is a happens-before edge:
    /// the child starts with everything the parent has seen.
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        let mut clock = st.threads[parent].clock.clone();
        clock.bump(tid);
        st.threads[parent].clock.bump(parent);
        st.threads.push(ThreadState::new(Status::Ready, clock));
        tid
    }

    /// The failure recorded for this run, if any.
    pub(crate) fn failure(&self) -> Option<Failure> {
        self.lock_state().failure.clone()
    }

    // ---------------------------------------------------------------
    // Yield points
    // ---------------------------------------------------------------

    /// Abort check at an instrumented-operation entry. During teardown
    /// this unwinds the thread — unless it is already unwinding (guard
    /// drops), in which case the operation proceeds permissively.
    /// Returns `true` if the caller should skip scheduler bookkeeping.
    fn abort_gate(&self) -> bool {
        if self.aborted.load(Ordering::Relaxed) {
            if std::thread::panicking() {
                return true;
            }
            self.unwind_abort();
        }
        false
    }

    /// Plain yield point with no object information (conservatively
    /// dependent with everything).
    pub(crate) fn yield_point(&self, me: usize) {
        self.yield_op(me, OpTag::GLOBAL);
    }

    /// Tagged yield point: let the scheduler pick who runs next,
    /// knowing what `me` will do when it resumes.
    pub(crate) fn yield_op(&self, me: usize, tag: OpTag) {
        if self.abort_gate() {
            return;
        }
        let mut st = self.lock_state();
        st.threads[me].status = Status::Ready;
        st.threads[me].pending = Some(tag);
        self.pick_next(&mut st, me);
        self.wait_until_running(st, me);
    }

    /// Give the lock at `addr` to `me` (hierarchy check, ownership,
    /// acquire edge from the last release).
    fn grant_lock(&self, st: &mut State, me: usize, addr: usize, level: LockLevel) {
        self.check_hierarchy(st, me, addr, level);
        st.locks.insert(addr, LockState { owner: Some(me) });
        if level != LockLevel::Unranked {
            st.threads[me].held.push((addr, level));
        }
        let State {
            lock_clocks,
            threads,
            ..
        } = st;
        if let Some(lc) = lock_clocks.get(&addr) {
            threads[me].clock.join(lc);
        }
    }

    /// Release edge: publish `me`'s clock to the lock at `addr` and
    /// advance past the published point.
    fn publish_lock(st: &mut State, me: usize, addr: usize) {
        let State {
            lock_clocks,
            threads,
            ..
        } = st;
        lock_clocks
            .entry(addr)
            .or_default()
            .join(&threads[me].clock);
        threads[me].clock.bump(me);
    }

    /// Acquire the model lock at `addr` (ranked `level`), blocking at
    /// scheduler level while another model thread owns it. The caller
    /// takes the real lock afterwards.
    pub(crate) fn lock_acquire(&self, me: usize, addr: usize, level: LockLevel) {
        if self.abort_gate() {
            return;
        }
        // Acquisition is a decision point: others may run first.
        self.yield_op(
            me,
            OpTag {
                obj: addr,
                kind: OpKind::Lock,
            },
        );
        let mut st = self.lock_state();
        loop {
            let owned = st
                .locks
                .get(&addr)
                .is_some_and(|l| l.owner.is_some_and(|o| o != me));
            if !owned {
                self.grant_lock(&mut st, me, addr, level);
                return;
            }
            st.threads[me].status = Status::BlockedLock(addr);
            self.pick_next(&mut st, me);
            st = self.wait_until_running_locked(st, me);
        }
    }

    /// Try to take the model lock at `addr` without blocking. A yield
    /// point; returns whether the lock was granted.
    pub(crate) fn lock_try_acquire(&self, me: usize, addr: usize, level: LockLevel) -> bool {
        if self.abort_gate() {
            return true;
        }
        self.yield_op(
            me,
            OpTag {
                obj: addr,
                kind: OpKind::Lock,
            },
        );
        let mut st = self.lock_state();
        let owned = st
            .locks
            .get(&addr)
            .is_some_and(|l| l.owner.is_some_and(|o| o != me));
        if owned {
            return false;
        }
        self.grant_lock(&mut st, me, addr, level);
        true
    }

    /// Release the model lock at `addr` and wake its waiters. Called
    /// from guard drops: never blocks, never panics mid-unwind.
    pub(crate) fn lock_release(&self, me: usize, addr: usize) {
        let mut st = self.lock_state();
        if let Some(l) = st.locks.get_mut(&addr) {
            if l.owner == Some(me) {
                l.owner = None;
            }
        }
        st.threads[me].held.retain(|&(a, _)| a != addr);
        Self::publish_lock(&mut st, me, addr);
        let mut woke = false;
        for t in st.threads.iter_mut() {
            if t.status == Status::BlockedLock(addr) {
                t.status = Status::Ready;
                woke = true;
            }
        }
        if woke {
            self.cv.notify_all();
        }
    }

    /// Park on the condvar at `cv_addr`, releasing the model lock at
    /// `lock_addr` while parked and re-acquiring it before returning.
    pub(crate) fn cv_wait(&self, me: usize, cv_addr: usize, lock_addr: usize, level: LockLevel) {
        if self.abort_gate() {
            return;
        }
        {
            let mut st = self.lock_state();
            if let Some(l) = st.locks.get_mut(&lock_addr) {
                if l.owner == Some(me) {
                    l.owner = None;
                }
            }
            st.threads[me].held.retain(|&(a, _)| a != lock_addr);
            Self::publish_lock(&mut st, me, lock_addr);
            let mut woke = false;
            for t in st.threads.iter_mut() {
                if t.status == Status::BlockedLock(lock_addr) {
                    t.status = Status::Ready;
                    woke = true;
                }
            }
            if woke {
                self.cv.notify_all();
            }
            st.cv_waiters.entry(cv_addr).or_default().push(me);
            st.threads[me].status = Status::BlockedCv(cv_addr);
            self.pick_next(&mut st, me);
            let mut st = self.wait_until_running_locked(st, me);
            // Woken by a notify: absorb the notifiers' published clocks
            // (the actual waker's clock is among them).
            let State {
                cv_clocks, threads, ..
            } = &mut *st;
            if let Some(cc) = cv_clocks.get(&cv_addr) {
                threads[me].clock.join(cc);
            }
            drop(st);
        }
        // Woken: re-acquire the lock (no extra yield; being scheduled
        // was the decision).
        let mut st = self.lock_state();
        loop {
            let owned = st
                .locks
                .get(&lock_addr)
                .is_some_and(|l| l.owner.is_some_and(|o| o != me));
            if !owned {
                self.grant_lock(&mut st, me, lock_addr, level);
                return;
            }
            st.threads[me].status = Status::BlockedLock(lock_addr);
            self.pick_next(&mut st, me);
            st = self.wait_until_running_locked(st, me);
        }
    }

    /// Wake one or all waiters of the condvar at `cv_addr`. Waking is a
    /// decision point (the scheduler may run a woken thread first).
    pub(crate) fn cv_notify(&self, me: usize, cv_addr: usize, all: bool) {
        if self.abort_gate() {
            return;
        }
        {
            let mut st = self.lock_state();
            // Notify edge: whoever wakes will absorb this clock.
            {
                let State {
                    cv_clocks, threads, ..
                } = &mut *st;
                cv_clocks
                    .entry(cv_addr)
                    .or_default()
                    .join(&threads[me].clock);
                threads[me].clock.bump(me);
            }
            let n_waiting = st.cv_waiters.get(&cv_addr).map_or(0, Vec::len);
            let woken: Vec<usize> = if n_waiting == 0 {
                Vec::new()
            } else if all {
                std::mem::take(st.cv_waiters.get_mut(&cv_addr).expect("non-empty entry"))
            } else {
                // Which waiter notify_one wakes is itself a scheduling
                // decision: explored when recording, recorded in the
                // trace, consumed on replay.
                let i = if n_waiting == 1 {
                    0
                } else {
                    match &mut st.decider {
                        Decider::Random(rng) => rng.below(n_waiting),
                        Decider::BoundedPreemption { rng, .. } => rng.below(n_waiting),
                        Decider::Replay { tids, at } => {
                            let want = tids.get(*at).copied();
                            *at += 1;
                            let w = st.cv_waiters.get(&cv_addr).expect("non-empty entry");
                            want.and_then(|t| w.iter().position(|&x| x == t))
                                .unwrap_or(0)
                        }
                    }
                };
                let tid = st
                    .cv_waiters
                    .get_mut(&cv_addr)
                    .expect("non-empty entry")
                    .remove(i);
                if n_waiting > 1 {
                    st.trace.push(tid);
                }
                vec![tid]
            };
            let mut any = false;
            for tid in woken {
                st.threads[tid].status = Status::Ready;
                any = true;
            }
            if any {
                self.cv.notify_all();
            }
        }
        self.yield_point(me);
    }

    /// Block until thread `tid` finishes. Join is a happens-before
    /// edge: the joiner absorbs everything the child did.
    pub(crate) fn join(&self, me: usize, tid: usize) {
        if self.abort_gate() {
            return;
        }
        let mut st = self.lock_state();
        while st.threads[tid].status != Status::Done {
            st.threads[me].status = Status::BlockedJoin(tid);
            self.pick_next(&mut st, me);
            st = self.wait_until_running_locked(st, me);
        }
        let child = st.threads[tid].clock.clone();
        st.threads[me].clock.join(&child);
    }

    /// Apply the happens-before edges of an atomic operation that just
    /// executed on the atomic at `addr`: an acquire side joins the
    /// atomic's published clock into the thread, a release side
    /// publishes the thread's clock to the atomic. `Relaxed` passes
    /// `(false, false)` and propagates nothing.
    pub(crate) fn atomic_sync(&self, me: usize, addr: usize, acquire: bool, release: bool) {
        if !acquire && !release {
            return;
        }
        if self.aborted.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.lock_state();
        let State {
            atomic_clocks,
            threads,
            ..
        } = &mut *st;
        let w = atomic_clocks.entry(addr).or_default();
        if acquire {
            threads[me].clock.join(w);
        }
        if release {
            w.join(&threads[me].clock);
            threads[me].clock.bump(me);
        }
    }

    /// A [`crate::CheckCell`] access: a tagged yield point followed by
    /// a FastTrack check of the access against the happens-before
    /// clocks. A conflicting concurrent pair fails the run as a
    /// [`FailureKind::DataRace`] naming both sites.
    pub(crate) fn cell_access(
        &self,
        me: usize,
        addr: usize,
        label: &'static str,
        write: bool,
        loc: &'static Location<'static>,
    ) {
        if self.abort_gate() {
            return;
        }
        self.yield_op(
            me,
            OpTag {
                obj: addr,
                kind: if write {
                    OpKind::CellWrite
                } else {
                    OpKind::CellRead
                },
            },
        );
        let mut st = self.lock_state();
        if st.abort {
            return;
        }
        let clock = st.threads[me].clock.clone();
        let site = Site { tid: me, loc };
        let meta = &mut st
            .cells
            .entry(addr)
            .or_insert_with(|| (label, CellMeta::new()))
            .1;
        let res = if write {
            meta.on_write(me, &clock, site)
        } else {
            meta.on_read(me, &clock, site)
        };
        if let Err(prior) = res {
            let this_kind = if write { "write" } else { "read" };
            let msg = format!(
                "data race on `{label}`: {} by thread {} at {} is concurrent with {} by thread {} at {}",
                prior.kind, prior.site.tid, prior.site.loc, this_kind, me, loc,
            );
            self.fail_locked(&mut st, FailureKind::DataRace, msg);
        }
    }

    /// Mark the calling thread finished and schedule a successor.
    pub(crate) fn thread_done(&self, me: usize) {
        let mut st = self.lock_state();
        st.threads[me].status = Status::Done;
        let mut woke = false;
        for t in st.threads.iter_mut() {
            if t.status == Status::BlockedJoin(me) {
                t.status = Status::Ready;
                woke = true;
            }
        }
        if woke {
            self.cv.notify_all();
        }
        self.pick_next(&mut st, me);
    }

    /// Record a failure (first one wins) and begin tearing the run
    /// down. Does not unwind the caller.
    pub(crate) fn fail(&self, kind: FailureKind, message: String) {
        let mut st = self.lock_state();
        self.fail_locked(&mut st, kind, message);
    }

    /// [`Sched::fail`] with the state lock already held.
    fn fail_locked(&self, st: &mut State, kind: FailureKind, message: String) {
        if st.failure.is_none() {
            let replay = trace_string(&st.trace);
            st.failure = Some(Failure {
                kind,
                message,
                replay,
            });
        }
        st.abort = true;
        self.aborted.store(true, Ordering::Relaxed);
        self.cv.notify_all();
    }

    fn unwind_abort(&self) -> ! {
        resume_unwind(Box::new(AbortUnwind))
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// Strict-ascent hierarchy check for acquiring (`addr`, `level`).
    fn check_hierarchy(&self, st: &mut State, me: usize, addr: usize, level: LockLevel) {
        if level == LockLevel::Unranked {
            return;
        }
        let viol = st.threads[me]
            .held
            .iter()
            .find(|&&(a, held)| a != addr && held != LockLevel::Unranked && held >= level)
            .copied();
        if let Some((_, held)) = viol {
            let msg = format!(
                "lock-order inversion: thread {me} acquired {} (rank {}) while holding {} (rank {})",
                level.name(),
                level.rank(),
                held.name(),
                held.rank(),
            );
            self.fail_locked(st, FailureKind::LockOrder, msg);
        }
    }

    /// Choose and install the next running thread. `me` has already set
    /// its own (non-Running) status. Detects deadlock and runaways.
    fn pick_next(&self, st: &mut State, me: usize) {
        if st.abort {
            return;
        }
        if st.trace.len() >= MAX_STEPS {
            let replay = trace_string(&st.trace[..64.min(st.trace.len())]);
            if st.failure.is_none() {
                st.failure = Some(Failure {
                    kind: FailureKind::Runaway,
                    message: format!("schedule exceeded {MAX_STEPS} decisions (livelock?)"),
                    replay,
                });
            }
            st.abort = true;
            self.aborted.store(true, Ordering::Relaxed);
            self.cv.notify_all();
            return;
        }
        let ready: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Ready)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Done) {
                return; // clean end of run
            }
            // `me` just blocked or finished and nobody can run: every
            // live thread is parked — deadlock / lost wakeup.
            let detail: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Done)
                .map(|(i, t)| match t.status {
                    Status::BlockedLock(a) => format!("thread {i} blocked on lock {a:#x}"),
                    Status::BlockedCv(a) => format!("thread {i} waiting on condvar {a:#x}"),
                    Status::BlockedJoin(t2) => format!("thread {i} joining thread {t2}"),
                    _ => format!("thread {i} in state {:?}", t.status),
                })
                .collect();
            self.fail_locked(
                st,
                FailureKind::Deadlock,
                format!("deadlock: {}", detail.join("; ")),
            );
            return;
        }
        // Sleep-set partial-order reduction: a sleeping thread's next
        // operation commutes with everything executed since it was put
        // to sleep, so scheduling it now reaches a state some other
        // schedule already covers. Deadlock detection above uses the
        // full ready set — sleep never hides a runnable thread there.
        // The age bound keeps the walk live: deferring a sleeper is
        // equivalence-preserving per step, but a poll loop over
        // independent state would otherwise defer it forever.
        if !st.sleep.is_empty() {
            st.sleep_age += 1;
            if st.sleep_age > FAIRNESS_LIMIT {
                st.sleep.clear();
            }
        }
        if st.sleep.is_empty() {
            st.sleep_age = 0;
        }
        let mut candidates: Vec<usize> = ready
            .iter()
            .copied()
            .filter(|t| !st.sleep.contains(t))
            .collect();
        if candidates.is_empty() {
            st.sleep.clear();
            st.sleep_age = 0;
            candidates = ready;
        }
        let chosen = if candidates.len() == 1 {
            candidates[0]
        } else {
            let prev = st.current;
            let streak = st.threads[prev].streak;
            let pick = match &mut st.decider {
                Decider::Random(rng) => candidates[rng.below(candidates.len())],
                Decider::BoundedPreemption { rng, remaining } => {
                    let continuing = candidates.contains(&prev) && prev == me;
                    if continuing && streak < FAIRNESS_LIMIT {
                        let preempt = *remaining > 0 && rng.next() % 4 == 0;
                        if preempt {
                            *remaining -= 1;
                            let others: Vec<usize> =
                                candidates.iter().copied().filter(|&t| t != prev).collect();
                            others[rng.below(others.len())]
                        } else {
                            prev
                        }
                    } else if continuing {
                        // Fairness fallback: forced switch.
                        let others: Vec<usize> =
                            candidates.iter().copied().filter(|&t| t != prev).collect();
                        others[rng.below(others.len())]
                    } else {
                        candidates[rng.below(candidates.len())]
                    }
                }
                Decider::Replay { tids, at } => {
                    let want = tids.get(*at).copied();
                    *at += 1;
                    match want {
                        Some(t) if candidates.contains(&t) => t,
                        _ => candidates[0],
                    }
                }
            };
            st.trace.push(pick);
            pick
        };
        // The chosen thread's pending operation executes next: fold it
        // into the canonical trace hash, wake sleepers that depend on
        // it, and put passed-over candidates whose next operation is
        // independent of it to sleep.
        st.sleep.remove(&chosen);
        if let Some(tag) = st.threads[chosen].pending.take() {
            st.foata.record(
                chosen,
                tag.obj,
                tag.kind as u8,
                tag.read_like(),
                tag.kind == OpKind::Global,
            );
            let State { sleep, threads, .. } = &mut *st;
            sleep.retain(|&u| matches!(threads[u].pending, Some(p) if !p.dependent(tag)));
            for &u in &candidates {
                if u == chosen {
                    continue;
                }
                if let Some(p) = threads[u].pending {
                    if !p.dependent(tag) {
                        sleep.insert(u);
                    }
                }
            }
        }
        if chosen == st.current {
            st.threads[chosen].streak += 1;
        } else {
            st.threads[chosen].streak = 0;
        }
        st.current = chosen;
        st.threads[chosen].status = Status::Running;
        self.cv.notify_all();
    }

    /// Park until `me` is the running thread (or the run aborts).
    fn wait_until_running(&self, st: std::sync::MutexGuard<'_, State>, me: usize) {
        let st = self.wait_until_running_locked(st, me);
        drop(st);
    }

    fn wait_until_running_locked<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, State>,
        me: usize,
    ) -> std::sync::MutexGuard<'a, State> {
        loop {
            if st.abort {
                drop(st);
                if std::thread::panicking() {
                    // Already unwinding (guard drops during teardown):
                    // proceed permissively rather than double-panic.
                    return self.lock_state();
                }
                self.unwind_abort();
            }
            if st.threads[me].status == Status::Running {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Render a schedule as its replay string.
fn trace_string(trace: &[usize]) -> String {
    let parts: Vec<String> = trace.iter().map(|t| t.to_string()).collect();
    parts.join(",")
}

/// Parse a replay string back into thread choices.
pub(crate) fn parse_trace(s: &str) -> Vec<usize> {
    s.split(',')
        .filter(|p| !p.trim().is_empty())
        .filter_map(|p| p.trim().parse().ok())
        .collect()
}

/// The canonical (Foata) hash of the executed schedule: equal for
/// schedules that only permute independent operations. The explorer
/// counts distinct schedules with this, so the count reflects
/// genuinely different interleavings, not decision-string noise.
pub(crate) fn canonical_hash(sched: &Sched) -> u64 {
    sched.lock_state().foata.hash()
}
