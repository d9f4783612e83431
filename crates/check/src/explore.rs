//! Schedule exploration: run a model many times under different
//! deterministic schedules and report what was found.
//!
//! A *model* is a closure that builds some shared state, spawns model
//! threads with [`spawn`], joins them, and asserts invariants. The
//! [`Explorer`] runs the model once per schedule: even iterations use a
//! seeded uniform random walk over the runnable threads, odd iterations
//! a bounded-preemption walk (prefer the running thread, preempt at
//! most 1–3 times), which concentrates probability on the low-preemption
//! schedules where most real concurrency bugs live. Distinct schedules
//! are counted by hashing the decision trace.
//!
//! On the first failing schedule the explorer stops and reports a
//! [`CheckFailure`] carrying the failure message and a **replay
//! string** — the exact decision sequence — which [`replay`] (or
//! `Explorer::replay`) re-executes deterministically.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::sched::{
    self, canonical_hash, parse_trace, AbortUnwind, Decider, FailureKind, Sched, SplitMix64,
};

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Schedules to run (exploration stops early on failure).
    pub iterations: usize,
    /// Base seed; iteration `i` uses `seed + i`.
    pub seed: u64,
}

impl Config {
    /// `iterations` schedules from seed 0.
    pub fn new(iterations: usize) -> Config {
        Config {
            iterations,
            seed: 0,
        }
    }
}

/// What an exploration found.
#[derive(Clone, Debug)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct schedules among them, counted by the canonical Foata
    /// hash of the executed operations: two schedules that merely
    /// permute independent operations count once.
    pub distinct: usize,
    /// The first failure, if any schedule failed.
    pub failure: Option<CheckFailure>,
}

/// A failing schedule: what broke and how to run it again.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Failure class and detail (deadlock participants, the panic
    /// message, or the lock-order pair).
    pub message: String,
    /// Comma-separated scheduling decisions; feed to [`replay`].
    pub replay: String,
    /// Seed of the failing iteration.
    pub seed: u64,
}

/// Handle to a model thread spawned with [`spawn`].
#[must_use = "join model threads (or the scheduler may report a false deadlock)"]
pub struct JoinHandle {
    tid: usize,
}

impl JoinHandle {
    /// Block (at scheduler level) until the thread finishes.
    pub fn join(self) {
        if let Some((s, me)) = sched::current() {
            s.join(me, self.tid);
        }
    }
}

/// Spawn a model thread. Must be called from inside a model run; the
/// new thread does not execute until the scheduler picks it.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
    let (s, parent) = sched::current().expect("pario_check::spawn outside a model run");
    let tid = s.sched_spawn(parent, f);
    JoinHandle { tid }
}

/// Yield the calling model thread to the scheduler (an untagged
/// decision point) and report `true`; off a model thread, do nothing
/// and report `false`. For code that must wait on a free-running
/// helper thread: a model thread that real-blocks while *Running*
/// stalls every other model thread, so when the helper may itself be
/// waiting for one of them, poll and yield instead of blocking.
pub fn yield_now() -> bool {
    match sched::current() {
        Some((s, me)) => {
            s.yield_point(me);
            true
        }
        None => false,
    }
}

impl Sched {
    /// Register and start a model thread running `f` (parked until
    /// scheduled). Spawning establishes the parent→child happens-before
    /// edge.
    fn sched_spawn<F: FnOnce() + Send + 'static>(self: &Arc<Self>, parent: usize, f: F) -> usize {
        let tid = self.register_thread(parent);
        let s = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("pario-check-{tid}"))
            .spawn(move || {
                sched::set_current(Some((Arc::clone(&s), tid)));
                s.wait_first(tid);
                let r = catch_unwind(AssertUnwindSafe(f));
                if let Err(p) = r {
                    if !p.is::<AbortUnwind>() {
                        s.fail(FailureKind::Panic, panic_message(p.as_ref()));
                    }
                }
                s.thread_done(tid);
                sched::set_current(None);
            })
            .expect("spawn model thread");
        self.stash_handle(h);
        tid
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("model thread panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("model thread panicked: {s}")
    } else {
        "model thread panicked".to_string()
    }
}

/// Runs a model under many schedules; see the module docs.
pub struct Explorer {
    config: Config,
}

impl Explorer {
    /// An explorer with the given configuration.
    pub fn new(config: Config) -> Explorer {
        Explorer { config }
    }

    /// Explore `config.iterations` schedules of `model`, stopping at
    /// the first failure. Prints failures (with their replay string) to
    /// stderr.
    pub fn run<F>(&self, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let model: Arc<dyn Fn() + Send + Sync> = Arc::new(model);
        let mut seen = HashSet::new();
        let mut schedules = 0;
        for i in 0..self.config.iterations {
            let seed = self.config.seed.wrapping_add(i as u64);
            let decider = if i % 2 == 0 {
                Decider::Random(SplitMix64::new(seed))
            } else {
                Decider::BoundedPreemption {
                    rng: SplitMix64::new(seed),
                    remaining: 1 + (i as u32 / 2) % 3,
                }
            };
            let (failure, hash) = run_one(decider, Arc::clone(&model));
            schedules += 1;
            seen.insert(hash);
            if let Some(f) = failure {
                let fail = CheckFailure {
                    message: format!("[{:?}] {}", f.kind, f.message),
                    replay: f.replay,
                    seed,
                };
                eprintln!(
                    "pario-check: schedule #{schedules} (seed {seed}) failed: {}",
                    fail.message
                );
                eprintln!("pario-check: replay string: \"{}\"", fail.replay);
                return Report {
                    schedules,
                    distinct: seen.len(),
                    failure: Some(fail),
                };
            }
        }
        Report {
            schedules,
            distinct: seen.len(),
            failure: None,
        }
    }

    /// Re-execute one recorded schedule (from a failure's replay
    /// string) and return what it finds.
    pub fn replay<F>(&self, replay_str: &str, model: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let decider = Decider::Replay {
            tids: parse_trace(replay_str),
            at: 0,
        };
        let (failure, _hash) = run_one(decider, Arc::new(model) as Arc<dyn Fn() + Send + Sync>);
        Report {
            schedules: 1,
            distinct: 1,
            failure: failure.map(|f| CheckFailure {
                message: format!("[{:?}] {}", f.kind, f.message),
                replay: f.replay,
                seed: 0,
            }),
        }
    }
}

/// Convenience wrapper: replay `replay_str` against `model` once.
pub fn replay<F>(replay_str: &str, model: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Explorer::new(Config::new(1)).replay(replay_str, model)
}

/// Execute one schedule: root model thread runs the closure to
/// completion (or failure), then every model thread is torn down.
/// Returns the failure (if any) and the schedule's canonical hash.
fn run_one(decider: Decider, model: Arc<dyn Fn() + Send + Sync>) -> (Option<sched::Failure>, u64) {
    let sched = Arc::new(Sched::new(decider));
    let s = Arc::clone(&sched);
    let root = std::thread::Builder::new()
        .name("pario-check-root".into())
        .spawn(move || {
            sched::set_current(Some((Arc::clone(&s), 0)));
            let r = catch_unwind(AssertUnwindSafe(|| model()));
            if let Err(p) = r {
                if !p.is::<AbortUnwind>() {
                    s.fail(FailureKind::Panic, panic_message(p.as_ref()));
                }
            }
            s.thread_done(0);
            sched::set_current(None);
        })
        .expect("spawn model root thread");
    root.join().expect("model root thread never panics through");
    // Model threads may themselves have spawned threads after the root
    // exited; drain until quiescent.
    loop {
        let hs = sched.take_handles();
        if hs.is_empty() {
            break;
        }
        for h in hs {
            let _ = h.join();
        }
    }
    let failure = sched.failure();
    let hash = canonical_hash(&sched);
    (failure, hash)
}
