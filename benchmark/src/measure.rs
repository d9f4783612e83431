//! The closed-loop generator: two client threads, each issuing its next
//! op only after the previous one returned, for a warm-up followed by a
//! whole number of fixed-length windows.
//!
//! The generator never spins or yields: a client is either inside a
//! call into the system, recording its result, or (once a millisecond)
//! running the calibration kernel; the main thread sleeps between
//! window boundaries.

use std::sync::Arc;
use std::time::Duration;

use crate::calib::{correction, reading, Calibrator};
use crate::probe_disk::TraceCtl;
use crate::procfs::cpu_us;
use crate::stats::Window;

/// Client threads (and connections) per workload: the box has two
/// cores, and the paper's clients are the processes of one program.
pub const CLIENTS: usize = 2;

/// One op as the generator saw it.
#[derive(Copy, Clone, Debug)]
pub struct Sample {
    /// Call time, `TraceCtl` nanoseconds.
    pub start_ns: u64,
    /// Call-to-return latency.
    pub lat_ns: u32,
    /// Write (`true`) or read.
    pub write: bool,
    /// The op returned `Ok` and, for a read, the bytes were right.
    pub ok: bool,
}

impl Sample {
    /// Return time.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.lat_ns as u64
    }
}

/// One closed-loop client. `step` runs op number `i` of the client's
/// stream, clocking only the call into the system; building the
/// request and checking the reply happen outside the clocked region.
pub trait Client: Send {
    fn step(&mut self, i: usize, ctl: &TraceCtl) -> Sample;

    /// The first error the client met, for the run's notes.
    fn first_error(&self) -> Option<&str>;
}

/// How long to run and how to cut it.
#[derive(Copy, Clone, Debug)]
pub struct Schedule {
    /// Unmeasured lead-in.
    pub warmup_ns: u64,
    /// Length of one window.
    pub window_ns: u64,
    /// Measured windows.
    pub windows: usize,
    /// Switch leaf-span tracing on for every odd window (the traced
    /// run: traced and untraced windows interleave so drift cancels).
    pub alternate_trace: bool,
}

impl Schedule {
    /// `seconds` of measurement cut into windows of `window_s` after
    /// `warmup_s` of lead-in. A run too short for that still gets one
    /// window (two when alternating, so one of them is traced), each
    /// correspondingly shorter.
    pub fn new(seconds: f64, window_s: f64, warmup_s: f64, alternate_trace: bool) -> Schedule {
        let least = if alternate_trace { 2 } else { 1 };
        let windows = ((seconds / window_s).floor() as usize).max(least);
        Schedule {
            warmup_ns: (warmup_s * 1e9) as u64,
            window_ns: (window_s.min(seconds / windows as f64) * 1e9) as u64,
            windows,
            alternate_trace,
        }
    }

    /// Whether window `w` is a traced one.
    pub fn traced(&self, w: usize) -> bool {
        self.alternate_trace && w % 2 == 1
    }
}

/// What one client logged. Latencies are kept exactly, four bytes an
/// op, filed by the window the op returned in; the full sample is kept
/// only for ops of traced windows.
pub struct ClientLog {
    /// Per window: read latencies and write latencies, nanoseconds.
    pub windows: Vec<[Vec<u32>; 2]>,
    /// `(op index, sample)` of every op that started in a traced window.
    pub traced: Vec<(usize, Sample)>,
    /// Ops issued (warm-up included), and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Ops that returned after the warm-up ended.
    pub measured: u64,
    pub calib: Calibrator,
}

/// What a driven run produced.
pub struct Driven {
    pub logs: Vec<ClientLog>,
    /// Start of window 0.
    pub t_measure: u64,
    /// Per window: share of the wall time the process was on the CPU.
    pub busy: Vec<f64>,
}

fn sleep_until(ctl: &TraceCtl, target_ns: u64) {
    let now = ctl.now_ns();
    if target_ns > now {
        std::thread::sleep(Duration::from_nanos(target_ns - now));
    }
}

/// Run `clients` closed-loop through `sched`. `at_measure_start` runs
/// on the calling thread when the warm-up ends (counter snapshots).
/// The clients come back so their handles drop on the caller's side.
pub fn drive<C: Client>(
    clients: Vec<C>,
    ctl: &Arc<TraceCtl>,
    sched: &Schedule,
    at_measure_start: impl FnOnce(),
) -> (Driven, Vec<C>) {
    let t_start = ctl.now_ns();
    let t_measure = t_start + sched.warmup_ns;
    let t_stop = t_measure + sched.window_ns * sched.windows as u64;
    let window_of = |t: u64| {
        t.checked_sub(t_measure)
            .map(|d| (d / sched.window_ns) as usize)
    };
    let mut logs = Vec::new();
    let mut back = Vec::new();
    let mut busy = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let ctl = &**ctl;
                s.spawn(move || {
                    let mut log = ClientLog {
                        windows: (0..sched.windows)
                            .map(|_| [Vec::new(), Vec::new()])
                            .collect(),
                        traced: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        measured: 0,
                        calib: Calibrator::default(),
                    };
                    for i in 0.. {
                        let sample = client.step(i, ctl);
                        if sample.start_ns >= t_stop {
                            break;
                        }
                        log.attempted += 1;
                        log.failed += !sample.ok as u64;
                        if let (true, Some(w)) = (sample.ok, window_of(sample.end_ns())) {
                            log.measured += 1;
                            if let Some(lat) = log.windows.get_mut(w) {
                                lat[sample.write as usize].push(sample.lat_ns);
                            }
                        }
                        if window_of(sample.start_ns).is_some_and(|w| sched.traced(w)) {
                            log.traced.push((i, sample));
                        }
                        log.calib.tick(ctl, sample.end_ns());
                    }
                    (client, log)
                })
            })
            .collect();
        sleep_until(ctl, t_measure);
        at_measure_start();
        let mut cpu = cpu_us();
        for w in 0..sched.windows {
            ctl.set(sched.traced(w));
            sleep_until(ctl, t_measure + sched.window_ns * (w as u64 + 1));
            let now = cpu_us();
            busy.push((now - cpu) as f64 * 1e3 / sched.window_ns as f64);
            cpu = now;
        }
        ctl.set(false);
        for h in handles {
            let (client, log) = h.join().expect("client thread panicked");
            back.push(client);
            logs.push(log);
        }
    });
    (
        Driven {
            logs,
            t_measure,
            busy,
        },
        back,
    )
}

impl Driven {
    /// The schedule's windows, each with its ops filed by completion
    /// time and, if `corrected`, its clock correction from the
    /// calibration readings and CPU share of that window (the traced
    /// run reports per-layer times as the clock read them, so it asks
    /// for none). Failed ops appear in no window.
    pub fn windows(&mut self, sched: &Schedule, bytes_per_op: u64, corrected: bool) -> Vec<Window> {
        (0..sched.windows)
            .map(|w| {
                let from = self.t_measure + sched.window_ns * w as u64;
                let c = reading(
                    self.logs.iter().map(|l| &l.calib),
                    from,
                    from + sched.window_ns,
                );
                let mut win = Window {
                    nanos: sched.window_ns,
                    scale: if corrected {
                        correction(self.busy[w], c)
                    } else {
                        1.0
                    },
                    ..Window::default()
                };
                for log in &mut self.logs {
                    let [reads, writes] = std::mem::take(&mut log.windows[w]);
                    win.reads.extend(reads);
                    win.writes.extend(writes);
                }
                win.bytes = win.ops() * bytes_per_op;
                win.sort();
                win
            })
            .collect()
    }

    /// The machine-speed reading over the whole measured part.
    pub fn calib_ns(&self, sched: &Schedule) -> Option<f64> {
        reading(
            self.logs.iter().map(|l| &l.calib),
            self.t_measure,
            self.t_measure + sched.window_ns * sched.windows as u64,
        )
    }

    /// Ops that returned after the warm-up ended — the denominator for
    /// counter deltas taken across the measured part.
    pub fn ops_measured(&self) -> u64 {
        self.logs.iter().map(|l| l.measured).sum()
    }

    /// `(attempted, failed)` over the whole run, warm-up included.
    pub fn tally(&self) -> (u64, u64) {
        (
            self.logs.iter().map(|l| l.attempted).sum(),
            self.logs.iter().map(|l| l.failed).sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        lat: Duration,
    }

    impl Client for Fixed {
        fn step(&mut self, i: usize, ctl: &TraceCtl) -> Sample {
            let start_ns = ctl.now_ns();
            std::thread::sleep(self.lat);
            Sample {
                start_ns,
                lat_ns: (ctl.now_ns() - start_ns) as u32,
                write: i.is_multiple_of(4),
                ok: i % 10 != 9,
            }
        }

        fn first_error(&self) -> Option<&str> {
            None
        }
    }

    #[test]
    fn drive_cuts_full_windows_and_tallies_failures() {
        let ctl = TraceCtl::new();
        let sched = Schedule {
            warmup_ns: 20_000_000,
            window_ns: 30_000_000,
            windows: 3,
            alternate_trace: true,
        };
        let clients: Vec<Fixed> = (0..CLIENTS)
            .map(|_| Fixed {
                lat: Duration::from_millis(1),
            })
            .collect();
        let mut started = false;
        let (mut driven, back) = drive(clients, &ctl, &sched, || started = true);
        assert!(started && back.len() == CLIENTS && !ctl.enabled());
        assert_eq!(driven.busy.len(), 3);
        let ws = driven.windows(&sched, 100, true);
        assert_eq!(ws.len(), 3);
        for w in &ws {
            // ~1.06 ms per op, two clients, 30 ms: well above 20 ops.
            assert!(w.ops() > 20 && w.ops() < 70, "{} ops", w.ops());
            assert_eq!(w.bytes, w.ops() * 100);
            assert!(w.reads.len() > w.writes.len());
            assert!(w.reads.windows(2).all(|p| p[0] <= p[1]));
            // (The correction itself is pinned in `calib`; here other
            // tests' threads share the process's CPU time.)
            assert!(w.scale > 0.0 && w.scale.is_finite());
        }
        let (attempted, failed) = driven.tally();
        assert!(failed > 0 && failed < attempted / 5);
        assert!(driven.ops_measured() >= ws.iter().map(Window::ops).sum::<u64>());
        // Only ops of the traced window (index 1) kept their full sample.
        for log in &driven.logs {
            assert!(!log.traced.is_empty() && log.traced.len() < 40);
            assert!(!log.calib.runs.is_empty());
        }
        assert!(sched.traced(1) && !sched.traced(2));
    }
}
