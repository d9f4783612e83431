//! The machine's speed, read while the benchmark runs, and the
//! correction it gives.
//!
//! The sandbox's CPU is not one speed. A fixed chunk of work — copy
//! eight 4 KiB blocks inside a 1 MiB buffer and sum them — takes 9.7 µs
//! when the host is quiet and up to 14 µs when a neighbour is busy, and
//! it moves between the two over seconds. Every CPU-bound number the
//! benchmark takes moves with it: `gda-inproc` windows of 95k and 143k
//! ops/s in one run had kernel readings of 14.3 µs and 9.8 µs, the
//! products agreeing within a few percent (README, "Noise").
//!
//! So each client runs the kernel about once a millisecond between ops,
//! each window gets the lower quartile of its kernel times as its
//! reading `c`, and the window's clock is corrected to what it would
//! have read at the reference speed: of a window's wall time `T`, the
//! share `busy` the process spent on the CPU is scaled by
//! `REFERENCE_NS / c`, the idle share (device sleeps) is left alone.
//! Rates divide by the corrected time, latencies are multiplied by
//! `corrected / T`. At `c = REFERENCE_NS` nothing changes.

use crate::probe_disk::TraceCtl;

/// The kernel time that counts as speed 1: this sandbox's quiet reading.
pub const REFERENCE_NS: f64 = 10_000.0;
/// Least time between two kernel runs of one client.
const EVERY_NS: u64 = 1_000_000;
const BLOCK: usize = 4096;
const ARENA: usize = 1 << 20;

/// One client's calibration kernel and its readings.
pub struct Calibrator {
    src: Vec<u8>,
    dst: Vec<u8>,
    at: usize,
    next_ns: u64,
    /// `(start, duration)` of every kernel run, `TraceCtl` nanoseconds.
    pub runs: Vec<(u64, u32)>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator {
            src: vec![7; ARENA],
            dst: vec![0; ARENA],
            at: 0,
            next_ns: 0,
            runs: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Run the kernel once and record how long it took.
    pub fn run(&mut self, ctl: &TraceCtl) {
        let t0 = ctl.now_ns();
        let mut sum = 0u64;
        for _ in 0..8 {
            self.at = (self.at + BLOCK * 37) % (ARENA - BLOCK);
            let range = self.at..self.at + BLOCK;
            self.dst[range.clone()].copy_from_slice(&self.src[range.clone()]);
            sum += self.dst[range].iter().map(|b| *b as u64).sum::<u64>();
        }
        std::hint::black_box(sum);
        let t1 = ctl.now_ns();
        self.runs.push((t0, (t1 - t0).min(u32::MAX as u64) as u32));
        self.next_ns = t1 + EVERY_NS;
    }

    /// Run the kernel if a millisecond has passed since its last run.
    /// Clients call this between ops with the time they already have.
    pub fn tick(&mut self, ctl: &TraceCtl, now_ns: u64) {
        if now_ns >= self.next_ns {
            self.run(ctl);
        }
    }
}

/// The speed reading of the interval `[from, to)`: the lower quartile
/// of the kernel runs that started inside it (a run the scheduler cut
/// into reads long; the quiet runs are the machine's speed). `None`
/// with no run inside.
pub fn reading<'a>(
    clients: impl IntoIterator<Item = &'a Calibrator>,
    from: u64,
    to: u64,
) -> Option<f64> {
    let mut inside: Vec<u32> = clients
        .into_iter()
        .flat_map(|c| c.runs.iter())
        .filter(|(t, _)| (from..to).contains(t))
        .map(|(_, d)| *d)
        .collect();
    inside.sort_unstable();
    inside.get(inside.len() / 4).map(|ns| *ns as f64)
}

/// Corrected time over wall time for an interval whose process was on
/// the CPU for the share `busy` at speed reading `c`.
pub fn correction(busy: f64, c: Option<f64>) -> f64 {
    match c {
        Some(c) if c > 0.0 => 1.0 + busy.clamp(0.0, 1.0) * (REFERENCE_NS / c - 1.0),
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_only_the_busy_share() {
        assert_eq!(correction(1.0, Some(REFERENCE_NS)), 1.0);
        assert_eq!(correction(0.0, Some(20_000.0)), 1.0);
        // Machine at half speed, always busy: half the reference time passed.
        assert_eq!(correction(1.0, Some(20_000.0)), 0.5);
        // A quarter busy: only that quarter shrinks.
        assert_eq!(correction(0.25, Some(20_000.0)), 0.875);
        assert_eq!(correction(3.0, Some(20_000.0)), 0.5);
        assert_eq!(correction(1.0, None), 1.0);
    }

    #[test]
    fn reading_is_the_lower_quartile_of_runs_inside() {
        let ctl = TraceCtl::new();
        let mut a = Calibrator::default();
        let mut b = Calibrator::default();
        a.runs = vec![(5, 900), (10, 100), (20, 400), (99, 1)];
        b.runs = vec![(12, 200), (30, 300)];
        // Inside [10, 40): 100, 200, 300, 400 -> index 1.
        assert_eq!(reading([&a, &b], 10, 40), Some(200.0));
        assert_eq!(reading([&a, &b], 40, 90), None);
        a.run(&ctl);
        let (_, took) = *a.runs.last().unwrap();
        assert!(took > 0);
        let before = a.runs.len();
        a.tick(&ctl, 0);
        assert_eq!(a.runs.len(), before, "not due yet");
        a.tick(&ctl, u64::MAX);
        assert_eq!(a.runs.len(), before + 1);
    }
}
