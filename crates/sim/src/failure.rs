//! The 1989 drive's failure model: exponential lifetimes, the paper's
//! §5 arithmetic reproduced.
//!
//! "Assuming a MTBF of 30,000 hours for each storage device, a file
//! system containing 10 devices could be expected to fail every 3,000
//! hours (about 3 times per year, on average)… A system with 100
//! devices, on the other hand, would average more than one failure every
//! two weeks." With exponential lifetimes the system MTBF is simply the
//! device MTBF divided by the device count; a seeded Monte-Carlo
//! estimator cross-checks the closed form, and seeded failure schedules
//! drive the reliability campaigns (detection, degraded operation and
//! rebuild at the rates §5 predicts).
//!
//! ```
//! use pario_sim::failure::{system_mtbf_hours, PAPER_DEVICE_MTBF_HOURS};
//!
//! // Ten 30,000-hour drives fail every 3,000 h.
//! assert_eq!(system_mtbf_hours(PAPER_DEVICE_MTBF_HOURS, 10), 3_000.0);
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The per-device MTBF the paper assumes (commodity Winchester disks).
pub const PAPER_DEVICE_MTBF_HOURS: f64 = 30_000.0;

/// Hours in a year (the paper's "3 times per year").
pub const HOURS_PER_YEAR: f64 = 8_760.0;

/// System mean time between failures for `devices` independent devices
/// with exponential lifetimes of mean `device_mtbf_hours`.
pub fn system_mtbf_hours(device_mtbf_hours: f64, devices: u32) -> f64 {
    assert!(devices > 0);
    device_mtbf_hours / f64::from(devices)
}

/// Expected failures of any device over `period_hours`.
pub fn expected_failures(device_mtbf_hours: f64, devices: u32, period_hours: f64) -> f64 {
    period_hours / system_mtbf_hours(device_mtbf_hours, devices)
}

/// Monte-Carlo estimate of the mean time to *first* failure: draw each
/// device's exponential lifetime, take the minimum, average over
/// `trials`. Cross-checks [`system_mtbf_hours`].
pub fn monte_carlo_mttf(device_mtbf_hours: f64, devices: u32, trials: u32, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for _ in 0..trials {
        let mut first = f64::INFINITY;
        for _ in 0..devices {
            first = first.min(lifetime(&mut rng, device_mtbf_hours));
        }
        total += first;
    }
    total / f64::from(trials)
}

/// One row of the paper's reliability argument.
#[derive(Clone, Debug)]
pub struct MtbfRow {
    /// Device count.
    pub devices: u32,
    /// Analytic system MTBF in hours.
    pub system_mtbf_hours: f64,
    /// Expected failures per year.
    pub failures_per_year: f64,
    /// Mean days between failures.
    pub days_between_failures: f64,
}

/// Rows for a device-count sweep at the paper's 30,000 h device MTBF.
pub fn paper_table(device_counts: &[u32]) -> Vec<MtbfRow> {
    device_counts
        .iter()
        .map(|&d| {
            let mtbf = system_mtbf_hours(PAPER_DEVICE_MTBF_HOURS, d);
            MtbfRow {
                devices: d,
                system_mtbf_hours: mtbf,
                failures_per_year: HOURS_PER_YEAR / mtbf,
                days_between_failures: mtbf / 24.0,
            }
        })
        .collect()
}

/// One device lifetime in hours: an inverse-CDF exponential sample.
fn lifetime(rng: &mut StdRng, device_mtbf_hours: f64) -> f64 {
    let u: f64 = rng.random();
    -device_mtbf_hours * (1.0 - u).ln()
}

/// One scheduled fail-stop event.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FailureEvent {
    /// Device index.
    pub device: usize,
    /// Virtual time of the failure, in hours.
    pub at_hours: f64,
}

/// Draw each device's exponential lifetime and return the failures that
/// land within `horizon_hours`, sorted by time. Each device fails at most
/// once (it is assumed replaced/rebuilt afterwards by the experiment).
pub fn failure_schedule(
    devices: usize,
    device_mtbf_hours: f64,
    horizon_hours: f64,
    seed: u64,
) -> Vec<FailureEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events: Vec<FailureEvent> = (0..devices)
        .filter_map(|d| {
            let t = lifetime(&mut rng, device_mtbf_hours);
            (t <= horizon_hours).then_some(FailureEvent {
                device: d,
                at_hours: t,
            })
        })
        .collect();
    events.sort_by(|a, b| a.at_hours.total_cmp(&b.at_hours));
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_numbers() {
        // 10 devices -> every 3,000 hours, "about 3 times per year".
        let ten = system_mtbf_hours(PAPER_DEVICE_MTBF_HOURS, 10);
        assert_eq!(ten, 3_000.0);
        let per_year = HOURS_PER_YEAR / ten;
        assert!((2.8..3.1).contains(&per_year), "{per_year}");
        // 100 devices -> "more than one failure every two weeks".
        let hundred = system_mtbf_hours(PAPER_DEVICE_MTBF_HOURS, 100);
        assert!(hundred < 14.0 * 24.0, "MTBF {hundred}h not under 2 weeks");
    }

    #[test]
    fn expected_failures_scale_linearly() {
        let one = expected_failures(30_000.0, 1, 30_000.0);
        assert!((one - 1.0).abs() < 1e-12);
        let five = expected_failures(30_000.0, 5, 30_000.0);
        assert!((five - 5.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_matches_analytic() {
        for devices in [1, 10, 100] {
            let analytic = system_mtbf_hours(30_000.0, devices);
            let mc = monte_carlo_mttf(30_000.0, devices, 4_000, 17);
            let rel = (mc - analytic).abs() / analytic;
            assert!(rel < 0.06, "devices={devices}: mc={mc} vs {analytic}");
        }
    }

    #[test]
    fn table_rows() {
        let t = paper_table(&[1, 10, 100]);
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].system_mtbf_hours, 3_000.0);
        assert!(t[2].days_between_failures < 14.0);
        assert!(t[0].failures_per_year < 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = failure_schedule(50, 30_000.0, 10_000.0, 9);
        let b = failure_schedule(50, 30_000.0, 10_000.0, 9);
        assert_eq!(a, b);
        let c = failure_schedule(50, 30_000.0, 10_000.0, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_and_within_horizon() {
        let ev = failure_schedule(100, 30_000.0, 5_000.0, 3);
        assert!(ev.windows(2).all(|w| w[0].at_hours <= w[1].at_hours));
        assert!(ev.iter().all(|e| e.at_hours <= 5_000.0));
        assert!(ev.iter().all(|e| e.device < 100));
    }

    #[test]
    fn failure_count_tracks_the_papers_rates() {
        // 100 devices at 30,000 h MTBF over two weeks (336 h): expect
        // ~1.1 failures on average. Over many seeds the mean must sit
        // near that.
        let mut total = 0usize;
        let trials = 200;
        for seed in 0..trials {
            total += failure_schedule(100, 30_000.0, 336.0, seed).len();
        }
        let mean = total as f64 / trials as f64;
        assert!(
            (0.7..1.6).contains(&mean),
            "mean failures per two weeks = {mean}, paper predicts ~1.1"
        );
    }
}
