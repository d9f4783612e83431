//! Failure-injection campaigns.
//!
//! Deterministic schedules of device failures drawn from the exponential
//! lifetime model. Experiments use these to exercise detection, degraded
//! operation, and rebuild under the failure rates the paper's §5
//! predicts.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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
            let u: f64 = rng.random();
            let t = -device_mtbf_hours * (1.0 - u).ln();
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
