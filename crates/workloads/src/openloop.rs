//! Open-loop load generation for the scale harness (E19).
//!
//! A closed-loop population adapts its offered load to the service
//! rate: clients wait for each response before issuing the next
//! request, so an overloaded server simply slows its clients down and
//! the measured latency stays flat. An **open-loop**
//! generator instead fixes the *arrival* schedule up front — operation
//! `i` is due at a set instant regardless of how the server is doing —
//! which is how real populations of independent clients behave and the
//! only way to see overload: past saturation the queue grows without
//! bound and tail latency climbs a cliff (the "knee").
//!
//! Two disciplines matter for honest numbers:
//!
//! * **Coordinated-omission safety.** Per-op latency must be measured
//!   from the operation's *intended* start (its arrival time), not from
//!   when a delayed worker actually got around to issuing it. Otherwise
//!   a stalled server silently erases the queueing delay it caused.
//! * **Work conservation.** Workers pull the next due operation from a
//!   shared atomic cursor (the self-scheduled cursor discipline), so a
//!   slow worker never strands scheduled arrivals behind it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::zipf::Zipf;

/// An open-loop workload: `ops` operations offered at a fixed aggregate
/// `rate`, addressing `records` with Zipf skew `theta`. Deterministic
/// for a fixed seed — the full arrival schedule and operation sequence
/// are pure functions of the parameters.
#[derive(Copy, Clone, Debug)]
pub struct OpenLoop {
    /// Offered arrival rate, operations per second.
    pub rate: f64,
    /// Total operations to offer.
    pub ops: u64,
    /// Distinct records addressed.
    pub records: u64,
    /// Zipf exponent over records (0 = uniform).
    pub theta: f64,
    /// Fraction of operations that are writes (0.0 - 1.0).
    pub write_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// splitmix64: a tiny, well-mixed pure hash, used to jitter arrivals
/// without threading an RNG through the schedule.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl OpenLoop {
    /// Nanoseconds between scheduled arrivals.
    fn spacing_nanos(&self) -> f64 {
        assert!(self.rate > 0.0, "offered rate must be positive");
        1e9 / self.rate
    }

    /// The intended start of operation `i`, in nanoseconds from the run
    /// origin: uniformly spaced slots of width `1e9/rate`, each arrival
    /// jittered within its own slot by a seeded hash. Arrivals are
    /// strictly monotone in `i`, every arrival `i` lies in
    /// `[i*spacing, (i+1)*spacing)`, and the long-run offered rate is
    /// exactly `rate`.
    pub fn arrival_nanos(&self, i: u64) -> u64 {
        let sp = self.spacing_nanos();
        let lo = (sp * i as f64) as u64;
        let hi = (sp * (i + 1) as f64) as u64;
        // Jitter in [0, 1): 53 high bits of the hash as a fraction.
        let j = (splitmix64(self.seed ^ i) >> 11) as f64 / (1u64 << 53) as f64;
        // Clamp into the slot: rounding at the f64 boundary must not
        // push an arrival onto (or past) the next slot's start.
        ((sp * i as f64 + j * sp) as u64).clamp(lo, hi.saturating_sub(1).max(lo))
    }

    /// The operation at schedule position `i`: `(record, is_write)`,
    /// drawn from an independent seeded stream per position, so workers
    /// share no generator state.
    pub fn op(&self, i: u64, zipf: &Zipf) -> (u64, bool) {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (
            zipf.sample(&mut rng) as u64,
            rng.random::<f64>() < self.write_fraction,
        )
    }

    /// Materialize the full schedule: arrival times and operations for
    /// all `ops` positions, with the Zipf table built once. Workers
    /// index into the plan via a shared atomic cursor.
    pub fn plan(&self) -> OpenLoopPlan {
        let zipf = Zipf::new(self.records as usize, self.theta);
        let arrivals = (0..self.ops).map(|i| self.arrival_nanos(i)).collect();
        let ops = (0..self.ops).map(|i| self.op(i, &zipf)).collect();
        OpenLoopPlan { arrivals, ops }
    }
}

/// A materialized open-loop schedule; position `i` of both vectors
/// describes operation `i`.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenLoopPlan {
    /// Intended start of each operation, nanoseconds from the run origin.
    pub arrivals: Vec<u64>,
    /// `(record, is_write)` for each operation.
    pub ops: Vec<(u64, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(rate: f64, seed: u64) -> OpenLoop {
        OpenLoop {
            rate,
            ops: 2_000,
            records: 64,
            theta: 0.8,
            write_fraction: 0.25,
            seed,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = w(50_000.0, 7).plan();
        let b = w(50_000.0, 7).plan();
        assert_eq!(a, b, "same seed, same plan");
        let c = w(50_000.0, 8).plan();
        assert_ne!(a.arrivals, c.arrivals);
        assert_ne!(a.ops, c.ops);
    }

    #[test]
    fn arrivals_monotone_and_rate_exact() {
        let ol = w(100_000.0, 3);
        let plan = ol.plan();
        let sp = 1e9 / ol.rate;
        for i in 1..plan.arrivals.len() {
            assert!(plan.arrivals[i] > plan.arrivals[i - 1], "monotone at {i}");
        }
        for (i, &a) in plan.arrivals.iter().enumerate() {
            let lo = (sp * i as f64) as u64;
            let hi = (sp * (i + 1) as f64) as u64;
            assert!(a >= lo && a < hi, "arrival {i} = {a} outside [{lo},{hi})");
        }
        // Long-run offered rate is the slot rate.
        let span = plan.arrivals[plan.arrivals.len() - 1] - plan.arrivals[0];
        let measured = (ol.ops - 1) as f64 / (span as f64 / 1e9);
        assert!(
            (measured - ol.rate).abs() / ol.rate < 0.01,
            "measured {measured} vs offered {}",
            ol.rate
        );
    }

    #[test]
    fn ops_respect_record_space_and_write_fraction() {
        let ol = w(10_000.0, 11);
        let plan = ol.plan();
        assert!(plan.ops.iter().all(|&(r, _)| r < 64));
        let writes = plan.ops.iter().filter(|&&(_, wr)| wr).count();
        // 25% of 2000 with slack.
        assert!((350..650).contains(&writes), "writes={writes}");
        // Skew: rank 0 is the hottest record.
        let hot = plan.ops.iter().filter(|&&(r, _)| r == 0).count();
        assert!(hot * 64 > plan.ops.len(), "expected a hot record: {hot}");
    }
}
