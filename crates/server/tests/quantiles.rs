//! Property tests over the latency statistics: histogram quantiles are
//! monotone in q and within one sub-bucket above the exact sample, the
//! striped histogram round-trips recorded counts, and its bucket bounds
//! keep climbing across octave boundaries.

use std::time::Duration;

use proptest::prelude::*;

use pario_server::{quantile_nanos, LatencyBucket, LatencyHistogram};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// quantile_nanos is monotone non-decreasing in q over arbitrary
    /// bucket snapshots (sorted, as `snapshot` produces them).
    #[test]
    fn quantiles_monotone_in_q(counts in proptest::collection::vec(0u64..50, 1..20)) {
        let buckets: Vec<LatencyBucket> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| LatencyBucket { le_nanos: 1u64 << (i + 1), count: c })
            .collect();
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let vals: Vec<Option<u64>> = qs.iter().map(|&q| quantile_nanos(&buckets, q)).collect();
        if buckets.is_empty() {
            prop_assert!(vals.iter().all(Option::is_none));
        } else {
            for w in vals.windows(2) {
                let (a, b) = (w[0], w[1]);
                prop_assert!(a.is_some() && b.is_some());
                prop_assert!(a <= b, "quantiles must be monotone in q: {a:?} > {b:?}");
            }
            // Every quantile is one of the bucket bounds.
            for v in vals.into_iter().flatten() {
                prop_assert!(buckets.iter().any(|b| b.le_nanos == v));
            }
        }
    }

    /// The (striped) histogram round-trips: recording N durations yields
    /// a snapshot whose counts sum to N, bucketed at the right bounds.
    #[test]
    fn histogram_roundtrip(nanos in proptest::collection::vec(1u64..1_000_000_000, 1..200)) {
        let h = LatencyHistogram::default();
        for &n in &nanos {
            h.record(Duration::from_nanos(n));
        }
        let snap = h.snapshot();
        let total: u64 = snap.iter().map(|b| b.count).sum();
        prop_assert_eq!(total, nanos.len() as u64);
        // Bounds are sorted, distinct, and cover every value.
        for w in snap.windows(2) {
            prop_assert!(w[0].le_nanos < w[1].le_nanos);
        }
        for &n in &nanos {
            prop_assert!(
                snap.iter().any(|b| b.le_nanos >= n),
                "value {n} above every bucket bound"
            );
        }
    }

    /// A reported quantile stands for the exact nearest-rank sample:
    /// never below it, at most one sub-bucket (6.25 %) above it, and
    /// monotone in q. Samples span five decades so every case crosses
    /// octave boundaries.
    #[test]
    fn quantile_is_within_a_sub_bucket_of_the_exact_sample(
        exps in proptest::collection::vec((0u32..30, 0u64..1 << 20), 1..300),
    ) {
        let mut nanos: Vec<u64> = exps.iter().map(|&(e, m)| (1u64 << e) + (m >> (20 - e.min(20)))).collect();
        let h = LatencyHistogram::default();
        for &n in &nanos {
            h.record(Duration::from_nanos(n));
        }
        nanos.sort_unstable();
        let snap = h.snapshot();
        let mut last = 0;
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((nanos.len() as f64 * q).ceil() as usize).max(1);
            let exact = nanos[rank - 1];
            let got = quantile_nanos(&snap, q).expect("samples were recorded");
            prop_assert!(got >= exact, "q={q}: {got} below the exact sample {exact}");
            prop_assert!(
                got - exact <= exact / 16,
                "q={q}: {got} more than 6.25 % above the exact sample {exact}"
            );
            prop_assert!(got >= last, "q={q}: {got} below the previous quantile {last}");
            last = got;
        }
    }
}

/// One sample at every power of two and on either side of it: each
/// lands in a bucket of its own or shares one only with a neighbour it
/// is within 6.25 % of, and the bounds strictly increase from one
/// octave into the next.
#[test]
fn bucket_bounds_strictly_increase_across_octaves() {
    let h = LatencyHistogram::default();
    let samples: Vec<u64> = (1..36)
        .flat_map(|e| [(1u64 << e) - 1, 1 << e, (1 << e) + 1])
        .collect();
    for &n in &samples {
        h.record(Duration::from_nanos(n));
    }
    let snap = h.snapshot();
    assert_eq!(
        snap.iter().map(|b| b.count).sum::<u64>(),
        samples.len() as u64
    );
    for w in snap.windows(2) {
        assert!(w[0].le_nanos < w[1].le_nanos, "{w:?}");
    }
    for e in 4..36 {
        // 2^e - 1 closes an octave, 2^e opens the next: never one bucket.
        let closes = snap.iter().find(|b| b.le_nanos >= (1 << e) - 1).unwrap();
        assert_eq!(closes.le_nanos, (1 << e) - 1, "octave {e}");
        assert!(!closes.le_nanos.is_power_of_two());
    }
}
