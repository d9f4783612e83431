//! What the server itself observes: admission-queue water marks, the
//! sessions connected since start, and a log-linear latency histogram,
//! all in one [`ServerStats`]. The same snapshot crosses the wire
//! (`pario-net`'s `Stats` reply), so a remote client reads its
//! quantiles through the same [`quantile_nanos`]. The volume's own
//! numbers (executor, health board, cache tier) are read from the
//! [`Volume`](pario_fs::Volume) that owns them.

use std::sync::atomic::Ordering;

use pario_check::{AtomicU64, AtomicUsize};
use std::time::Duration;

/// Linear sub-buckets per octave: a bucket is at most 1/16 (6.25 %) of
/// the values it holds, so a reported quantile is that close above the
/// sample it stands for.
const SUB_BUCKETS: usize = 16;

/// Octaves covered: values of 2^36 ns (≈ 69 s) and beyond land in the
/// last bucket.
const OCTAVES: usize = 36;

/// Number of histogram buckets, and the most a snapshot holds. Values
/// below 16 get a bucket each (the first four octaves hold fewer than
/// sixteen integers between them); every later octave `[2^k, 2^(k+1))`
/// is cut into 16 equal parts.
pub const LATENCY_BUCKETS: usize = (OCTAVES - 3) * SUB_BUCKETS;

/// The bucket holding `ns` (≥ 1).
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize;
    let sub = (ns >> (octave - 4)) as usize & (SUB_BUCKETS - 1);
    ((octave - 3) * SUB_BUCKETS + sub).min(LATENCY_BUCKETS - 1)
}

/// The largest value bucket `idx` holds.
fn bucket_le(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        return idx as u64;
    }
    let (octave, sub) = (idx / SUB_BUCKETS + 3, idx % SUB_BUCKETS);
    (((SUB_BUCKETS + sub + 1) as u64) << (octave - 4)) - 1
}

/// Stripes the histogram spreads its writes across (power of two).
const LATENCY_STRIPES: usize = 8;

/// One stripe of histogram buckets, padded to its own cache lines so
/// recorders on different stripes never contend on a shared word.
#[repr(align(128))]
struct Stripe {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// Hands each recording thread a home stripe round-robin.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % LATENCY_STRIPES; // ordering: stripe index needs uniqueness, not ordering
}

/// A concurrent log-linear latency histogram.
///
/// Counts are striped across cache-line-padded bucket arrays, with each
/// recording thread pinned to a home stripe: at 64 concurrent sessions a
/// single shared bucket word would otherwise become the hottest line in
/// the process. [`snapshot`](LatencyHistogram::snapshot) sums the
/// stripes, so readers see the same totals as before.
pub struct LatencyHistogram {
    stripes: [Stripe; LATENCY_STRIPES],
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            stripes: std::array::from_fn(|_| Stripe {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }
}

impl LatencyHistogram {
    /// Record one operation latency.
    pub fn record(&self, d: Duration) {
        let ns = d.as_nanos().max(1) as u64;
        let idx = bucket_of(ns);
        // Destructors may run after the thread-local is torn down.
        let stripe = STRIPE.try_with(|s| *s).unwrap_or(0);
        self.stripes[stripe].buckets[idx].fetch_add(1, Ordering::Relaxed); // ordering: histogram bump; read only by diagnostic snapshots
    }

    /// Snapshot every non-empty bucket as `(le_nanos, count)` where
    /// `le_nanos` is the largest value the bucket holds.
    pub fn snapshot(&self) -> Vec<LatencyBucket> {
        (0..LATENCY_BUCKETS)
            .filter_map(|i| {
                let count = self
                    .stripes
                    .iter()
                    .map(|s| s.buckets[i].load(Ordering::Relaxed)) // ordering: diagnostic snapshot; staleness is acceptable
                    .sum::<u64>();
                (count > 0).then_some(LatencyBucket {
                    le_nanos: bucket_le(i),
                    count,
                })
            })
            .collect()
    }
}

/// One non-empty histogram bucket.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LatencyBucket {
    /// The largest latency the bucket holds, in nanoseconds: every
    /// operation counted here took this long or less.
    pub le_nanos: u64,
    /// Operations that landed in the bucket.
    pub count: u64,
}

/// Approximate quantile over a bucket snapshot (upper bound of the
/// bucket containing the q-th operation).
pub fn quantile_nanos(buckets: &[LatencyBucket], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().map(|b| b.count).sum();
    if total == 0 {
        return None;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for b in buckets {
        seen += b.count;
        if seen >= target {
            return Some(b.le_nanos);
        }
    }
    buckets.last().map(|b| b.le_nanos)
}

/// A point-in-time snapshot of the whole server.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions connected since the server started, those that ended
    /// included.
    pub sessions: u64,
    /// Operations in flight right now.
    pub in_flight: usize,
    /// Queue-depth high water: the most operations ever admitted at
    /// once. Bounded by the configured admission limit.
    pub queue_depth_high_water: usize,
    /// The most requests ever waiting for admission at once.
    pub wait_high_water: usize,
    /// Requests rejected with `Busy`.
    pub rejected: u64,
    /// Cumulative operations ever admitted, across all sessions.
    /// Experiments compute achieved (goodput) rates from this.
    pub total_admitted: u64,
    /// End-to-end operation latency histogram (admission wait included).
    pub latency: Vec<LatencyBucket>,
}

impl ServerStats {
    /// Approximate latency quantile over the snapshot's histogram, in
    /// nanoseconds (upper bound of the bucket holding the q-th op);
    /// `None` on an idle server.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        quantile_nanos(&self.latency, q)
    }

    /// Median operation latency in nanoseconds (bucket bound).
    pub fn p50(&self) -> Option<u64> {
        self.latency_quantile(0.5)
    }

    /// 99th-percentile operation latency in nanoseconds.
    pub fn p99(&self) -> Option<u64> {
        self.latency_quantile(0.99)
    }

    /// 99.9th-percentile operation latency in nanoseconds.
    pub fn p999(&self) -> Option<u64> {
        self.latency_quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_linear() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(3)); // below 16 ns: a bucket per value
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_micros(5)); // [4864, 5120): 1/16 of [4096, 8192)
        let snap = h.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap[0],
            LatencyBucket {
                le_nanos: 3,
                count: 2
            }
        );
        assert_eq!(snap[1].le_nanos, 5119);
        assert_eq!(quantile_nanos(&snap, 0.5), Some(3));
        assert_eq!(quantile_nanos(&snap, 1.0), Some(5119));
        assert_eq!(quantile_nanos(&[], 0.5), None);
        // The tail bucket absorbs everything past 2^36 ns.
        h.record(Duration::from_secs(3600));
        assert_eq!(h.snapshot()[2].le_nanos, (1 << 36) - 1);
    }

    #[test]
    fn stats_quantile_accessors() {
        let mut s = ServerStats::default();
        assert_eq!(s.p50(), None);
        // 998 ops in [2,4), 2 ops in [4096,8192): p50/p99 land in the
        // low bucket; the p999 rank (the 999th of 1000) is in the tail.
        s.latency = vec![
            LatencyBucket {
                le_nanos: 4,
                count: 998,
            },
            LatencyBucket {
                le_nanos: 8192,
                count: 2,
            },
        ];
        assert_eq!(s.p50(), Some(4));
        assert_eq!(s.p99(), Some(4));
        assert_eq!(s.p999(), Some(8192));
        assert_eq!(s.latency_quantile(1.0), Some(8192));
    }
}
