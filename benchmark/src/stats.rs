//! Exact-sample statistics.
//!
//! Every latency the benchmark reports is a quantile of the raw per-op
//! nanosecond samples, never of a bucketed histogram: the server's log2
//! `LatencyHistogram` can only answer in powers of two (E14 reports
//! p50 = p99 = p999 = 4194304 ns, a bucket edge). Rates and latencies
//! are reduced per window first and the *median over windows* is
//! reported, because on two shared vCPUs a whole-run mean swings by 3x
//! between identical runs while the median 1 s window repeats within a
//! few percent (README, "Noise").

/// The `q`-quantile of an ascending slice by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it. Always an
/// actual sample. `None` on an empty slice.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median of signed samples (peeled paired differences can be negative).
pub fn median_i64(values: &mut [i64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid] as f64
    } else {
        (values[mid - 1] as f64 + values[mid] as f64) / 2.0
    })
}

/// Coefficient of variation (population standard deviation / mean);
/// 0 for fewer than two values or a zero mean.
pub fn cv(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// The highest of the usual percentiles (p50 .. p99.99) that still has
/// at least ten samples beyond it in a sample of `n` — the highest tail
/// the sample supports. `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (0.9999, 10_000),
        (0.999, 1000),
        (0.99, 100),
        (0.9, 10),
        (0.5, 2),
    ]
    .into_iter()
    .find(|(_, one_in)| n / one_in >= 10)
    .map(|(q, _)| q)
}

/// One measurement window: a fixed slice of wall-clock time (or, for
/// `ss-queue`, one create/write/read/remove cycle) with the latency of
/// every op that completed inside it.
#[derive(Debug)]
pub struct Window {
    /// Length of the window in wall-clock nanoseconds.
    pub nanos: u64,
    /// Corrected time over wall time (see `calib`): what the window's
    /// clock is multiplied by to read as if the machine had run at the
    /// reference speed throughout. 1 leaves everything as measured.
    pub scale: f64,
    /// Payload bytes moved by the ops that completed in the window.
    pub bytes: u64,
    /// Latencies of the completed read ops, nanoseconds.
    pub reads: Vec<u32>,
    /// Latencies of the completed write ops, nanoseconds.
    pub writes: Vec<u32>,
}

impl Default for Window {
    fn default() -> Window {
        Window {
            nanos: 0,
            scale: 1.0,
            bytes: 0,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl Window {
    /// Ops completed in the window.
    pub fn ops(&self) -> u64 {
        (self.reads.len() + self.writes.len()) as u64
    }

    /// The read or the write latencies.
    pub fn latencies(&self, write: bool) -> &[u32] {
        if write {
            &self.writes
        } else {
            &self.reads
        }
    }

    /// The window's length in corrected seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * self.scale / 1e9
    }

    /// Ops per corrected second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.seconds()
    }

    /// The `q`-quantile of the read or the write latencies in corrected
    /// microseconds. The window must be sorted.
    pub fn latency_us(&self, write: bool, q: f64) -> Option<f64> {
        quantile_sorted(self.latencies(write), q).map(|ns| ns as f64 * self.scale / 1e3)
    }

    /// Sort both latency vectors so the quantile helpers apply.
    pub fn sort(&mut self) {
        self.reads.sort_unstable();
        self.writes.sort_unstable();
    }
}

/// A windowed-median value with the sample counts behind it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Reduced {
    /// Median over windows of the per-window value.
    pub value: f64,
    /// Windows that contributed a value.
    pub windows: usize,
    /// Raw samples (ops) across those windows.
    pub samples: usize,
}

/// Median over windows of `f(window)`; windows where `f` has no value
/// (no op of that kind completed) are skipped. `samples(window)` is the
/// number of raw samples behind each window's value.
pub fn windowed_median<'a>(
    windows: impl IntoIterator<Item = &'a Window>,
    f: impl Fn(&Window) -> Option<f64>,
    samples: impl Fn(&Window) -> usize,
) -> Option<Reduced> {
    let mut vals = Vec::new();
    let mut n = 0;
    for w in windows {
        if let Some(v) = f(w) {
            vals.push(v);
            n += samples(w);
        }
    }
    median(&vals).map(|value| Reduced {
        value,
        windows: vals.len(),
        samples: n,
    })
}

/// Windowed median of the per-window `q`-quantile of read (or write)
/// latency, in microseconds. Windows must be sorted.
pub fn windowed_latency_us<'a>(
    windows: impl IntoIterator<Item = &'a Window>,
    write: bool,
    q: f64,
) -> Option<Reduced> {
    windowed_median(
        windows,
        |w| w.latency_us(write, q),
        |w| w.latencies(write).len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_vector() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1));
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        // Not a bucket edge: an exact sample comes back.
        assert_eq!(
            quantile_sorted(&[3_000_017, 4_194_305], 0.5),
            Some(3_000_017)
        );
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_i64(&mut [-5, 10, 1]), Some(1.0));
        assert_eq!(median_i64(&mut [-5, 10]), Some(2.5));
    }

    #[test]
    fn cv_of_known_vector() {
        assert_eq!(cv(&[5.0, 5.0, 5.0]), 0.0);
        // mean 2, population sd 1.
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        assert_eq!(cv(&[1.0]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn windowed_median_ignores_one_wild_window() {
        let mk = |reads: Vec<u32>| Window {
            nanos: 1_000_000_000,
            reads,
            ..Window::default()
        };
        let mut ws = vec![
            mk(vec![10_000, 11_000, 12_000]),
            mk(vec![10_000, 11_500, 12_000]),
            mk(vec![900_000, 900_000, 900_000]),
        ];
        ws.iter_mut().for_each(Window::sort);
        let r = windowed_latency_us(&ws, false, 0.5).unwrap();
        assert_eq!(r.value, 11.5);
        assert_eq!((r.windows, r.samples), (3, 9));
        assert_eq!(windowed_latency_us(&ws, true, 0.5), None);
        let ops = windowed_median(&ws, |w| Some(w.ops_per_s()), |w| w.ops() as usize).unwrap();
        assert_eq!(ops.value, 3.0);
        // A window that ran at half speed while always busy counts as
        // half as long: twice the rate, half the latency.
        ws[0].scale = 0.5;
        assert_eq!(ws[0].ops_per_s(), 6.0);
        assert_eq!(ws[0].latency_us(false, 0.5), Some(5.5));
    }
}
