//! Every metric the benchmark reports, by the exact name later issues
//! refer to. `BENCHMARK.json` at the repository root declares the same
//! names and units; `tests/smoke.rs` holds the two together.

/// The five workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = [
    "gda-inproc",
    "gda-socket",
    "span-parity",
    "cache-skew",
    "ss-queue",
];

/// A declared metric.
#[derive(Copy, Clone, Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher: bool,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is rejected.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    e2e(name, unit, true, 0.0)
}

/// End-to-end metrics: reported by `--trace 0`, all gated.
/// `fail_frac` is the seventh: it is gated at an absolute zero through
/// the result line's `failed` / `attempted` / `correct` and the exit
/// code, not through a relative bound (a metric that is always 0 has
/// no median to be a share of).
///
/// Every bound is 0.25: ten-seed spreads on this sandbox are 1-15 % of
/// the median after the speed correction (README, "Noise"), and a
/// bound has to sit at three times the spread to mean anything.
pub const END_TO_END: [Decl; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("mb_per_s", "MB/s", true, 0.25),
    e2e("read_p50_us", "us", false, 0.25),
    e2e("write_p50_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Per-layer metrics: reported by `--trace 1`, ungated.
pub const PER_LAYER: [Decl; 50] = [
    lower("net.self_us_read", "us"),
    lower("net.self_us_write", "us"),
    lower("net.codec_ns_per_frame", "ns"),
    lower("net.rw_syscalls_per_op", "count"),
    lower("server.self_us_read", "us"),
    lower("server.self_us_write", "us"),
    lower("server.admit_ns", "ns"),
    lower("server.admitted_per_op", "count"),
    lower("server.rejected", "count"),
    lower("server.wait_high_water", "count"),
    lower("server.inflight_high_water", "count"),
    lower("core.self_us_read", "us"),
    lower("core.self_us_write", "us"),
    lower("core.ss_claim_ns", "ns"),
    lower("fs.self_us_read", "us"),
    lower("fs.self_us_write", "us"),
    lower("fs.dev_reqs_per_op", "count"),
    higher("fs.blocks_per_req", "count"),
    lower("fs.dev_blocks_per_user_block", "ratio"),
    lower("fs.meta_writes_per_kop", "count"),
    lower("fs.checkpoints_per_kop", "count"),
    lower("fs.flushes_per_kop", "count"),
    higher("buffer.hit_ratio", "ratio"),
    lower("buffer.evictions_per_kop", "count"),
    lower("buffer.writebacks_per_kop", "count"),
    higher("buffer.coalesced_writes_per_writeback", "ratio"),
    higher("buffer.coalesced_reads_per_miss", "ratio"),
    lower("buffer.invalidations_per_kop", "count"),
    lower("buffer.hit_ns", "ns"),
    lower("buffer.miss_us", "us"),
    lower("layout.map_ns_striped", "ns"),
    lower("layout.map_ns_parity", "ns"),
    lower("disk.queue_wait_us_per_req", "us"),
    lower("disk.service_us_per_req", "us"),
    lower("disk.handoff_us", "us"),
    lower("disk.busy_frac", "ratio"),
    lower("disk.max_in_flight", "count"),
    higher("disk.req_size_p50_blocks", "count"),
    lower("disk.retries", "count"),
    lower("disk.timeouts", "count"),
    lower("disk.panics", "count"),
    lower("proc.cpu_us_per_op", "us"),
    lower("proc.sys_frac", "ratio"),
    lower("proc.vcsw_per_op", "count"),
    lower("proc.threads", "count"),
    lower("proc.calib_ns", "ns"),
    lower("tail.read_p99_us", "us"),
    lower("tail.write_p99_us", "us"),
    lower("tail.window_cv", "ratio"),
    lower("trace.overhead_frac", "ratio"),
];

/// One reported value.
#[derive(Clone, Debug)]
pub struct Reported {
    pub decl: Decl,
    pub value: f64,
    /// What the value rests on ("15 windows, 512034 ops"), printed
    /// next to it.
    pub basis: String,
}

/// The values of one run, in catalogue order. Every declared metric of
/// the run's kind is present exactly once: per-layer metrics start at
/// zero ("the layer is bypassed") and are overwritten where measured.
pub struct Report {
    pub values: Vec<Reported>,
}

impl Report {
    /// A report over `decls`, all values zero.
    pub fn new(decls: &[Decl]) -> Report {
        Report {
            values: decls
                .iter()
                .map(|&decl| Reported {
                    decl,
                    value: 0.0,
                    basis: String::new(),
                })
                .collect(),
        }
    }

    /// Set a declared metric. Panics on an undeclared name: a typo here
    /// would silently report zero.
    pub fn set(&mut self, name: &str, value: f64, basis: impl Into<String>) {
        let slot = self
            .values
            .iter_mut()
            .find(|r| r.decl.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        slot.value = value;
        slot.basis = basis.into();
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|r| r.decl.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .value
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .values
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.decl.name,
                    json_number(r.value),
                    r.decl.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; non-finite values become 0 so
/// the line stays valid JSON.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn report_renders_every_value_once() {
        let mut r = Report::new(&END_TO_END);
        r.set("ops_per_s", 33712.25, "15 windows");
        assert_eq!(r.get("ops_per_s"), 33712.25);
        let v: serde_json::Value = serde_json::from_str(&r.json()).unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            m.get("ops_per_s").unwrap()["value"].as_f64(),
            Some(33712.25)
        );
        assert_eq!(m.get("ops_per_s").unwrap()["unit"], "1/s");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
