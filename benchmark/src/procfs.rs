//! The process as the OS sees it, read from `/proc/self`.

use std::fs;

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1e3
}

fn status_kb(key: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// `(user, system)` CPU time of the whole process so far, microseconds.
/// The kernel counts it in 10 ms ticks (`USER_HZ` is 100 on every Linux
/// this runs on).
fn cpu_split_us() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 here.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return (0, 0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) * 10_000, ticks(12) * 10_000)
}

/// CPU time of the whole process so far, microseconds.
pub fn cpu_us() -> u64 {
    let (user, sys) = cpu_split_us();
    user + sys
}

/// Cumulative process counters; subtract two for a window's delta.
#[derive(Copy, Clone, Debug, Default)]
pub struct ProcSnap {
    /// User-mode CPU, microseconds.
    pub user_us: u64,
    /// Kernel-mode CPU, microseconds.
    pub sys_us: u64,
    /// Voluntary context switches, summed over live threads.
    pub vcsw: u64,
    /// `read`- and `write`-class syscalls (`syscr + syscw`).
    pub rw_syscalls: u64,
    /// Live threads.
    pub threads: u64,
}

impl ProcSnap {
    pub fn take() -> ProcSnap {
        let mut snap = ProcSnap::default();
        (snap.user_us, snap.sys_us) = cpu_split_us();
        if let Ok(io) = fs::read_to_string("/proc/self/io") {
            for line in io.lines() {
                if let Some(v) = line
                    .strip_prefix("syscr: ")
                    .or_else(|| line.strip_prefix("syscw: "))
                {
                    snap.rw_syscalls += v.trim().parse::<u64>().unwrap_or(0);
                }
            }
        }
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                snap.threads += 1;
                if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                    snap.vcsw += status
                        .lines()
                        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .unwrap_or(0);
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 1.0);
        let a = ProcSnap::take();
        assert!(a.threads >= 1);
        // Burn a little CPU and make syscalls; the counters never go back.
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = ProcSnap::take();
        assert!(b.user_us + b.sys_us >= a.user_us + a.sys_us);
        assert!(b.rw_syscalls > a.rw_syscalls);
        assert!(b.vcsw >= a.vcsw);
    }
}
