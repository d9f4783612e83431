//! Measurement collected during a simulation run.

use serde::Serialize;

use crate::time::SimTime;

/// Per-device accounting.
#[derive(Clone, Debug, Default, Serialize)]
pub struct DeviceStats {
    /// Requests serviced.
    pub requests: u64,
    /// Blocks transferred.
    pub blocks: u64,
    /// Total time the device was servicing a request.
    pub busy: SimTime,
    /// Portion of `busy` spent seeking.
    pub seek: SimTime,
    /// Portion of `busy` spent in rotational latency.
    pub rotation: SimTime,
    /// Portion of `busy` spent transferring data.
    pub transfer: SimTime,
    /// Sum over requests of (completion - issue); divide by `requests` for
    /// mean response time including queueing.
    pub response_total: SimTime,
}

impl DeviceStats {
    /// Fraction of `makespan` this device was busy.
    pub fn utilization(&self, makespan: SimTime) -> f64 {
        if makespan.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / makespan.as_secs_f64()
        }
    }
}

/// Per-process accounting.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ProcStats {
    /// Virtual time spent computing.
    pub compute: SimTime,
    /// Virtual time spent blocked on I/O.
    pub io_wait: SimTime,
    /// Virtual time spent blocked at barriers.
    pub barrier_wait: SimTime,
    /// Time the process finished its script.
    pub finished_at: SimTime,
    /// Blocking I/O calls issued.
    pub io_calls: u64,
}

/// One recorded device-level event, for pattern-style figures and debugging.
#[derive(Clone, Debug, Serialize)]
pub struct TraceEvent {
    /// When service started.
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
    /// Issuing process.
    pub proc: usize,
    /// Servicing device.
    pub device: usize,
    /// Device-local starting block.
    pub block: u64,
    /// Blocks transferred.
    pub nblocks: u32,
    /// True for writes.
    pub is_write: bool,
}

/// Everything a finished run reports.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SimReport {
    /// Time the last event occurred (total virtual run time).
    pub makespan: SimTime,
    /// Per-process stats, indexed by process id.
    pub procs: Vec<ProcStats>,
    /// Per-device stats, indexed by device id.
    pub devices: Vec<DeviceStats>,
    /// Device-service trace (only if tracing was enabled).
    pub trace: Vec<TraceEvent>,
}

impl SimReport {
    /// Total blocks transferred across all devices.
    pub fn total_blocks(&self) -> u64 {
        self.devices.iter().map(|d| d.blocks).sum()
    }

    /// Mean device utilization over the run.
    pub fn mean_utilization(&self) -> f64 {
        if self.devices.is_empty() {
            return 0.0;
        }
        self.devices
            .iter()
            .map(|d| d.utilization(self.makespan))
            .sum::<f64>()
            / self.devices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_stats_derived_metrics() {
        let d = DeviceStats {
            requests: 4,
            blocks: 8,
            busy: SimTime::from_ms(5),
            response_total: SimTime::from_ms(8),
            ..DeviceStats::default()
        };
        let u = d.utilization(SimTime::from_ms(10));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(DeviceStats::default().utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn report_throughput() {
        let mut r = SimReport {
            makespan: SimTime::from_secs(2),
            ..Default::default()
        };
        r.devices.push(DeviceStats {
            blocks: 100,
            ..DeviceStats::default()
        });
        r.devices.push(DeviceStats {
            blocks: 300,
            ..DeviceStats::default()
        });
        assert_eq!(r.total_blocks(), 400);
    }
}
