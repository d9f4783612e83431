//! I/O request descriptors exchanged between simulated processes and
//! simulated devices.

use crate::time::SimTime;

/// Direction of a device transfer.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ReqKind {
    /// Transfer from device to memory.
    Read,
    /// Transfer from memory to device.
    Write,
}

/// One request against one device: `nblocks` device blocks starting at
/// device-local block address `block`.
///
/// Requests are purely *positional* — the simulator models timing, not data
/// content. The block address matters because rotating-disk service time
/// depends on where the head currently is and where the request wants it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DiskReq {
    /// Target device index within the simulation.
    pub device: usize,
    /// Device-local starting block address.
    pub block: u64,
    /// Number of contiguous blocks to transfer (must be >= 1).
    pub nblocks: u32,
    /// Read or write.
    pub kind: ReqKind,
}

impl DiskReq {
    /// A read of `nblocks` blocks at `block` on `device`.
    pub fn read(device: usize, block: u64, nblocks: u32) -> DiskReq {
        DiskReq {
            device,
            block,
            nblocks,
            kind: ReqKind::Read,
        }
    }

    /// A write of `nblocks` blocks at `block` on `device`.
    pub fn write(device: usize, block: u64, nblocks: u32) -> DiskReq {
        DiskReq {
            device,
            block,
            nblocks,
            kind: ReqKind::Write,
        }
    }

    /// The device-local block one past the end of this request.
    pub fn end_block(&self) -> u64 {
        self.block + u64::from(self.nblocks)
    }
}

/// A request sitting in (or just removed from) a device queue, with the
/// bookkeeping the engine needs to route its completion.
#[derive(Copy, Clone, Debug)]
pub struct PendingReq {
    /// The request itself.
    pub req: DiskReq,
    /// Index of the simulated process that issued it.
    pub proc: usize,
    /// Virtual time at which the process issued the request.
    pub issued: SimTime,
    /// Monotonic tag assigned at issue; breaks ties deterministically in
    /// schedulers and appears in traces.
    pub tag: u64,
}

/// Where a request's service time went, as computed by a device model.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Head movement.
    pub seek: SimTime,
    /// Rotational latency waiting for the first sector.
    pub rotation: SimTime,
    /// Media transfer time.
    pub transfer: SimTime,
}

impl ServiceBreakdown {
    /// Total service time (excluding time spent queued).
    pub fn total(&self) -> SimTime {
        self.seek + self.rotation + self.transfer
    }
}

/// A request a device model has committed to service.
#[derive(Copy, Clone, Debug)]
pub struct Started {
    /// The queued request being serviced.
    pub pending: PendingReq,
    /// Virtual time at which service completes.
    pub complete_at: SimTime,
    /// Where the service time goes.
    pub breakdown: ServiceBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let r = DiskReq::read(2, 10, 4);
        assert_eq!(r.kind, ReqKind::Read);
        assert_eq!(r.device, 2);
        assert_eq!(r.end_block(), 14);
        let w = DiskReq::write(0, 0, 1);
        assert_eq!(w.kind, ReqKind::Write);
        assert_eq!(w.end_block(), 1);
    }

    #[test]
    fn breakdown_total() {
        let b = ServiceBreakdown {
            seek: SimTime::from_us(10),
            rotation: SimTime::from_us(5),
            transfer: SimTime::from_us(1),
        };
        assert_eq!(b.total(), SimTime::from_us(16));
    }
}
