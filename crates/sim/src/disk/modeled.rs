//! The modelled rotating disk: a [`DeviceModel`] for the simulator.
//!
//! Combines [`DiskGeometry`] timing with a [`Scheduler`] policy and tracks
//! the arm's cylinder and the platter's (time-derived) angular position, so
//! that sequential streams run at media rate while interleaved streams from
//! competing processes pay real seeks — the effect at the heart of the
//! paper's §4 discussion of sharing devices among processes.

use crate::{DeviceModel, PendingReq, ServiceBreakdown, SimTime, Started};

use super::geometry::DiskGeometry;
use super::sched::{SchedPolicy, Scheduler};

/// A simulated rotating disk with a request queue.
#[derive(Debug)]
pub struct ModeledDisk {
    geom: DiskGeometry,
    sched: Scheduler,
    sectors_per_block: u64,
    head_cyl: u32,
    queue: Vec<PendingReq>,
}

impl ModeledDisk {
    /// A disk with the given geometry and scheduling policy, addressed in
    /// file-system blocks of `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a positive multiple of the sector
    /// size.
    pub fn new(geom: DiskGeometry, policy: SchedPolicy, block_size: usize) -> ModeledDisk {
        assert!(
            block_size > 0 && block_size.is_multiple_of(geom.sector_bytes as usize),
            "block size {} must be a multiple of the {}-byte sector",
            block_size,
            geom.sector_bytes
        );
        ModeledDisk {
            geom,
            sched: Scheduler::new(policy),
            sectors_per_block: (block_size / geom.sector_bytes as usize) as u64,
            head_cyl: 0,
            queue: Vec::new(),
        }
    }

    /// Device capacity in file-system blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.geom.capacity_sectors() / self.sectors_per_block
    }

    /// The drive's geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geom
    }

    fn first_lba(&self, block: u64) -> u64 {
        block * self.sectors_per_block
    }
}

impl DeviceModel for ModeledDisk {
    fn enqueue(&mut self, req: PendingReq) {
        debug_assert!(
            req.req.end_block() <= self.capacity_blocks(),
            "request for block {} beyond device capacity {}",
            req.req.block,
            self.capacity_blocks()
        );
        self.queue.push(req);
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn start_next(&mut self, now: SimTime) -> Option<Started> {
        let cyls: Vec<(u32, u64)> = self
            .queue
            .iter()
            .map(|p| (self.geom.cylinder_of(self.first_lba(p.req.block)), p.tag))
            .collect();
        let idx = self.sched.pick(&cyls, self.head_cyl)?;
        let pending = self.queue.remove(idx);

        let lba = self.first_lba(pending.req.block);
        let cyl = self.geom.cylinder_of(lba);
        let seek = self.geom.seek_time(cyl.abs_diff(self.head_cyl));
        let after_seek = now + seek;
        let rotation = self
            .geom
            .rotational_latency(after_seek, self.geom.sector_on_track(lba));
        let sectors = u64::from(pending.req.nblocks) * self.sectors_per_block;
        let transfer = self.geom.transfer_time(sectors);

        // The arm ends over the last sector transferred.
        let last_lba = lba + sectors - 1;
        self.head_cyl = self.geom.cylinder_of(last_lba);

        let breakdown = ServiceBreakdown {
            seek,
            rotation,
            transfer,
        };
        Some(Started {
            pending,
            complete_at: now + breakdown.total(),
            breakdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskReq, Script, Simulation};

    const BS: usize = 4096;

    fn disk(policy: SchedPolicy) -> ModeledDisk {
        ModeledDisk::new(DiskGeometry::wren_1989(), policy, BS)
    }

    fn pend(block: u64, nblocks: u32, tag: u64) -> PendingReq {
        PendingReq {
            req: DiskReq::read(0, block, nblocks),
            proc: 0,
            issued: SimTime::ZERO,
            tag,
        }
    }

    #[test]
    fn first_request_from_home_has_no_seek() {
        let mut d = disk(SchedPolicy::Fifo);
        d.enqueue(pend(0, 1, 0));
        let s = d.start_next(SimTime::ZERO).unwrap();
        assert_eq!(s.breakdown.seek, SimTime::ZERO);
        assert_eq!(s.breakdown.rotation, SimTime::ZERO);
        assert!(s.breakdown.transfer > SimTime::ZERO);
    }

    #[test]
    fn distant_block_pays_seek() {
        let mut d = disk(SchedPolicy::Fifo);
        let far = d.capacity_blocks() - 1;
        d.enqueue(pend(far, 1, 0));
        let s = d.start_next(SimTime::ZERO).unwrap();
        // Full-stroke seek on this geometry is > 10 ms.
        assert!(s.breakdown.seek > SimTime::from_ms(10));
    }

    #[test]
    fn sequential_stream_approaches_media_rate() {
        // One process reads 2 MiB sequentially in 4 KiB blocks.
        let mut sim = Simulation::new();
        let dev = sim.add_device(Box::new(disk(SchedPolicy::Fifo)));
        let nblocks = 512u64;
        let mut script = Script::new();
        for b in 0..nblocks {
            script = script.read(dev, b, 1);
        }
        sim.add_proc(script.build());
        let r = sim.run();
        let bytes = nblocks * BS as u64;
        let rate = bytes as f64 / r.makespan.as_secs_f64();
        let media = DiskGeometry::wren_1989().media_rate();
        // Sequential access should achieve a solid fraction of media rate
        // (track boundary rotations cost something, seeks are tiny).
        assert!(
            rate > media * 0.5,
            "sequential rate {:.0} < half media rate {:.0}",
            rate,
            media
        );
    }

    #[test]
    fn interleaved_streams_are_much_slower_than_sequential() {
        // Two processes on one disk, each streaming its own distant
        // partition — every request alternates and pays a long seek.
        let g = DiskGeometry::wren_1989();
        let mut sim = Simulation::new();
        let dev = sim.add_device(Box::new(ModeledDisk::new(g, SchedPolicy::Fifo, BS)));
        let far = ModeledDisk::new(g, SchedPolicy::Fifo, BS).capacity_blocks() / 2;
        let n = 64u64;
        let mut s0 = Script::new();
        let mut s1 = Script::new();
        for b in 0..n {
            s0 = s0.read(dev, b, 1);
            s1 = s1.read(dev, far + b, 1);
        }
        sim.add_proc(s0.build());
        sim.add_proc(s1.build());
        let shared = sim.run();

        // The same total work done sequentially by one process.
        let mut sim = Simulation::new();
        let dev = sim.add_device(Box::new(ModeledDisk::new(g, SchedPolicy::Fifo, BS)));
        let mut s = Script::new();
        for b in 0..n {
            s = s.read(dev, b, 1);
        }
        for b in 0..n {
            s = s.read(dev, far + b, 1);
        }
        sim.add_proc(s.build());
        let alone = sim.run();

        assert!(
            shared.makespan > alone.makespan * 3,
            "interleaving only {} vs {}",
            shared.makespan,
            alone.makespan
        );
        // And the lost time is specifically seek time.
        assert!(shared.devices[0].seek > alone.devices[0].seek * 10);
    }

    #[test]
    fn sstf_beats_fifo_on_scattered_queue() {
        let run = |policy: SchedPolicy| {
            let mut sim = Simulation::new();
            let cap = disk(policy).capacity_blocks();
            let dev = sim.add_device(Box::new(disk(policy)));
            // 4 processes each dump 16 scattered reads into the queue at
            // once, so the scheduler has a deep queue to reorder.
            for p in 0..4u64 {
                let reqs: Vec<DiskReq> = (0..16u64)
                    .map(|i| DiskReq::read(dev, (p * 7919 + i * 104729) % cap, 1))
                    .collect();
                sim.add_proc(Script::new().io_async(reqs).wait_all().build());
            }
            sim.run().makespan
        };
        let fifo = run(SchedPolicy::Fifo);
        let sstf = run(SchedPolicy::Sstf);
        let scan = run(SchedPolicy::Scan);
        assert!(sstf < fifo, "SSTF {sstf} not faster than FIFO {fifo}");
        assert!(scan < fifo, "SCAN {scan} not faster than FIFO {fifo}");
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn ragged_block_size_rejected() {
        ModeledDisk::new(DiskGeometry::wren_1989(), SchedPolicy::Fifo, 1000);
    }
}
