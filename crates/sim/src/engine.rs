//! The discrete-event engine.
//!
//! The engine owns a set of scripted processes and a set of devices, and
//! advances a virtual clock from event to event. Two event kinds exist: a
//! process becomes runnable, or a device finishes servicing a request.
//! Events at equal times are ordered by insertion sequence, so runs are
//! exactly reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::model::DeviceModel;
use crate::request::{DiskReq, PendingReq, ReqKind, Started};
use crate::script::Op;
use crate::stats::{DeviceStats, ProcStats, SimReport, TraceEvent};
use crate::time::SimTime;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum EvKind {
    ProcReady(usize),
    DiskDone(usize),
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Ev {
    time: SimTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Ev) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Ev) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ProcState {
    Idle,
    Computing,
    WaitingIo,
    AtBarrier,
    Done,
}

struct Proc {
    ops: VecDeque<Op>,
    outstanding: usize,
    state: ProcState,
    blocked_since: SimTime,
    stats: ProcStats,
}

struct Device {
    model: Box<dyn DeviceModel>,
    current: Option<Started>,
    service_start: SimTime,
    stats: DeviceStats,
}

/// A configured simulation: devices, scripted processes, and a clock.
///
/// ```
/// use pario_sim::{FixedLatencyModel, Script, SimTime, Simulation};
///
/// let mut sim = Simulation::new();
/// let dev = sim.add_device(Box::new(FixedLatencyModel::new(
///     SimTime::from_us(10),
///     SimTime::from_us(1),
/// )));
/// sim.add_proc(Script::new().read(dev, 0, 4).build());
/// let report = sim.run();
/// assert_eq!(report.makespan, SimTime::from_us(14));
/// ```
pub struct Simulation {
    now: SimTime,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    req_tag: u64,
    procs: Vec<Proc>,
    devices: Vec<Device>,
    trace: bool,
    trace_events: Vec<TraceEvent>,
}

impl Default for Simulation {
    fn default() -> Simulation {
        Simulation::new()
    }
}

impl Simulation {
    /// An empty simulation at time zero.
    pub fn new() -> Simulation {
        Simulation {
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            seq: 0,
            req_tag: 0,
            procs: Vec::new(),
            devices: Vec::new(),
            trace: false,
            trace_events: Vec::new(),
        }
    }

    /// Record every serviced request in the report's trace.
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// Add a device; returns its index for use in [`DiskReq`]s.
    pub fn add_device(&mut self, model: Box<dyn DeviceModel>) -> usize {
        self.devices.push(Device {
            model,
            current: None,
            service_start: SimTime::ZERO,
            stats: DeviceStats::default(),
        });
        self.devices.len() - 1
    }

    /// Add a scripted process; returns its index.
    pub fn add_proc(&mut self, script: Vec<Op>) -> usize {
        self.procs.push(Proc {
            ops: script.into(),
            outstanding: 0,
            state: ProcState::Idle,
            blocked_since: SimTime::ZERO,
            stats: ProcStats::default(),
        });
        self.procs.len() - 1
    }

    fn schedule(&mut self, time: SimTime, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { time, seq, kind }));
    }

    /// Run every process to completion and report.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while some process is still blocked
    /// (a deadlocked barrier or an I/O that can never complete). That is
    /// always a bug in the experiment script, not a recoverable condition.
    pub fn run(mut self) -> SimReport {
        for p in 0..self.procs.len() {
            self.schedule(SimTime::ZERO, EvKind::ProcReady(p));
        }
        while let Some(Reverse(ev)) = self.heap.pop() {
            debug_assert!(ev.time >= self.now, "time went backwards");
            self.now = ev.time;
            match ev.kind {
                EvKind::ProcReady(p) => self.step(p),
                EvKind::DiskDone(d) => self.complete(d),
            }
        }
        let stuck: Vec<usize> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state != ProcState::Done)
            .map(|(i, _)| i)
            .collect();
        assert!(
            stuck.is_empty(),
            "simulation deadlock: processes {stuck:?} never finished \
             (mismatched barriers or missing devices?)"
        );
        SimReport {
            makespan: self.now,
            procs: self.procs.into_iter().map(|p| p.stats).collect(),
            devices: self.devices.into_iter().map(|d| d.stats).collect(),
            trace: self.trace_events,
        }
    }

    /// Advance process `p` through its script until it blocks or finishes.
    fn step(&mut self, p: usize) {
        loop {
            let op = match self.procs[p].ops.pop_front() {
                Some(op) => op,
                None => {
                    self.procs[p].state = ProcState::Done;
                    self.procs[p].stats.finished_at = self.now;
                    // A process leaving the computation can satisfy a
                    // barrier the remaining processes are waiting at.
                    self.maybe_release_barrier();
                    return;
                }
            };
            match op {
                Op::Compute(d) => {
                    let proc = &mut self.procs[p];
                    proc.stats.compute += d;
                    proc.state = ProcState::Computing;
                    let at = self.now + d;
                    self.schedule(at, EvKind::ProcReady(p));
                    return;
                }
                Op::Io(reqs) => {
                    self.issue(p, &reqs);
                    let proc = &mut self.procs[p];
                    proc.stats.io_calls += 1;
                    if proc.outstanding > 0 {
                        proc.state = ProcState::WaitingIo;
                        proc.blocked_since = self.now;
                        return;
                    }
                }
                Op::IoAsync(reqs) => {
                    self.issue(p, &reqs);
                }
                Op::WaitAll => {
                    let proc = &mut self.procs[p];
                    if proc.outstanding > 0 {
                        proc.state = ProcState::WaitingIo;
                        proc.blocked_since = self.now;
                        return;
                    }
                }
                Op::Barrier => {
                    let proc = &mut self.procs[p];
                    proc.state = ProcState::AtBarrier;
                    proc.blocked_since = self.now;
                    self.maybe_release_barrier();
                    return;
                }
            }
        }
    }

    fn issue(&mut self, p: usize, reqs: &[DiskReq]) {
        for req in reqs {
            assert!(
                req.device < self.devices.len(),
                "request targets device {} but only {} exist",
                req.device,
                self.devices.len()
            );
            assert!(req.nblocks >= 1, "zero-length request");
            let tag = self.req_tag;
            self.req_tag += 1;
            self.devices[req.device].model.enqueue(PendingReq {
                req: *req,
                proc: p,
                issued: self.now,
                tag,
            });
            self.procs[p].outstanding += 1;
            self.kick(req.device);
        }
    }

    /// Start the next queued request on device `d` if it is idle.
    fn kick(&mut self, d: usize) {
        if self.devices[d].current.is_some() {
            return;
        }
        let now = self.now;
        if let Some(started) = self.devices[d].model.start_next(now) {
            let at = started.complete_at;
            self.devices[d].service_start = now;
            self.devices[d].current = Some(started);
            self.schedule(at, EvKind::DiskDone(d));
        }
    }

    fn complete(&mut self, d: usize) {
        let started = self.devices[d]
            .current
            .take()
            .expect("DiskDone for idle device");
        let service_start = self.devices[d].service_start;
        let b = started.breakdown;
        {
            let stats = &mut self.devices[d].stats;
            stats.requests += 1;
            stats.blocks += u64::from(started.pending.req.nblocks);
            stats.busy += b.total();
            stats.seek += b.seek;
            stats.rotation += b.rotation;
            stats.transfer += b.transfer;
            stats.response_total += self.now - started.pending.issued;
        }
        if self.trace {
            self.trace_events.push(TraceEvent {
                start: service_start,
                end: self.now,
                proc: started.pending.proc,
                device: d,
                block: started.pending.req.block,
                nblocks: started.pending.req.nblocks,
                is_write: started.pending.req.kind == ReqKind::Write,
            });
        }
        let p = started.pending.proc;
        let proc = &mut self.procs[p];
        debug_assert!(proc.outstanding > 0);
        proc.outstanding -= 1;
        if proc.state == ProcState::WaitingIo && proc.outstanding == 0 {
            proc.stats.io_wait += self.now - proc.blocked_since;
            proc.state = ProcState::Idle;
            self.schedule(self.now, EvKind::ProcReady(p));
        }
        self.kick(d);
    }

    fn maybe_release_barrier(&mut self) {
        let live = self
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Done)
            .count();
        let waiting = self
            .procs
            .iter()
            .filter(|p| p.state == ProcState::AtBarrier)
            .count();
        if live == 0 || waiting < live {
            return;
        }
        for p in 0..self.procs.len() {
            if self.procs[p].state == ProcState::AtBarrier {
                let since = self.procs[p].blocked_since;
                self.procs[p].stats.barrier_wait += self.now - since;
                self.procs[p].state = ProcState::Idle;
                self.schedule(self.now, EvKind::ProcReady(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedLatencyModel;
    use crate::script::Script;

    fn dev() -> Box<FixedLatencyModel> {
        // 10us per request, 1us per block.
        Box::new(FixedLatencyModel::new(
            SimTime::from_us(10),
            SimTime::from_us(1),
        ))
    }

    #[test]
    fn single_read_timing() {
        let mut sim = Simulation::new();
        let d = sim.add_device(dev());
        sim.add_proc(Script::new().read(d, 0, 4).build());
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(14));
        assert_eq!(r.devices[0].requests, 1);
        assert_eq!(r.devices[0].blocks, 4);
        assert_eq!(r.procs[0].io_wait, SimTime::from_us(14));
        assert_eq!(r.procs[0].finished_at, SimTime::from_us(14));
    }

    #[test]
    fn two_procs_two_devices_overlap() {
        let mut sim = Simulation::new();
        let d0 = sim.add_device(dev());
        let d1 = sim.add_device(dev());
        sim.add_proc(Script::new().read(d0, 0, 10).build());
        sim.add_proc(Script::new().read(d1, 0, 10).build());
        let r = sim.run();
        // Both 20us transfers run in parallel.
        assert_eq!(r.makespan, SimTime::from_us(20));
    }

    #[test]
    fn two_procs_one_device_serialize() {
        let mut sim = Simulation::new();
        let d0 = sim.add_device(dev());
        sim.add_proc(Script::new().read(d0, 0, 10).build());
        sim.add_proc(Script::new().read(d0, 100, 10).build());
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(40));
        // The second process queued behind the first.
        let waits: Vec<_> = r.procs.iter().map(|p| p.io_wait).collect();
        assert!(waits.contains(&SimTime::from_us(20)));
        assert!(waits.contains(&SimTime::from_us(40)));
    }

    #[test]
    fn async_io_overlaps_compute() {
        let mut sim = Simulation::new();
        let d0 = sim.add_device(dev());
        // Issue a 20us read, compute 50us, then collect: I/O hides entirely.
        sim.add_proc(
            Script::new()
                .io_async(vec![DiskReq::read(d0, 0, 10)])
                .compute(SimTime::from_us(50))
                .wait_all()
                .build(),
        );
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(50));
        assert_eq!(r.procs[0].io_wait, SimTime::ZERO);

        // Same work, synchronously: times add.
        let mut sim = Simulation::new();
        let d0 = sim.add_device(dev());
        sim.add_proc(
            Script::new()
                .read(d0, 0, 10)
                .compute(SimTime::from_us(50))
                .build(),
        );
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(70));
    }

    #[test]
    fn barrier_synchronizes() {
        let mut sim = Simulation::new();
        sim.add_proc(
            Script::new()
                .compute(SimTime::from_us(5))
                .barrier()
                .compute(SimTime::from_us(1))
                .build(),
        );
        sim.add_proc(
            Script::new()
                .compute(SimTime::from_us(50))
                .barrier()
                .compute(SimTime::from_us(1))
                .build(),
        );
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(51));
        assert_eq!(r.procs[0].barrier_wait, SimTime::from_us(45));
        assert_eq!(r.procs[1].barrier_wait, SimTime::ZERO);
    }

    #[test]
    fn finished_proc_releases_barrier() {
        let mut sim = Simulation::new();
        // Proc 0 never reaches a barrier but finishes; proc 1's barrier must
        // still release once proc 0 is done.
        sim.add_proc(Script::new().compute(SimTime::from_us(30)).build());
        sim.add_proc(Script::new().barrier().compute(SimTime::from_us(1)).build());
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(31));
    }

    #[test]
    fn lone_proc_barrier_self_releases() {
        // With "only live processes participate" semantics, a barrier whose
        // peers have all finished (or never existed) releases immediately
        // rather than deadlocking.
        let mut sim = Simulation::new();
        sim.add_proc(
            Script::new()
                .barrier()
                .compute(SimTime::from_us(2))
                .barrier()
                .build(),
        );
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(2));
        assert_eq!(r.procs[0].barrier_wait, SimTime::ZERO);
    }

    #[test]
    fn trace_records_service_intervals() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let d0 = sim.add_device(dev());
        sim.add_proc(Script::new().read(d0, 7, 2).write(d0, 9, 1).build());
        let r = sim.run();
        assert_eq!(r.trace.len(), 2);
        assert_eq!(r.trace[0].block, 7);
        assert!(!r.trace[0].is_write);
        assert_eq!(r.trace[0].start, SimTime::ZERO);
        assert_eq!(r.trace[0].end, SimTime::from_us(12));
        assert!(r.trace[1].is_write);
        assert_eq!(r.trace[1].start, SimTime::from_us(12));
    }

    #[test]
    fn deterministic_repeat() {
        let build = || {
            let mut sim = Simulation::new();
            sim.enable_trace();
            let d0 = sim.add_device(dev());
            let d1 = sim.add_device(dev());
            for p in 0..4 {
                let mut s = Script::new();
                for i in 0..8 {
                    s = s
                        .read((p + i) % 2, (p * 100 + i) as u64, 1 + (i as u32 % 3))
                        .compute(SimTime::from_us(3));
                }
                let _ = (d0, d1);
                sim.add_proc(s.build());
            }
            sim.run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(b.trace.iter()) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.proc, y.proc);
            assert_eq!(x.block, y.block);
        }
    }

    #[test]
    fn empty_io_does_not_block() {
        let mut sim = Simulation::new();
        sim.add_proc(vec![
            Op::Io(vec![]),
            Op::WaitAll,
            Op::Compute(SimTime::from_us(1)),
        ]);
        let r = sim.run();
        assert_eq!(r.makespan, SimTime::from_us(1));
    }
}
