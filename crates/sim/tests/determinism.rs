//! Property tests for the engine's foundational guarantees: exact
//! determinism, work conservation, and stat accounting.

use proptest::prelude::*;

use pario_sim::{DiskReq, FixedLatencyModel, Op, SimTime, Simulation};

/// A compact recipe for generating an arbitrary-but-valid simulation.
#[derive(Clone, Debug)]
struct Recipe {
    devices: usize,
    procs: Vec<Vec<(u8, u64, u8)>>, // (op selector, value, device hint)
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (1usize..5, 1usize..6).prop_flat_map(|(devices, nprocs)| {
        let ops = proptest::collection::vec((0u8..4, 0u64..1000, proptest::num::u8::ANY), 1..20);
        proptest::collection::vec(ops, nprocs).prop_map(move |procs| Recipe { devices, procs })
    })
}

fn build(r: &Recipe) -> Simulation {
    let mut sim = Simulation::new();
    sim.enable_trace();
    for _ in 0..r.devices {
        sim.add_device(Box::new(FixedLatencyModel::new(
            SimTime::from_us(50),
            SimTime::from_us(7),
        )));
    }
    for script in &r.procs {
        let ops: Vec<Op> = script
            .iter()
            .map(|&(sel, val, dev)| {
                let device = dev as usize % r.devices;
                match sel {
                    0 => Op::Compute(SimTime::from_us(val)),
                    1 => Op::Io(vec![DiskReq::read(device, val, 1 + (val % 4) as u32)]),
                    2 => Op::IoAsync(vec![DiskReq::write(device, val, 1)]),
                    _ => Op::WaitAll,
                }
            })
            .collect();
        sim.add_proc(ops);
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two runs of the same recipe are bit-for-bit identical.
    #[test]
    fn identical_runs(r in recipe_strategy()) {
        let a = build(&r).run();
        let b = build(&r).run();
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
            prop_assert_eq!(x.proc, y.proc);
            prop_assert_eq!(x.device, y.device);
            prop_assert_eq!(x.block, y.block);
        }
        for (x, y) in a.devices.iter().zip(&b.devices) {
            prop_assert_eq!(x.busy, y.busy);
            prop_assert_eq!(x.response_total, y.response_total);
        }
    }

    /// Every issued request is serviced exactly once, and device busy
    /// time is consistent with the trace.
    #[test]
    fn work_conservation(r in recipe_strategy()) {
        let issued: u64 = r
            .procs
            .iter()
            .flatten()
            .filter(|&&(sel, _, _)| sel == 1 || sel == 2)
            .count() as u64;
        let report = build(&r).run();
        let serviced: u64 = report.devices.iter().map(|d| d.requests).sum();
        prop_assert_eq!(serviced, issued);
        prop_assert_eq!(report.trace.len() as u64, issued);
        // Per-device busy equals the sum of its trace intervals.
        for (d, stats) in report.devices.iter().enumerate() {
            let traced: SimTime = report
                .trace
                .iter()
                .filter(|t| t.device == d)
                .map(|t| t.end - t.start)
                .sum();
            prop_assert_eq!(traced, stats.busy);
        }
    }

    /// A device never services two requests at once (trace intervals on
    /// one device are disjoint).
    #[test]
    fn no_device_overlap(r in recipe_strategy()) {
        let report = build(&r).run();
        for d in 0..r.devices {
            let mut intervals: Vec<(SimTime, SimTime)> = report
                .trace
                .iter()
                .filter(|t| t.device == d)
                .map(|t| (t.start, t.end))
                .collect();
            intervals.sort();
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap on device {}", d);
            }
        }
    }

    /// Makespan equals the last event in the system — the later of the
    /// final process finish and the final device completion (a process
    /// may finish with fire-and-forget async writes still in flight).
    #[test]
    fn makespan_is_last_event(r in recipe_strategy()) {
        let report = build(&r).run();
        let last_finish = report
            .procs
            .iter()
            .map(|p| p.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        let last_io = report
            .trace
            .iter()
            .map(|t| t.end)
            .max()
            .unwrap_or(SimTime::ZERO);
        prop_assert_eq!(report.makespan, last_finish.max(last_io));
    }
}
