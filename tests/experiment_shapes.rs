//! The paper's quantitative *shapes*, asserted as tests — small, fast
//! versions of the E2/E5/E6/E7/E12 simulator experiments, so that any
//! regression in the substrate that would change the reproduction's
//! conclusions fails CI rather than silently producing different tables.

use pario::layout::{Partitioned, Striped};
use pario::sim::disk::SchedPolicy;
use pario::sim::{DiskReq, Op, Simulation};
use pario_bench::simx::{plan_reqs, stream_script, wren_bank, wren_capacity_blocks};
use pario_bench::BS;

fn stream_makespan(devices: usize, unit: u64, blocks: u64, window: usize) -> f64 {
    let layout = Striped::new(devices, unit);
    let mut sim = Simulation::new();
    wren_bank(&mut sim, devices, SchedPolicy::Fifo);
    sim.add_proc(stream_script(&layout, blocks, window as u64 * 16, 16));
    sim.run().makespan.as_secs_f64()
}

/// E2: striping a type-S stream over D drives speeds it up ~Dx.
#[test]
fn e2_shape_striping_scales() {
    let blocks = 4 * 1024 * 1024 / BS as u64; // 4 MiB
    let one = stream_makespan(1, 16, blocks, 2);
    let four = stream_makespan(4, 16, blocks, 8);
    let speedup = one / four;
    assert!(
        (3.5..4.5).contains(&speedup),
        "striping speedup at 4 drives should be ~4x, got {speedup:.2}x"
    );
}

/// E5: the PS global view is pinned to one drive — striped wins ~Dx.
#[test]
fn e5_shape_ps_global_view_serial() {
    let blocks = 4 * 1024 * 1024 / BS as u64;
    let striped = stream_makespan(4, 16, blocks, 8);
    let ps = {
        let layout = Partitioned::uniform(blocks, 4, 4);
        let mut sim = Simulation::new();
        wren_bank(&mut sim, 4, SchedPolicy::Fifo);
        sim.add_proc(stream_script(&layout, blocks, 8 * 16, 16));
        sim.run().makespan.as_secs_f64()
    };
    let gap = ps / striped;
    assert!(
        gap > 3.0,
        "PS global view should be ~4x slower than striped, got {gap:.2}x"
    );
}

/// E6: far-apart contiguous regions on a shared drive cost seeks that
/// local interleaving avoids.
#[test]
fn e6_shape_allocation_policy_matters() {
    let run = |interleaved: bool| -> f64 {
        let mut sim = Simulation::new();
        wren_bank(&mut sim, 1, SchedPolicy::Fifo);
        let slots = 4u64;
        let chunk = 16u64;
        // Contiguous regions spread across the platter, like separate
        // partitions of a big file.
        let region = wren_capacity_blocks() / slots;
        for slot in 0..slots {
            let ops: Vec<Op> = (0..16u64)
                .map(|k| {
                    let addr = if interleaved {
                        (k * slots + slot) * chunk
                    } else {
                        slot * region + k * chunk
                    };
                    Op::Io(vec![DiskReq::read(0, addr, chunk as u32)])
                })
                .collect();
            sim.add_proc(ops);
        }
        sim.run().makespan.as_secs_f64()
    };
    let contiguous = run(false);
    let interleaved = run(true);
    assert!(
        contiguous > interleaved * 1.2,
        "far-apart contiguous allocation should pay seeks: {contiguous:.3}s vs {interleaved:.3}s"
    );
}

/// E7: under a hot-spot, whole-block placement saturates one drive while
/// declustering balances.
#[test]
fn e7_shape_declustering_balances_hotspots() {
    let run = |declustered: bool| -> (f64, f64) {
        let layout = if declustered {
            Striped::declustered(4)
        } else {
            Striped::whole_block(4, 8)
        };
        let mut sim = Simulation::new();
        wren_bank(&mut sim, 4, SchedPolicy::Fifo);
        // 8 processes hammer file block 3 (on one drive under whole-block).
        for _ in 0..8 {
            let ops: Vec<Op> = (0..24)
                .map(|_| Op::Io(plan_reqs(&layout, &[(3 * 8, 8)], 8)))
                .collect();
            sim.add_proc(ops);
        }
        let r = sim.run();
        let busies: Vec<f64> = r.devices.iter().map(|d| d.busy.as_secs_f64()).collect();
        let mean = busies.iter().sum::<f64>() / 4.0;
        let max = busies.iter().cloned().fold(0.0, f64::max);
        (r.makespan.as_secs_f64(), max / mean)
    };
    let (wb_time, wb_imb) = run(false);
    let (dc_time, dc_imb) = run(true);
    assert!(
        wb_imb > 3.0,
        "whole-block hot spot expected, got {wb_imb:.2}"
    );
    assert!(dc_imb < 1.2, "declustering should balance, got {dc_imb:.2}");
    assert!(
        wb_time > dc_time * 1.5,
        "declustering should win under a hot spot: {wb_time:.2}s vs {dc_time:.2}s"
    );
}

/// E12: an IS cluster at or past the read-ahead budget serialises the
/// global view to one drive's rate.
#[test]
fn e12_shape_cluster_vs_budget() {
    let blocks = 4 * 1024 * 1024 / BS as u64;
    let budget_reqs = 4usize; // 4 requests x 8 blocks = 32-block budget
    let run = |cluster: u64| -> f64 {
        let layout = Striped::interleaved(4, cluster);
        let mut sim = Simulation::new();
        wren_bank(&mut sim, 4, SchedPolicy::Fifo);
        sim.add_proc(stream_script(&layout, blocks, budget_reqs as u64 * 8, 8));
        sim.run().makespan.as_secs_f64()
    };
    let small = run(8); // cluster well under the budget
    let big = run(64); // cluster twice the budget
    assert!(
        big > small * 2.5,
        "oversized clusters should collapse throughput: {big:.2}s vs {small:.2}s"
    );
}
