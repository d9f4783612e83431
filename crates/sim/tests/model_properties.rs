//! Property tests for the disk model: scheduler completeness and timing
//! sanity.

use proptest::prelude::*;

use pario_sim::disk::{DiskGeometry, ModeledDisk, SchedPolicy, Scheduler};
use pario_sim::{DeviceModel, DiskReq, PendingReq, SimTime};

const POLICIES: [SchedPolicy; 4] = [
    SchedPolicy::Fifo,
    SchedPolicy::Sstf,
    SchedPolicy::Scan,
    SchedPolicy::CScan,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy drains any queue completely, picking valid indices.
    #[test]
    fn schedulers_drain_any_queue(
        cyls in proptest::collection::vec(0u32..2000, 1..40),
        head in 0u32..2000,
        policy_idx in 0usize..4,
    ) {
        let mut s = Scheduler::new(POLICIES[policy_idx]);
        let mut queue: Vec<(u32, u64)> = cyls.iter().copied().zip(0u64..).collect();
        let mut head = head;
        let mut served = Vec::new();
        while let Some(i) = s.pick(&queue, head) {
            prop_assert!(i < queue.len());
            let (cyl, tag) = queue.remove(i);
            head = cyl;
            served.push(tag);
        }
        served.sort();
        prop_assert_eq!(served, (0..cyls.len() as u64).collect::<Vec<_>>());
    }

    /// SSTF never picks a strictly farther request than the closest one.
    #[test]
    fn sstf_greedy_invariant(
        cyls in proptest::collection::vec(0u32..2000, 1..30),
        head in 0u32..2000,
    ) {
        let mut s = Scheduler::new(SchedPolicy::Sstf);
        let queue: Vec<(u32, u64)> = cyls.iter().copied().zip(0u64..).collect();
        let i = s.pick(&queue, head).unwrap();
        let chosen = queue[i].0.abs_diff(head);
        let min = queue.iter().map(|&(c, _)| c.abs_diff(head)).min().unwrap();
        prop_assert_eq!(chosen, min);
    }

    /// Modeled service times are positive, finite, and decompose into
    /// the reported breakdown.
    #[test]
    fn modeled_service_decomposes(
        blocks in proptest::collection::vec(0u64..100_000, 1..20),
        policy_idx in 0usize..4,
    ) {
        let mut d = ModeledDisk::new(DiskGeometry::wren_1989(), POLICIES[policy_idx], 4096);
        let cap = d.capacity_blocks();
        for (tag, &b) in blocks.iter().enumerate() {
            d.enqueue(PendingReq {
                req: DiskReq::read(0, b % (cap - 4), 1 + (b % 4) as u32),
                proc: 0,
                issued: SimTime::ZERO,
                tag: tag as u64,
            });
        }
        let mut now = SimTime::ZERO;
        let mut count = 0;
        while let Some(s) = d.start_next(now) {
            prop_assert!(s.complete_at >= now);
            prop_assert_eq!(s.complete_at - now, s.breakdown.total());
            prop_assert!(s.breakdown.transfer > SimTime::ZERO);
            // Rotation is bounded by one revolution.
            prop_assert!(s.breakdown.rotation < DiskGeometry::wren_1989().revolution());
            now = s.complete_at;
            count += 1;
        }
        prop_assert_eq!(count, blocks.len());
    }

    /// Geometry timing: seek is monotone in distance; rotational latency
    /// is always under one revolution.
    #[test]
    fn geometry_bounds(d1 in 0u32..1549, d2 in 0u32..1549, now_ns in 0u64..10_000_000_000, sector in 0u32..46) {
        let g = DiskGeometry::wren_1989();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(g.seek_time(lo) <= g.seek_time(hi));
        let lat = g.rotational_latency(SimTime::from_ns(now_ns), sector);
        prop_assert!(lat < g.revolution());
    }
}
