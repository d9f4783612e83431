//! Cross-layout property tests: composed layouts (shadowed partitioned,
//! parity), spec construction, run coalescing, the planner, and the
//! capacity arithmetic the allocator depends on.

use proptest::prelude::*;

use pario_layout::{
    check_bijection, plan, runs, Layout, LayoutSpec, MergedRun, ParityPlacement, ParityStriped,
    Partitioned, Shadowed, Striped,
};

/// Ascending, disjoint `(first, count)` extents from `(gap, count)`
/// pairs.
fn extents(pieces: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut at = 0;
    pieces
        .iter()
        .map(|&(gap, count)| {
            at += gap + count;
            (at - count, count)
        })
        .collect()
}

/// Every listed block is in exactly one part, parts tile each extent in
/// logical order, and each part sits where the layout maps it.
fn check_parts(l: &dyn Layout, ext: &[(u64, u64)], groups: &[Vec<MergedRun>]) {
    let mut parts: Vec<_> = groups.iter().flatten().flat_map(|m| &m.parts).collect();
    parts.sort_by_key(|r| r.lblock);
    let mut it = parts.iter();
    for &(first, count) in ext {
        let end = first + count;
        let mut at = first;
        while at < end {
            let r = it.next().expect("a listed block has no part");
            assert_eq!(r.lblock, at, "parts tile {first}+{count}");
            for k in 0..r.count {
                let p = l.map(r.lblock + k);
                assert_eq!((p.device, p.block), (r.device, r.dblock + k));
            }
            at += r.count;
        }
        assert_eq!(at, end, "a part crosses the end of {first}+{count}");
    }
    assert!(it.next().is_none(), "a part lies outside the list");
    for m in groups.iter().flatten() {
        assert!(m.parts.windows(2).all(|w| w[0].lblock < w[1].lblock));
    }
}

/// Each device's transfers ascend, are disjoint and never abut, and
/// hold their parts inside them, ascending.
fn check_transfers(groups: &[Vec<MergedRun>]) {
    for (d, g) in groups.iter().enumerate() {
        for m in g {
            assert_eq!(m.device, d);
            let mut end = m.dblock;
            for r in &m.parts {
                assert_eq!(r.device, d);
                assert!(r.dblock >= end && r.dblock + r.count <= m.dblock + m.count);
                end = r.dblock + r.count;
            }
            assert_eq!(end, m.dblock + m.count, "a transfer ends on a part");
        }
        for w in g.windows(2) {
            assert!(
                w[0].dblock + w[0].count < w[1].dblock,
                "{w:?} overlap or abut"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shadowed(Partitioned) keeps the bijection and mirrors capacities.
    #[test]
    fn shadowed_partitioned_bijection(total in 0u64..300, parts in 1usize..7, devices in 1usize..4) {
        let inner = Partitioned::uniform(total, parts, devices);
        let l = Shadowed::new(Box::new(inner));
        check_bijection(&l, total);
        for d in 0..devices {
            prop_assert_eq!(
                l.blocks_on_device(total, d),
                l.blocks_on_device(total, d + devices)
            );
        }
        for b in 0..total {
            let p = l.map(b);
            let m = l.mirror(p);
            prop_assert_eq!(m.device, p.device + devices);
            prop_assert_eq!(m.block, p.block);
        }
    }

    /// Shadowed(Striped) mirror round trips via primary().
    #[test]
    fn shadow_primary_mirror_inverse(total in 1u64..300, devices in 1usize..5, unit in 1u64..9) {
        let l = Shadowed::new(Box::new(Striped::new(devices, unit)));
        for b in 0..total {
            let p = l.map(b);
            prop_assert_eq!(l.primary(l.mirror(p)), p);
        }
    }

    /// Parity layouts: total device capacity equals data + one parity
    /// block per stripe.
    #[test]
    fn parity_capacity_accounts_for_parity(w in 1usize..7, total in 0u64..300, rotated in proptest::bool::ANY) {
        let placement = if rotated { ParityPlacement::Rotated } else { ParityPlacement::Dedicated };
        let l = ParityStriped::new(w, placement);
        let sum: u64 = (0..l.devices()).map(|d| l.blocks_on_device(total, d)).sum();
        prop_assert_eq!(sum, total + l.stripes(total));
    }

    /// LayoutSpec::build produces mappings identical to direct
    /// construction for every spec kind.
    #[test]
    fn spec_build_equivalence(total in 1u64..200, devices in 1usize..5, unit in 1u64..6) {
        let specs = vec![
            LayoutSpec::Striped { devices, unit },
            LayoutSpec::Parity { data_devices: devices, rotated: true },
            LayoutSpec::Shadowed(Box::new(LayoutSpec::Striped { devices, unit })),
        ];
        for spec in specs {
            let built = spec.build();
            prop_assert_eq!(built.devices(), spec.devices_required());
            // Spot-check the mapping is self-consistent.
            for b in (0..total).step_by(7) {
                let p = built.map(b);
                prop_assert_eq!(built.invert(p.device, p.block), Some(b));
            }
        }
    }

    /// Run coalescing is a partition of the range: runs are non-empty,
    /// contiguous in logical space, and total to the range length.
    #[test]
    fn runs_partition_the_range(
        devices in 1usize..5,
        unit in 1u64..9,
        start in 0u64..200,
        count in 0u64..200,
    ) {
        let l = Striped::new(devices, unit);
        let rs = runs(&l, start, count);
        let mut pos = start;
        for r in &rs {
            prop_assert_eq!(r.lblock, pos);
            prop_assert!(r.count > 0);
            // Within a run, every block is on the same device,
            // consecutively.
            for k in 0..r.count {
                let p = l.map(r.lblock + k);
                prop_assert_eq!(p.device, r.device);
                prop_assert_eq!(p.block, r.dblock + k);
            }
            pos += r.count;
        }
        prop_assert_eq!(pos, start + count);
    }

    /// The planner, on every layout kind and any ascending extent list:
    /// parts cover the list, transfers are well formed, without holes a
    /// transfer is exactly its parts, and under the parity rule the only
    /// rows a transfer adds are its device's parity rows.
    #[test]
    fn plan_covers_the_list_and_merges_only_through_holes(
        pieces in proptest::collection::vec((0u64..6, 1u64..12), 0..12),
        kind in 0usize..4,
        devices in 1usize..5,
        unit in 1u64..6,
        parts in 1usize..6,
        rotated in proptest::bool::ANY,
    ) {
        let ext = extents(&pieces);
        let total = ext.last().map_or(0, |&(first, count)| first + count);
        let layout: Box<dyn Layout> = match kind {
            0 => Box::new(Striped::new(devices, unit)),
            1 => Box::new(Partitioned::uniform(total, parts, devices)),
            2 => Box::new(Shadowed::new(Box::new(Striped::new(devices, unit)))),
            _ => Box::new(ParityStriped::new(devices, ParityPlacement::Rotated)),
        };
        let groups = plan(&*layout, &ext, |_, _| false);
        prop_assert_eq!(groups.len(), layout.devices());
        check_parts(&*layout, &ext, &groups);
        check_transfers(&groups);
        for m in groups.iter().flatten() {
            prop_assert_eq!(m.count, m.parts.iter().map(|r| r.count).sum::<u64>());
        }

        let placement = if rotated { ParityPlacement::Rotated } else { ParityPlacement::Dedicated };
        let ps = ParityStriped::new(devices, placement);
        let hole = |device: usize, row: u64| ps.parity_device(row) == device;
        let groups = plan(&ps, &ext, hole);
        check_parts(&ps, &ext, &groups);
        check_transfers(&groups);
        for m in groups.iter().flatten() {
            let mut covered = vec![false; m.count as usize];
            for r in &m.parts {
                for k in r.dblock..r.dblock + r.count {
                    covered[(k - m.dblock) as usize] = true;
                }
            }
            for (i, _) in covered.iter().enumerate().filter(|(_, &c)| !c) {
                prop_assert!(hole(m.device, m.dblock + i as u64), "{:?} reads a data row", m);
            }
        }
    }
}
