//! Cross-layout property tests: composed layouts (shadowed partitioned,
//! parity), spec construction, the planner, and the capacity arithmetic
//! the allocator depends on.

use std::collections::HashSet;

use proptest::prelude::*;

use pario_layout::{
    check_bijection, plan, Layout, LayoutSpec, MergedRun, ParityPlacement, ParityStriped,
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

/// What a plan promises, stated on its rows alone:
///
/// 1. every block of every extent lies in exactly one transfer, on its
///    home device;
/// 2. every other row a transfer covers is one `hole` accepted, and a
///    transfer begins and ends on a listed block;
/// 3. a device's transfers are disjoint and ascending, and never abut
///    (abutting blocks merge).
///
/// The fourth, that the transfers are the recorded ones, is
/// `plan_issues_the_recorded_transfers`.
fn check_plan(
    l: &dyn Layout,
    ext: &[(u64, u64)],
    groups: &[Vec<MergedRun>],
    hole: impl Fn(usize, u64) -> bool,
) {
    assert_eq!(groups.len(), l.devices());
    let listed: HashSet<u64> = ext.iter().flat_map(|&(f, n)| f..f + n).collect();
    for &b in &listed {
        let p = l.map(b);
        let holds = |m: &&MergedRun| (m.dblock..m.dblock + m.count).contains(&p.block);
        let holding = groups[p.device].iter().filter(holds).count();
        assert_eq!(holding, 1, "block {b} at {p:?}");
    }
    let holds_listed = |d: usize, row: u64| l.invert(d, row).is_some_and(|b| listed.contains(&b));
    for (d, g) in groups.iter().enumerate() {
        for m in g {
            assert_eq!(m.device, d);
            let end = m.dblock + m.count;
            assert!(m.count > 0 && holds_listed(d, m.dblock) && holds_listed(d, end - 1));
            for row in (m.dblock..end).filter(|&row| !holds_listed(d, row)) {
                assert!(hole(d, row), "{m:?} reads row {row}, no hole");
            }
        }
        for w in g.windows(2) {
            assert!(
                w[0].dblock + w[0].count < w[1].dblock,
                "{w:?} overlap or abut"
            );
        }
    }
}

/// The plan's `(device, first row, rows)` triples, device by device.
fn triples(groups: &[Vec<MergedRun>]) -> Vec<(usize, u64, u64)> {
    let flat = groups.iter().flatten();
    flat.map(|m| (m.device, m.dblock, m.count)).collect()
}

/// The planner's transfers, recorded case by case: striped,
/// partitioned, shadowed, RAID-4 and rotated parity, with and without
/// the parity sieve, on one extent and on several. They pin the
/// requests a plan issues, so a change to how a plan is built cannot
/// move them.
#[test]
fn plan_issues_the_recorded_transfers() {
    /// A layout, its extents, the parity sieve if any, and the triples.
    type Case<'a> = (
        &'a dyn Layout,
        &'a [(u64, u64)],
        Option<&'a ParityStriped>,
        &'a [(usize, u64, u64)],
    );
    let striped = Striped::new(4, 2);
    let parted = Partitioned::uniform(24, 3, 2);
    let shadowed = Shadowed::new(Box::new(Striped::new(2, 1)));
    let raid4 = ParityStriped::new(3, ParityPlacement::Dedicated);
    let raid5 = ParityStriped::new(3, ParityPlacement::Rotated);
    let (sieve4, sieve5) = (Some(&raid4), Some(&raid5));
    let cases: [Case; 16] = [
        (
            &striped,
            &[(0, 16)],
            None,
            &[(0, 0, 4), (1, 0, 4), (2, 0, 4), (3, 0, 4)],
        ),
        (
            &striped,
            &[(3, 9)],
            None,
            &[(0, 2, 2), (1, 1, 3), (2, 0, 2), (3, 0, 2)],
        ),
        (
            &striped,
            &[(1, 3), (6, 2), (9, 12)],
            None,
            &[(0, 1, 1), (0, 3, 3), (1, 0, 6), (2, 2, 3), (3, 0, 4)],
        ),
        (&parted, &[(0, 24)], None, &[(0, 0, 16), (1, 0, 8)]),
        (
            &parted,
            &[(2, 5), (10, 3), (17, 6)],
            None,
            &[(0, 2, 5), (0, 9, 6), (1, 2, 3)],
        ),
        (&shadowed, &[(0, 6)], None, &[(0, 0, 3), (1, 0, 3)]),
        (
            &shadowed,
            &[(1, 2), (4, 5)],
            None,
            &[(0, 1, 4), (1, 0, 1), (1, 2, 2)],
        ),
        (&raid4, &[(1, 10)], None, &[(0, 1, 3), (1, 0, 4), (2, 0, 3)]),
        (
            &raid4,
            &[(1, 10)],
            sieve4,
            &[(0, 1, 3), (1, 0, 4), (2, 0, 3)],
        ),
        (
            &raid4,
            &[(0, 4), (6, 9)],
            sieve4,
            &[(0, 0, 5), (1, 0, 1), (1, 2, 3), (2, 0, 1), (2, 2, 3)],
        ),
        (
            &raid5,
            &[(1, 10)],
            None,
            &[
                (0, 1, 2),
                (1, 0, 2),
                (1, 3, 1),
                (2, 0, 1),
                (2, 2, 2),
                (3, 1, 2),
            ],
        ),
        (
            &raid5,
            &[(1, 10)],
            sieve5,
            &[(0, 1, 2), (1, 0, 4), (2, 0, 4), (3, 1, 2)],
        ),
        (
            &raid5,
            &[(0, 4), (6, 9)],
            None,
            &[
                (0, 0, 3),
                (0, 4, 1),
                (1, 0, 1),
                (1, 3, 2),
                (2, 0, 1),
                (2, 2, 3),
                (3, 2, 2),
            ],
        ),
        (
            &raid5,
            &[(0, 4), (6, 9)],
            sieve5,
            &[(0, 0, 5), (1, 0, 1), (1, 3, 2), (2, 0, 5), (3, 2, 2)],
        ),
        (
            &raid5,
            &[(0, 2), (5, 7), (14, 1)],
            sieve5,
            &[
                (0, 0, 1),
                (0, 2, 1),
                (1, 0, 1),
                (1, 3, 1),
                (2, 2, 3),
                (3, 1, 3),
            ],
        ),
        // The benchmark's span: 64 blocks of the rotated 3+1 file.
        (
            &raid5,
            &[(2, 64)],
            sieve5,
            &[(0, 1, 21), (1, 1, 21), (2, 0, 21), (3, 1, 21)],
        ),
    ];
    for (l, ext, sieve, recorded) in cases {
        let hole = |d: usize, row: u64| sieve.is_some_and(|ps| ps.parity_device(row) == d);
        let groups = plan(l, ext, hole);
        check_plan(l, ext, &groups, hole);
        assert_eq!(
            triples(&groups),
            recorded,
            "{l:?} {ext:?} sieved: {}",
            sieve.is_some()
        );
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

    /// A range's plan without holes partitions it: its transfers' rows,
    /// together, hold exactly the range's blocks.
    #[test]
    fn runs_partition_the_range(
        devices in 1usize..5,
        unit in 1u64..9,
        start in 0u64..200,
        count in 0u64..200,
    ) {
        let l = Striped::new(devices, unit);
        let groups = plan(&l, &[(start, count)], |_, _| false);
        let mut held: Vec<u64> = groups
            .iter()
            .flatten()
            .flat_map(|m| (m.dblock..m.dblock + m.count).map(|row| l.invert(m.device, row).unwrap()))
            .collect();
        held.sort_unstable();
        prop_assert_eq!(held, (start..start + count).collect::<Vec<_>>());
    }

    /// The planner, on every layout kind and any ascending extent list,
    /// without holes and under the parity rule: [`check_plan`]'s three
    /// properties hold.
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
        check_plan(&*layout, &ext, &groups, |_, _| false);

        let placement = if rotated { ParityPlacement::Rotated } else { ParityPlacement::Dedicated };
        let ps = ParityStriped::new(devices, placement);
        let hole = |device: usize, row: u64| ps.parity_device(row) == device;
        let groups = plan(&ps, &ext, hole);
        check_plan(&ps, &ext, &groups, hole);
    }
}
