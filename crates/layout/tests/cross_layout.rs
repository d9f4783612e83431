//! Cross-layout property tests: composed layouts (shadowed partitioned,
//! parity), spec construction, run coalescing, and the capacity
//! arithmetic the allocator depends on.

use proptest::prelude::*;

use pario_layout::{
    check_bijection, runs, Layout, LayoutSpec, ParityPlacement, ParityStriped, Partitioned,
    Shadowed, Striped,
};

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
}
