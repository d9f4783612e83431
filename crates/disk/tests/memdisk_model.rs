//! Property test for the in-memory device: it behaves like a byte
//! array, across fail/heal epochs.

use proptest::prelude::*;

use pario_disk::{BlockDevice, MemDisk};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MemDisk behaves like a byte array: a write/read model check with
    /// arbitrary interleavings, plus fail/heal epochs.
    #[test]
    fn memdisk_matches_model(
        ops in proptest::collection::vec((0u64..16, 0u8..255, proptest::bool::ANY), 1..60),
    ) {
        let d = MemDisk::new(16, 32);
        let mut model: std::collections::HashMap<u64, u8> = Default::default();
        let mut failed = false;
        let mut buf = vec![0u8; 32];
        for (block, val, toggle) in ops {
            if toggle {
                if failed { d.heal() } else { d.fail() }
                failed = !failed;
                continue;
            }
            let w = d.write_block(block, &[val; 32]);
            if failed {
                prop_assert!(w.is_err());
            } else {
                prop_assert!(w.is_ok());
                model.insert(block, val);
            }
            if !failed {
                d.read_block(block, &mut buf).unwrap();
                let expect = *model.get(&block).unwrap_or(&0);
                prop_assert!(buf.iter().all(|&b| b == expect));
            }
        }
    }
}
