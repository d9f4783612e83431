//! Property test: the volume cache tier, under arbitrary interleavings
//! of reads, writes and flushes, behaves exactly like the
//! obvious model — and never lets dirty data reach the device before it
//! should under write-back, nor later than immediately under
//! write-through.

use proptest::prelude::*;

use pario_buffer::{VolumeCache, VolumeCacheConfig, WritePolicy};
use pario_disk::{mem_array, DeviceRef};

const BS: usize = 64;
const BLOCKS: u64 = 16;

#[derive(Clone, Debug)]
enum OpKind {
    Read(u64),
    Write(u64, u8),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (0..BLOCKS).prop_map(OpKind::Read),
        (0..BLOCKS, any::<u8>()).prop_map(|(b, v)| OpKind::Write(b, v)),
        Just(OpKind::Flush),
    ]
}

fn run_model(policy: WritePolicy, capacity: usize, ops: &[OpKind]) {
    let devs: Vec<DeviceRef> = mem_array(1, BLOCKS, BS);
    let cfg = match policy {
        WritePolicy::WriteThrough => VolumeCacheConfig::write_through(capacity),
        WritePolicy::WriteBack => VolumeCacheConfig::write_back(capacity),
    };
    let cache = VolumeCache::new(devs.clone(), cfg);
    // The logical content model (what reads must return).
    let mut logical: Vec<u8> = vec![0; BLOCKS as usize];
    let mut buf = vec![0u8; BS];
    let mut got = vec![0u8; BS];
    for op in ops {
        match *op {
            OpKind::Read(b) => {
                cache.read_block(0, b, &mut got).unwrap();
                assert!(
                    got.iter().all(|&x| x == logical[b as usize]),
                    "read {b}: cache returned stale data ({policy:?})"
                );
            }
            OpKind::Write(b, v) => {
                cache.write_block(0, b, &[v; BS]).unwrap();
                logical[b as usize] = v;
                if policy == WritePolicy::WriteThrough {
                    devs[0].read_block(b, &mut buf).unwrap();
                    assert!(buf.iter().all(|&x| x == v), "write-through lagged");
                }
            }
            OpKind::Flush => {
                cache.flush().unwrap();
                for b in 0..BLOCKS {
                    devs[0].read_block(b, &mut buf).unwrap();
                    assert!(
                        buf.iter().all(|&x| x == logical[b as usize]),
                        "flush left block {b} stale"
                    );
                }
            }
        }
    }
    // Final flush: device converges to the logical state.
    cache.flush().unwrap();
    for b in 0..BLOCKS {
        devs[0].read_block(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == logical[b as usize]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn write_back_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 1usize..20,
    ) {
        run_model(WritePolicy::WriteBack, capacity, &ops);
    }

    #[test]
    fn write_through_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        capacity in 1usize..20,
    ) {
        run_model(WritePolicy::WriteThrough, capacity, &ops);
    }

    /// Cache statistics are coherent: hits + misses equals the reads
    /// issued, and the cache never exceeds its capacity.
    #[test]
    fn stats_and_capacity(
        ops in proptest::collection::vec((0..BLOCKS, any::<bool>()), 1..100),
        capacity in 1usize..8,
    ) {
        let devs: Vec<DeviceRef> = mem_array(1, BLOCKS, BS);
        let cache = VolumeCache::new(devs, VolumeCacheConfig::write_back(capacity));
        let mut lookups = 0u64;
        let mut got = vec![0u8; BS];
        for (b, is_read) in ops {
            if is_read {
                cache.read_block(0, b, &mut got).unwrap();
                lookups += 1;
            } else {
                cache.write_block(0, b, &[b as u8; BS]).unwrap();
            }
            prop_assert!(cache.len() <= capacity);
        }
        let s = cache.stats();
        prop_assert_eq!(s.base.hits + s.base.misses, lookups);
    }
}
