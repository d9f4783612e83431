//! Composition test: the cache tier over a dedicated I/O processor —
//! stacking the paper's §4 mechanisms. (A sequential stream over the
//! volume's executors, and two beside each other, are `pario-fs`'s
//! `global.rs` tests: the stream lives there.)

use std::sync::Arc;

use pario_buffer::{VolumeCache, VolumeCacheConfig};
use pario_disk::{IoNode, MemDisk};

const BS: usize = 256;

#[test]
fn cache_reads_over_an_io_node() {
    let node = IoNode::spawn(Arc::new(MemDisk::new(32, BS)));
    let dev = node.device();
    for b in 0..16u64 {
        dev.write_block(b, &vec![b as u8 + 1; BS]).unwrap();
    }
    // Read back through the volume-wide cache tier layered on the node.
    let cache = VolumeCache::new(vec![node.device()], VolumeCacheConfig::write_through(16));
    let mut got = vec![0u8; BS];
    for b in 0..16u64 {
        cache.read_block(0, b, &mut got).unwrap();
        assert!(got.iter().all(|&x| x == b as u8 + 1), "block {b}");
    }
    // Re-reads hit the cache, not the node.
    let before = node.stats().serviced;
    for b in 0..8u64 {
        cache.read_block(0, b, &mut got).unwrap();
    }
    assert_eq!(node.stats().serviced, before);
    assert_eq!(cache.stats().base.hits, 8);
}
