//! Cross-crate property tests: for arbitrary geometries, data, and
//! organizations, what goes in through any internal view comes out
//! through the global view, byte for byte.

use proptest::prelude::*;

use pario::core::{Organization, ParallelFile};
use pario::fs::{Volume, VolumeCacheConfig, VolumeConfig};
use pario::layout::LayoutSpec;

const BS: usize = 256;

fn vol(devices: usize) -> Volume {
    Volume::create_in_memory(VolumeConfig {
        devices,
        device_blocks: 2048,
        block_size: BS,
    })
    .unwrap()
}

fn payload(seed: u64, i: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|j| {
            (seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(i * 131 + j as u64)
                % 251) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any aligned geometry, any organization: global write -> global
    /// read round trip.
    #[test]
    fn global_round_trip(
        seed in 0u64..1000,
        rpb_pow in 0u32..3,
        rec_pow in 0u32..3,
        n in 1u64..120,
        org_idx in 0usize..6,
        devices in 1usize..5,
    ) {
        // record_size * rpb must be a multiple of BS for PS/PDA/IS.
        let record = BS >> rec_pow;          // 256, 128, 64
        let rpb = (1usize << rec_pow) << rpb_pow; // keeps product >= BS
        let orgs = [
            Organization::Sequential,
            Organization::PartitionedSeq { partitions: 3 },
            Organization::InterleavedSeq { processes: 3 },
            Organization::SelfScheduledSeq,
            Organization::GlobalDirect,
            Organization::PartitionedDirect { partitions: 3 },
        ];
        let org = orgs[org_idx];
        let v = vol(devices);
        let pf = ParallelFile::create_sized(&v, "f", org, record, rpb, n).unwrap();
        let mut w = pario::fs::GlobalWriter::truncate(pf.raw().clone()).unwrap();
        for i in 0..n {
            w.write_record(&payload(seed, i, record)).unwrap();
        }
        prop_assert_eq!(w.finish().unwrap(), n);
        let mut r = pf.global_reader();
        let mut buf = vec![0u8; record];
        let mut i = 0u64;
        while r.read_record(&mut buf).unwrap() {
            prop_assert_eq!(&buf, &payload(seed, i, record), "record {}", i);
            i += 1;
        }
        prop_assert_eq!(i, n);
    }

    /// Random single-record writes through a GDA handle, on a volume
    /// with or without a write-back cache tier, striped or on rotated
    /// parity, agree with a shadow model — and, on parity, still agree
    /// once the cache is flushed and a device has failed.
    #[test]
    fn gda_matches_shadow_model(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u64..64, 0u64..1000), 1..80),
        cached in proptest::bool::ANY,
        parity in proptest::bool::ANY,
        dead in 0usize..4,
    ) {
        let v = vol(4);
        if cached {
            v.enable_cache(VolumeCacheConfig::write_back(8)).unwrap();
        }
        let layout = if parity {
            LayoutSpec::Parity { data_devices: 3, rotated: true }
        } else {
            LayoutSpec::Striped { devices: 4, unit: 1 }
        };
        let pf = ParallelFile::create_with_layout(
            &v, "g", Organization::GlobalDirect, 96, 8, layout, None,
        ).unwrap();
        let h = pf.direct_handle().unwrap();
        let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        for &(slot, tag) in &ops {
            let data = payload(seed, tag, 96);
            h.write_record(slot, &data).unwrap();
            model.insert(slot, data);
        }
        let mut buf = vec![0u8; 96];
        for (&slot, data) in &model {
            h.read_record(slot, &mut buf).unwrap();
            prop_assert_eq!(&buf, data, "slot {}", slot);
        }
        v.flush_cache().unwrap();
        if parity {
            v.device(dead).fail();
        }
        for (&slot, data) in &model {
            h.read_record(slot, &mut buf).unwrap();
            prop_assert_eq!(&buf, data, "flushed slot {}", slot);
        }
    }

    /// Parity-protected files reconstruct exactly under any single
    /// device failure, for arbitrary data.
    #[test]
    fn parity_single_failure_lossless(
        seed in 0u64..1000,
        n in 1u64..60,
        dead in 0usize..4,
        rotated in proptest::bool::ANY,
    ) {
        let v = vol(4);
        let f = v.create_file(pario::fs::FileSpec::new(
            "p",
            BS,
            1,
            LayoutSpec::Parity { data_devices: 3, rotated },
        )).unwrap();
        for i in 0..n {
            f.write_record(i, &payload(seed, i, BS)).unwrap();
        }
        v.device(dead).fail();
        let mut buf = vec![0u8; BS];
        for i in 0..n {
            f.read_record(i, &mut buf).unwrap();
            prop_assert_eq!(&buf, &payload(seed, i, BS), "record {}", i);
        }
    }

    /// The allocator + layout stack never aliases: two files on one
    /// volume never disturb each other.
    #[test]
    fn files_are_isolated(
        seed in 0u64..1000,
        na in 1u64..60,
        nb in 1u64..60,
        unit_a in 1u64..4,
        unit_b in 1u64..4,
    ) {
        let v = vol(3);
        let a = v.create_file(pario::fs::FileSpec::new(
            "a", BS, 1, LayoutSpec::Striped { devices: 3, unit: unit_a },
        )).unwrap();
        let b = v.create_file(pario::fs::FileSpec::new(
            "b", BS, 1, LayoutSpec::Striped { devices: 3, unit: unit_b },
        )).unwrap();
        // Interleaved writes to both files.
        for i in 0..na.max(nb) {
            if i < na { a.write_record(i, &payload(seed, i, BS)).unwrap(); }
            if i < nb { b.write_record(i, &payload(seed + 1, i, BS)).unwrap(); }
        }
        let mut buf = vec![0u8; BS];
        for i in 0..na {
            a.read_record(i, &mut buf).unwrap();
            prop_assert_eq!(&buf, &payload(seed, i, BS));
        }
        for i in 0..nb {
            b.read_record(i, &mut buf).unwrap();
            prop_assert_eq!(&buf, &payload(seed + 1, i, BS));
        }
    }
}
