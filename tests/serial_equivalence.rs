//! Serial equivalence of the six organizations: the same logical
//! records, written by 1–8 processes through each organization's own
//! internal view over a random placement (striped, partitioned,
//! shadowed or parity), read back byte-identical through the global
//! view and through every forced view.
//!
//! The processes take turns on one thread, a record each, so a failing
//! case replays exactly; concurrency has its own tests.

use proptest::prelude::*;

use pario::core::{views, Organization, ParallelFile};
use pario::fs::{Volume, VolumeConfig};
use pario::layout::{uniform_bounds, LayoutSpec};

const BS: usize = 256;

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

/// One case's geometry: `n` records of `record` bytes, `rpb` to a file
/// block, written by `procs` processes over `layout`.
struct Case {
    seed: u64,
    n: u64,
    record: usize,
    rpb: usize,
    procs: u32,
    layout: LayoutSpec,
}

impl Case {
    fn rec(&self, i: u64) -> Vec<u8> {
        payload(self.seed, i, self.record)
    }

    /// Create `name` under `org` and write records `0..n` through the
    /// organization's internal view, the processes taking turns.
    fn write(&self, vol: &Volume, name: &str, org: Organization) -> ParallelFile {
        let fixed = org.is_fixed_size() || matches!(self.layout, LayoutSpec::Partitioned { .. });
        let cap = fixed.then_some(self.n);
        let pf = ParallelFile::create_with_layout(
            vol,
            name,
            org,
            self.record,
            self.rpb,
            self.layout.clone(),
            cap,
        )
        .unwrap();
        let p = self.procs;
        match org {
            Organization::Sequential => {
                let mut w = pf.global_writer();
                for i in 0..self.n {
                    w.write_record(&self.rec(i)).unwrap();
                }
                assert_eq!(w.finish().unwrap(), self.n);
            }
            Organization::PartitionedSeq { .. } => {
                let mut hs: Vec<_> = (0..p).map(|q| pf.partition_handle(q).unwrap()).collect();
                let rounds = hs.iter().map(|h| h.len()).max().unwrap_or(0);
                for _ in 0..rounds {
                    for h in &mut hs {
                        if h.position() < h.len() {
                            h.write_next(&self.rec(h.range().0 + h.position())).unwrap();
                        }
                    }
                }
            }
            Organization::InterleavedSeq { .. } => {
                let mut hs: Vec<_> = (0..p).map(|q| pf.interleaved_handle(q).unwrap()).collect();
                let mut live = true;
                while live {
                    live = false;
                    for h in &mut hs {
                        let r = h.current_record();
                        if r < self.n {
                            assert_eq!(h.write_next(&self.rec(r)).unwrap(), r);
                            live = true;
                        }
                    }
                }
            }
            Organization::SelfScheduledSeq => {
                let ws: Vec<_> = (0..p).map(|_| pf.self_sched_writer().unwrap()).collect();
                for i in 0..self.n {
                    let idx = ws[(i % u64::from(p)) as usize].write_next(&self.rec(i));
                    assert_eq!(idx.unwrap(), i);
                }
                assert_eq!(ws[0].finish().unwrap(), self.n);
            }
            Organization::GlobalDirect => {
                // Process q owns the records congruent to q, last first.
                let hs: Vec<_> = (0..p).map(|_| pf.direct_handle().unwrap()).collect();
                for i in (0..self.n).rev() {
                    let h = &hs[(i % u64::from(p)) as usize];
                    h.write_record(i, &self.rec(i)).unwrap();
                }
            }
            Organization::PartitionedDirect { .. } => {
                // Each partition writes its records last first.
                let hs: Vec<_> = (0..p).map(|q| pf.partition_handle(q).unwrap()).collect();
                let rounds = hs.iter().map(|h| h.len()).max().unwrap_or(0);
                for k in 0..rounds {
                    for h in &hs {
                        if k < h.len() {
                            let local = h.len() - 1 - k;
                            h.write_at(local, &self.rec(h.range().0 + local)).unwrap();
                        }
                    }
                }
            }
        }
        assert_eq!(pf.len_records(), self.n, "{org}: length after the writes");
        pf
    }

    /// Every read path returns records `0..n`, each exactly once.
    fn check(&self, pf: &ParallelFile, org: Organization) {
        let n = self.n;
        let p = self.procs;
        let mut buf = vec![0u8; self.record];

        let mut r = pf.global_reader();
        let mut i = 0u64;
        while r.read_record(&mut buf).unwrap() {
            assert_eq!(buf, self.rec(i), "{org}: global view, record {i}");
            i += 1;
        }
        assert_eq!(i, n, "{org}: global view length");

        let mut seen = vec![false; n as usize];
        for q in 0..p {
            let mut h = views::force_interleaved(pf, q, p).unwrap();
            loop {
                let idx = h.current_record();
                if !h.read_next(&mut buf).unwrap() {
                    break;
                }
                assert_eq!(buf, self.rec(idx), "{org}: forced IS {q}/{p}, record {idx}");
                assert!(!std::mem::replace(&mut seen[idx as usize], true));
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{org}: forced IS views miss a record"
        );

        let mut count = 0u64;
        for q in 0..p {
            let mut h = views::force_partition(pf, q, p).unwrap();
            let lo = h.range().0;
            let mut local = 0u64;
            while h.read_next(&mut buf).unwrap() {
                assert_eq!(buf, self.rec(lo + local), "{org}: forced PS {q}/{p}");
                local += 1;
            }
            count += local;
        }
        assert_eq!(count, n, "{org}: forced PS views cover the file");

        let mut seen = vec![false; n as usize];
        let ss = views::force_self_sched(pf);
        while let Some(idx) = ss.read_next(&mut buf).unwrap() {
            assert_eq!(buf, self.rec(idx), "{org}: forced SS, record {idx}");
            assert!(!std::mem::replace(&mut seen[idx as usize], true));
        }
        assert!(seen.iter().all(|&s| s), "{org}: forced SS misses a record");

        let d = views::force_direct(pf);
        for i in 0..n {
            d.read_record(i, &mut buf).unwrap();
            assert_eq!(buf, self.rec(i), "{org}: forced GDA, record {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_organization_reads_back_serially(
        seed in 0u64..1000,
        rec_pow in 0u32..3,
        rpb_pow in 0u32..3,
        n in 1u64..100,
        procs in 1u32..=8,
        kind in 0usize..4,
        width in 1usize..=3,
        unit in 1u64..4,
        rotated in proptest::bool::ANY,
    ) {
        // record * rpb is a whole number of volume blocks.
        let record = BS >> rec_pow;
        let rpb = (1usize << rec_pow) << rpb_pow;
        let striped = LayoutSpec::Striped { devices: width, unit };
        let layout = match kind {
            0 => striped,
            1 => {
                let blocks = (n * record as u64).div_ceil(BS as u64);
                LayoutSpec::Partitioned {
                    bounds: uniform_bounds(blocks, procs as usize),
                    devices: width,
                }
            }
            2 => LayoutSpec::Shadowed(Box::new(striped)),
            _ => LayoutSpec::Parity { data_devices: width, rotated },
        };
        let case = Case { seed, n, record, rpb, procs, layout };
        let vol = Volume::create_in_memory(VolumeConfig {
            devices: 6,
            device_blocks: 1024,
            block_size: BS,
        })
        .unwrap();
        let orgs = [
            Organization::Sequential,
            Organization::PartitionedSeq { partitions: procs },
            Organization::InterleavedSeq { processes: procs },
            Organization::SelfScheduledSeq,
            Organization::GlobalDirect,
            Organization::PartitionedDirect { partitions: procs },
        ];
        for (k, org) in orgs.into_iter().enumerate() {
            let pf = case.write(&vol, &format!("f{k}"), org);
            case.check(&pf, org);
        }
    }
}
