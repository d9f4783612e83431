//! E1 — regenerate **Figure 1**: "Internal organizations of sequential
//! parallel files. Blocks are labeled to indicate representative access
//! patterns for three processes."
//!
//! Drives the real handle types of `pario-core` over a 12-file-block file
//! with three processes, records which process touches each file block,
//! and renders the four subfigures. A verdict checks the defining
//! property of each organization.

use pario_core::{Organization, ParallelFile};
use pario_fs::Volume;

use crate::rig::Rig;
use crate::{Report, Size};

const RECORD: usize = 64;
const RPB: usize = 4; // records per file block
const BLOCKS: u64 = 12;
const RECORDS: u64 = BLOCKS * RPB as u64;
const PROCS: u32 = 3;

/// The figure's style: `[P1]` for a block process 0 touched.
fn render(title: &str, owner: &[Option<u32>]) -> String {
    let blocks = owner.iter().map(|o| match o {
        Some(p) => format!("[P{}]", p + 1),
        None => "[  ]".into(),
    });
    format!("{title:<28} {}", blocks.collect::<String>())
}

fn fill(pf: &ParallelFile) {
    let mut w = pf.global_writer();
    for r in 0..RECORDS {
        w.write_record(&[r as u8; RECORD]).expect("write");
    }
    w.finish().expect("finish");
}

/// (a) Type S: the whole file read in order by a single process.
fn figure_s(v: &Volume, r: &mut Report) -> Vec<Option<u32>> {
    let pf = ParallelFile::create(v, "fig-s", Organization::Sequential, RECORD, RPB).unwrap();
    fill(&pf);
    let mut owner = vec![None; BLOCKS as usize];
    let mut reader = pf.global_reader();
    let mut buf = vec![0u8; RECORD];
    let mut order = Vec::new();
    while reader.read_record(&mut buf).unwrap() {
        let fb = order.len() as u64 / RPB as u64;
        owner[fb as usize] = Some(0);
        order.push(fb);
    }
    let in_order = (0..RECORDS).map(|i| i / RPB as u64);
    r.check(
        format!("(a) S: one process reads all {BLOCKS} blocks, in order"),
        order.into_iter().eq(in_order),
    );
    owner
}

/// (b) Type PS: contiguous blocks, one partition per process.
fn figure_ps(v: &Volume, r: &mut Report) -> Vec<Option<u32>> {
    let org = Organization::PartitionedSeq { partitions: PROCS };
    let pf = ParallelFile::create_sized(v, "fig-ps", org, RECORD, RPB, RECORDS).unwrap();
    // Each process writes its own partition.
    let mut owner = vec![None; BLOCKS as usize];
    for p in 0..PROCS {
        let mut h = pf.partition_handle(p).unwrap();
        let (lo, hi) = h.range();
        for g in lo..hi {
            h.write_next(&[g as u8; RECORD]).unwrap();
            owner[(g / RPB as u64) as usize] = Some(p);
        }
    }
    // Defining property: each process's blocks are contiguous.
    let thirds = (0..BLOCKS).map(|fb| Some((fb / 4) as u32));
    r.check(
        "(b) PS: process p owns the contiguous blocks 4p..4p+4",
        owner.iter().copied().eq(thirds),
    );
    owner
}

/// (c) Type IS: blocks at a constant stride of three.
fn figure_is(v: &Volume, r: &mut Report) -> Vec<Option<u32>> {
    let org = Organization::InterleavedSeq { processes: PROCS };
    let pf = ParallelFile::create(v, "fig-is", org, RECORD, RPB).unwrap();
    let mut owner = vec![None; BLOCKS as usize];
    let mut stride = true;
    for p in 0..PROCS {
        let mut h = pf.interleaved_handle(p).unwrap();
        for k in 0..BLOCKS / u64::from(PROCS) {
            h.seek(k * RPB as u64);
            let fb = h.next_record() / RPB as u64;
            stride &= fb == u64::from(p) + k * u64::from(PROCS);
            for c in 0..RPB as u64 {
                h.write_next(&[c as u8; RECORD]).unwrap();
            }
            owner[fb as usize] = Some(p);
        }
    }
    r.check("(c) IS: process p's block k is file block p + 3k", stride);
    owner
}

/// (d) Type SS: the next record goes to whichever process asks next.
/// Per the paper, "this organization makes most sense when there is a
/// single record per block", so this subfigure uses one record per
/// block and a fixed (but irregular) arrival order — any order is
/// legal; the file guarantees exhaustive, exactly-once delivery.
fn figure_ss(v: &Volume, r: &mut Report) -> Vec<Option<u32>> {
    let block_bytes = RECORD * RPB;
    let pf = ParallelFile::create(
        v,
        "fig-ss",
        Organization::SelfScheduledSeq,
        block_bytes, // one record per file block
        1,
    )
    .unwrap();
    let mut w = pf.global_writer();
    for r in 0..BLOCKS {
        w.write_record(&vec![r as u8; block_bytes]).expect("write");
    }
    w.finish().expect("finish");
    let readers: Vec<_> = (0..PROCS)
        .map(|_| pf.self_sched_reader().unwrap())
        .collect();
    let arrival = [1u32, 0, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1];
    let mut owner = vec![None; BLOCKS as usize];
    let mut buf = vec![0u8; block_bytes];
    let (mut next, mut exact) = (0u64, true);
    for &p in &arrival {
        let Some(idx) = readers[p as usize].read_next(&mut buf).unwrap() else {
            break;
        };
        // Whoever asks gets the next record, and its content.
        exact &= idx == next && buf[0] == idx as u8;
        owner[idx as usize] = Some(p);
        next += 1;
    }
    let exhausted = readers[0].read_next(&mut buf).unwrap().is_none();
    r.check(
        "(d) SS: each claim gets the next record and its content; all served once, then none",
        exact && next == BLOCKS && exhausted,
    );
    owner
}

/// Figure 1 over a 12-block file and three processes, each
/// organization's defining property a verdict.
pub fn run(_: Size) -> Report {
    let v = Rig::new(3).blocks(512).block_size(RECORD * RPB).volume();
    let mut r = Report::default();
    r.note(format!(
        "{BLOCKS} file blocks of {RPB} records each; three processes\n"
    ));
    let a = render("(a) Sequential (S):", &figure_s(&v, &mut r));
    let b = render("(b) Partitioned (PS):", &figure_ps(&v, &mut r));
    let c = render("(c) Interleaved (IS):", &figure_is(&v, &mut r));
    let d = render("(d) Self-scheduled (SS):", &figure_ss(&v, &mut r));
    for line in [a, b, c, d] {
        r.note(line);
    }
    r
}
