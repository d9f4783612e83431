//! Workload generators for the paper's motivating applications.
//!
//! Each generator is seeded and pure: the same parameters always produce
//! the same workload, so experiments are exactly repeatable.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::{Access, AccessKind, Trace};
use crate::zipf::Zipf;

/// Deterministic record payload: `size` bytes derived from `tag`.
/// Shared by tests and examples so content checks are trivial.
pub fn record_payload(tag: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| (tag.wrapping_mul(2654435761).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

/// Wrapped-matrix workload (the paper's IS example): an `rows x cols`
/// matrix stored row-per-file-block, rows dealt round-robin to
/// `processes`.
#[derive(Copy, Clone, Debug)]
pub struct WrappedMatrix {
    /// Matrix rows.
    pub rows: u64,
    /// Elements (records) per row.
    pub cols: u64,
    /// Cooperating processes.
    pub processes: u32,
}

impl WrappedMatrix {
    /// Rows owned by process `p`: `p, p+P, p+2P, …`.
    pub fn rows_of(&self, p: u32) -> Vec<u64> {
        (u64::from(p)..self.rows)
            .step_by(self.processes as usize)
            .collect()
    }

    /// The write trace: each process writes its rows in order, one access
    /// per element.
    pub fn write_trace(&self) -> Trace {
        let mut accesses = Vec::new();
        for p in 0..self.processes {
            for row in self.rows_of(p) {
                for col in 0..self.cols {
                    accesses.push(Access {
                        proc: p,
                        index: row * self.cols + col,
                        kind: AccessKind::Write,
                    });
                }
            }
        }
        Trace { accesses }
    }

    /// Element value at `(row, col)` — deterministic.
    pub fn element(&self, row: u64, col: u64) -> u64 {
        row * self.cols + col
    }
}

/// Master/worker task-queue workload (the paper's SS example: "a queue
/// with multiple servers").
#[derive(Clone, Debug)]
pub struct TaskQueue {
    /// Per-task work amounts (arbitrary units), heavy-tailed so
    /// self-scheduling has an imbalance to fix.
    pub work: Vec<u64>,
}

impl TaskQueue {
    /// `n` tasks with work drawn from a seeded heavy-tailed distribution
    /// in `[min_work, min_work * 16]`.
    pub fn generate(n: usize, min_work: u64, seed: u64) -> TaskQueue {
        let mut rng = StdRng::seed_from_u64(seed);
        let work = (0..n)
            .map(|_| {
                // Power-of-two heavy tail: mostly small, occasionally 16x.
                let shift: u32 = [0, 0, 0, 1, 1, 2, 3, 4][rng.random_range(0..8)];
                min_work << shift
            })
            .collect();
        TaskQueue { work }
    }

    /// Total work units.
    pub fn total_work(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Ideal makespan on `workers` workers (perfect balance).
    pub fn ideal_makespan(&self, workers: u64) -> u64 {
        (self.total_work() / workers).max(*self.work.iter().max().unwrap_or(&0))
    }

    /// Makespan under *static* partitioned assignment (contiguous task
    /// ranges), the baseline self-scheduling beats on imbalanced work.
    pub fn static_makespan(&self, workers: u32) -> u64 {
        let n = self.work.len();
        let per = n.div_ceil(workers as usize);
        self.work
            .chunks(per.max(1))
            .map(|c| c.iter().sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// Makespan under greedy self-scheduling (next free worker takes the
    /// next task) — a pure simulation, no I/O.
    pub fn self_sched_makespan(&self, workers: u32) -> u64 {
        let mut finish = vec![0u64; workers as usize];
        for &w in &self.work {
            let idx = (0..finish.len()).min_by_key(|&i| finish[i]).unwrap();
            finish[idx] += w;
        }
        finish.into_iter().max().unwrap_or(0)
    }
}

/// Out-of-core iterative solver workload (the paper's PDA example:
/// "programs which can't fit all of their data into memory … blocks can
/// be thought of as pages of virtual memory, with the direct access
/// feature allowing multiple passes").
#[derive(Copy, Clone, Debug)]
pub struct OutOfCore {
    /// Pages per process partition.
    pub pages_per_part: u64,
    /// Processes.
    pub processes: u32,
    /// Sweeps over the data.
    pub passes: u32,
}

impl OutOfCore {
    /// Per-process page-access trace: each pass sweeps the partition's
    /// pages (alternating direction per pass, as relaxation solvers do).
    pub fn trace(&self) -> Trace {
        let mut accesses = Vec::new();
        for p in 0..self.processes {
            for pass in 0..self.passes {
                let pages: Vec<u64> = (0..self.pages_per_part).collect();
                let iter: Box<dyn Iterator<Item = &u64>> = if pass % 2 == 0 {
                    Box::new(pages.iter())
                } else {
                    Box::new(pages.iter().rev())
                };
                for &page in iter {
                    accesses.push(Access {
                        proc: p,
                        index: page,
                        kind: AccessKind::Read,
                    });
                    accesses.push(Access {
                        proc: p,
                        index: page,
                        kind: AccessKind::Write,
                    });
                }
            }
        }
        Trace { accesses }
    }
}

/// Database-style skewed block workload (the paper's GDA example and the
/// Livny et al. declustering scenario).
#[derive(Copy, Clone, Debug)]
pub struct SkewedBlocks {
    /// Distinct file blocks.
    pub blocks: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Zipf exponent (0 = uniform).
    pub theta: f64,
    /// Fraction of requests that are writes (0.0 - 1.0).
    pub write_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SkewedBlocks {
    /// Generate the trace, requests assigned round-robin to `processes`.
    pub fn trace(&self, processes: u32) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.blocks as usize, self.theta);
        // Scatter ranks over block ids so hot blocks are not adjacent
        // (a fixed pseudo-random permutation).
        let mut perm: Vec<u64> = (0..self.blocks).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        let accesses = (0..self.requests)
            .map(|i| {
                let rank = zipf.sample(&mut rng);
                let kind = if rng.random::<f64>() < self.write_fraction {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                Access {
                    proc: i as u32 % processes,
                    index: perm[rank],
                    kind,
                }
            })
            .collect();
        Trace { accesses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_deterministic_and_distinct() {
        assert_eq!(record_payload(5, 32), record_payload(5, 32));
        assert_ne!(record_payload(5, 32), record_payload(6, 32));
        assert_eq!(record_payload(0, 100).len(), 100);
    }

    #[test]
    fn wrapped_matrix_rows_partition_exactly() {
        let m = WrappedMatrix {
            rows: 10,
            cols: 4,
            processes: 3,
        };
        let all: Vec<u64> = (0..3).flat_map(|p| m.rows_of(p)).collect();
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(m.rows_of(1), vec![1, 4, 7]);
        let t = m.write_trace();
        assert_eq!(t.len(), 40);
        assert_eq!(t.touched().len(), 40);
    }

    #[test]
    fn task_queue_self_scheduling_beats_static() {
        let q = TaskQueue::generate(200, 10, 99);
        let workers = 8;
        let ss = q.self_sched_makespan(workers);
        let st = q.static_makespan(workers);
        let ideal = q.ideal_makespan(u64::from(workers));
        assert!(ss >= ideal);
        assert!(
            ss <= st,
            "self-scheduling ({ss}) should not lose to static ({st})"
        );
        // Heavy tail means static is measurably worse.
        assert!(st as f64 >= ss as f64 * 1.02, "st={st} ss={ss}");
    }

    #[test]
    fn task_queue_deterministic() {
        let a = TaskQueue::generate(50, 5, 1);
        let b = TaskQueue::generate(50, 5, 1);
        assert_eq!(a.work, b.work);
        let c = TaskQueue::generate(50, 5, 2);
        assert_ne!(a.work, c.work);
    }

    #[test]
    fn out_of_core_passes_alternate() {
        let w = OutOfCore {
            pages_per_part: 4,
            processes: 1,
            passes: 2,
        };
        let t = w.trace();
        // 2 passes * 4 pages * (read+write) = 16 accesses.
        assert_eq!(t.len(), 16);
        let reads: Vec<u64> = t
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| a.index)
            .collect();
        assert_eq!(reads, vec![0, 1, 2, 3, 3, 2, 1, 0]);
    }

    #[test]
    fn skewed_blocks_hot_spot_exists() {
        let w = SkewedBlocks {
            blocks: 64,
            requests: 10_000,
            theta: 1.0,
            write_fraction: 0.2,
            seed: 3,
        };
        let t = w.trace(4);
        assert_eq!(t.len(), 10_000);
        let mut counts = vec![0usize; 64];
        for a in &t.accesses {
            counts[a.index as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let avg = 10_000 / 64;
        assert!(max > avg * 5, "skew should create a hot block: max={max}");
        // Deterministic given the seed.
        assert_eq!(t.accesses[0], w.trace(4).accesses[0]);
        let writes = t
            .accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert!((1500..2500).contains(&writes), "writes={writes}");
    }
}
