//! Generic access traces.
//!
//! Experiments hand traces — sequences of per-process record/block
//! touches — to either the real file handles or the discrete-event
//! simulator. Keeping the trace representation here lets one generator
//! feed both worlds.

/// Read or write.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

/// One access by one process.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Access {
    /// Issuing process.
    pub proc: u32,
    /// Target index (record or block, per the experiment's convention).
    pub index: u64,
    /// Direction.
    pub kind: AccessKind,
}

/// A whole workload trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Accesses in program order (per process; inter-process order is
    /// advisory).
    pub accesses: Vec<Access>,
}

impl Trace {
    /// Split into per-process access streams.
    pub fn per_process(&self, nprocs: u32) -> Vec<Vec<Access>> {
        let mut out = vec![Vec::new(); nprocs as usize];
        for a in &self.accesses {
            out[a.proc as usize].push(*a);
        }
        out
    }

    /// Indices touched, de-duplicated, in first-touch order.
    pub fn touched(&self) -> Vec<u64> {
        let mut seen = std::collections::HashSet::new();
        self.accesses
            .iter()
            .filter(|a| seen.insert(a.index))
            .map(|a| a.index)
            .collect()
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_process_partitions() {
        let t = Trace {
            accesses: vec![
                Access {
                    proc: 0,
                    index: 5,
                    kind: AccessKind::Read,
                },
                Access {
                    proc: 1,
                    index: 6,
                    kind: AccessKind::Write,
                },
                Access {
                    proc: 0,
                    index: 5,
                    kind: AccessKind::Read,
                },
            ],
        };
        let per = t.per_process(2);
        assert_eq!(per[0].len(), 2);
        assert_eq!(per[1].len(), 1);
        assert_eq!(t.touched(), vec![5, 6]);
        assert_eq!(t.len(), 3);
    }
}
