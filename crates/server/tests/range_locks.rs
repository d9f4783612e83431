//! Property tests pitting the GDA table's [`RangeLocks`] against a naive reference
//! model: a plain list of held intervals with O(n²) overlap scans. Any
//! sequence of try-acquires and releases must produce identical
//! grant/deny decisions and identical held counts in both.

use proptest::prelude::*;

use pario_check::LockLevel;
use pario_fs::RangeLocks;

/// One scripted step against the lock table.
#[derive(Debug, Clone)]
enum Op {
    /// try_acquire(start, start + len).
    TryAcquire { start: u64, len: u64 },
    /// Drop the i-th oldest live guard (modulo live count).
    Release { slot: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64, 1u64..16).prop_map(|(start, len)| Op::TryAcquire { start, len }),
        (0usize..8).prop_map(|slot| Op::Release { slot }),
    ]
}

/// The reference: intervals as data, overlap by definition.
#[derive(Default)]
struct NaiveLocks {
    held: Vec<(u64, u64)>,
}

impl NaiveLocks {
    fn try_acquire(&mut self, start: u64, end: u64) -> bool {
        if self.held.iter().any(|&(s, e)| start < e && s < end) {
            return false;
        }
        self.held.push((start, end));
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Acquire/deny decisions, held counts, and release behaviour agree
    /// with the reference on arbitrary op sequences.
    #[test]
    fn matches_naive_reference(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let locks = RangeLocks::new(LockLevel::RangeLock);
        let mut naive = NaiveLocks::default();
        // Live guards, kept in grant order alongside their intervals so
        // releases stay in lockstep with the reference.
        let mut guards = Vec::new();

        for op in ops {
            match op {
                Op::TryAcquire { start, len } => {
                    let end = start + len;
                    let got = locks.try_acquire(start, end);
                    prop_assert_eq!(
                        got.is_some(),
                        naive.try_acquire(start, end),
                        "grant/deny diverged on [{}, {})", start, end
                    );
                    if let Some(g) = got {
                        guards.push(g);
                    }
                }
                Op::Release { slot } => {
                    if !guards.is_empty() {
                        let i = slot % guards.len();
                        drop(guards.remove(i));
                        naive.held.remove(i);
                    }
                }
            }
            prop_assert_eq!(locks.held(), naive.held.len());
        }

        drop(guards);
        prop_assert_eq!(locks.held(), 0, "all ranges release on drop");
    }

    /// A granted range never overlaps any other live granted range —
    /// the core mutual-exclusion property, checked straight from the
    /// intervals the table said yes to.
    #[test]
    fn granted_ranges_are_pairwise_disjoint(
        reqs in proptest::collection::vec((0u64..48, 1u64..12), 1..40)
    ) {
        let locks = RangeLocks::new(LockLevel::RangeLock);
        let mut live: Vec<(u64, u64)> = Vec::new();
        let mut guards = Vec::new();
        for (start, len) in reqs {
            let end = start + len;
            if let Some(g) = locks.try_acquire(start, end) {
                for &(s, e) in &live {
                    prop_assert!(
                        end <= s || e <= start,
                        "granted [{}, {}) overlaps live [{}, {})", start, end, s, e
                    );
                }
                live.push((start, end));
                guards.push(g);
            }
        }
    }
}
