//! The paper's quantitative *shapes*, asserted as tests: each test runs
//! one of the simulator experiments (E2, E4–E7, E9, E12) and the
//! real-stack E10 and E11 — the very functions `exp` runs, at their own
//! sizes — and asserts every verdict, so that any regression in the
//! substrate that would change the reproduction's conclusions fails CI
//! rather than silently producing different tables.

use pario_bench::{find, Size};

/// Run experiment `id`: every verdict holds, and one starts with each
/// of `named`, so a verdict cannot quietly go missing.
fn holds(id: &str, named: &[&str]) {
    let report = (find(id).expect("a listed experiment").run)(Size::Smoke);
    for name in named {
        assert!(
            report.verdicts.iter().any(|v| v.claim.starts_with(name)),
            "{id} has no verdict '{name}'"
        );
    }
    for v in &report.verdicts {
        assert!(v.holds, "{id}: {}", v.claim);
    }
}

/// E2: striping a type-S stream over D drives speeds it up ~Dx.
#[test]
fn e2_shape_striping_scales() {
    holds("e2", &["E2 striping speedup at 4 drives"]);
}

/// E5: the PS global view is pinned to one drive — striped wins ~Dx.
#[test]
fn e5_shape_ps_global_view_serial() {
    holds("e5", &["E5 PS global view's read time over striped's"]);
}

/// E6: far-apart contiguous regions on a shared drive cost seeks that
/// local interleaving avoids.
#[test]
fn e6_shape_allocation_policy_matters() {
    holds("e6", &["E6 contiguous over interleaved makespan"]);
}

/// E7: under a hot-spot, whole-block placement saturates one drive while
/// declustering balances.
#[test]
fn e7_shape_declustering_balances_hotspots() {
    holds(
        "e7",
        &[
            "E7 whole-block imbalance under a hot block",
            "E7 declustered imbalance under a hot block",
            "E7 whole-block over declustered makespan under a hot block",
        ],
    );
}

/// E12: an IS cluster at or past the read-ahead budget serialises the
/// global view to one drive's rate.
#[test]
fn e12_shape_cluster_vs_budget() {
    holds("e12", &["E12 read time at a 64-block cluster"]);
}

/// E4 and E9 check no claim of their own; they must still run through.
#[test]
fn e4_and_e9_run() {
    holds("e4", &[]);
    holds("e9", &[]);
}

/// E10: every boundary strategy computes the reference stencil, and
/// the deep halo moves the fewest blocks, replication the most.
#[test]
fn e10_shape_boundary_strategies() {
    holds("e10", &["E10 blocks moved (read, written) ascend"]);
}

/// E11: parity and shadowing ride out a failed drive and rebuild it; a
/// flipped bit is corrected; a whole-volume rollback tears nothing.
#[test]
fn e11_shape_reliability() {
    holds(
        "e11",
        &[
            "E11 drive 2 failed",
            "E11 replacement drive rebuilt",
            "E11 read of the flipped record",
            "E11 primary drive failed",
            "E11 all devices rolled back",
        ],
    );
}
