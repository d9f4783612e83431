//! Integration: the defining invariants of Figure 1, asserted through
//! E1 itself — the experiment that draws the figure (`exp e1`) checks
//! each organization's property as a verdict, and each test here runs it
//! and asserts its organization's verdict.

use pario_bench::{find, Size};

/// Run E1 and assert its verdict for subfigure `label`.
fn subfigure(label: &str) {
    let report = (find("e1").expect("E1 is listed").run)(Size::Smoke);
    let v = report.verdicts.iter().find(|v| v.claim.starts_with(label));
    let v = v.unwrap_or_else(|| panic!("E1 has no verdict for {label}"));
    assert!(v.holds, "{}", v.claim);
    assert!(report.text.contains(&label[..3]), "{label} is drawn");
}

#[test]
fn figure1a_sequential_single_process() {
    subfigure("(a) S:");
}

#[test]
fn figure1b_partitioned_contiguous_thirds() {
    subfigure("(b) PS:");
}

#[test]
fn figure1c_interleaved_stride_three() {
    subfigure("(c) IS:");
}

#[test]
fn figure1d_self_scheduled_exhaustive_any_order() {
    subfigure("(d) SS:");
}
