//! Integration: the `pario` command-line utility end to end — format a
//! volume on file-backed devices, create and fill files in several
//! organizations, list, cat, convert, scrub, simulate a drive swap, and
//! rebuild.

use std::path::PathBuf;

use pario::cli;

fn tmpdir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pario-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_dir_all(p);
}

#[test]
fn full_cli_workflow() {
    let dir = tmpdir("flow");

    // mkvol
    let out = cli::mkvol(&dir, 4, 512, 512).unwrap();
    assert!(out.contains("4 devices"), "{out}");
    // Double-format refused.
    assert!(cli::mkvol(&dir, 4, 512, 512).is_err());

    // create + fill in several organizations.
    cli::create(&dir, "stream", "S", 128, 4, None).unwrap();
    cli::create(&dir, "grid", "PS:4", 128, 4, Some(64)).unwrap();
    cli::create(&dir, "queue", "SS", 128, 4, None).unwrap();
    cli::fill(&dir, "stream", 40).unwrap();
    cli::fill(&dir, "grid", 64).unwrap();
    cli::fill(&dir, "queue", 16).unwrap();

    // ls shows all three with their organizations.
    let listing = cli::ls(&dir).unwrap();
    for needle in ["stream", "grid", "queue", "PS:4", "SS"] {
        assert!(listing.contains(needle), "missing {needle} in:\n{listing}");
    }

    // cat prints records.
    let shown = cli::cat(&dir, "grid", 2, 3).unwrap();
    assert_eq!(shown.lines().count(), 3);
    assert!(shown.contains("       2  "));

    // convert PS -> IS and re-list.
    let out = cli::convert(&dir, "grid", "grid.is", "IS:4").unwrap();
    assert!(out.contains("64 records"), "{out}");
    assert!(cli::ls(&dir).unwrap().contains("grid.is"));

    // rm removes durably.
    cli::rm(&dir, "queue").unwrap();
    assert!(!cli::ls(&dir).unwrap().contains("queue"));

    // Everything persisted: a fresh open sees the same state.
    let v = cli::open_volume(&dir).unwrap();
    assert_eq!(
        v.list(),
        vec![
            "grid".to_string(),
            "grid.is".to_string(),
            "stream".to_string()
        ]
    );

    cleanup(&dir);
}

#[test]
fn parity_scrub_and_rebuild() {
    let dir = tmpdir("parity");
    cli::mkvol(&dir, 4, 512, 512).unwrap();
    cli::create(&dir, "prot", "GDA+parity:3:rotated", 512, 1, None).unwrap();
    cli::fill(&dir, "prot", 30).unwrap();

    let out = cli::scrub_volume(&dir).unwrap();
    assert!(out.contains("prot: clean"), "{out}");

    // "Replace" device 2 with a blank image of the same shape.
    let img = dir.join("dev2.img");
    let len = std::fs::metadata(&img).unwrap().len();
    std::fs::write(&img, vec![0u8; len as usize]).unwrap();

    // The scrub sees the torn stripes…
    let out = cli::scrub_volume(&dir).unwrap();
    assert!(out.contains("torn"), "{out}");
    // …and rebuild repairs them.
    let out = cli::rebuild(&dir, 2).unwrap();
    assert!(out.contains("rebuilt from parity"), "{out}");
    let err = cli::rebuild(&dir, 4).unwrap_err();
    assert!(err.0.contains("no device 4"), "{err}");
    let out = cli::scrub_volume(&dir).unwrap();
    assert!(out.contains("prot: clean"), "{out}");

    // Data is exact after the swap+rebuild.
    let v = cli::open_volume(&dir).unwrap();
    let pf = pario::core::ParallelFile::open(&v, "prot").unwrap();
    let mut buf = vec![0u8; 512];
    for i in 0..30u64 {
        pf.raw().read_record(i, &mut buf).unwrap();
        assert_eq!(buf, pario::workloads::record_payload(i, 512), "record {i}");
    }
    cleanup(&dir);
}

#[test]
fn run_dispatch_and_errors() {
    let dir = tmpdir("dispatch");
    let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };

    // help via no args and explicit.
    assert!(cli::run(&[]).unwrap().contains("USAGE"));
    assert!(cli::run(&s(&["help"])).unwrap().contains("mkvol"));

    // Unknown command and missing args are errors, not panics.
    assert!(cli::run(&s(&["frobnicate"])).is_err());
    assert!(cli::run(&s(&["mkvol"])).is_err());
    assert!(cli::run(&s(&["mkvol", dir.to_str().unwrap(), "x", "y", "z"])).is_err());

    // Happy path through run().
    cli::run(&s(&["mkvol", dir.to_str().unwrap(), "2", "256", "512"])).unwrap();
    cli::run(&s(&[
        "create",
        dir.to_str().unwrap(),
        "f",
        "GDA",
        "256",
        "2",
    ]))
    .unwrap();
    cli::run(&s(&["fill", dir.to_str().unwrap(), "f", "8"])).unwrap();
    let out = cli::run(&s(&["cat", dir.to_str().unwrap(), "f"])).unwrap();
    assert_eq!(out.lines().count(), 8);

    // Bad organization string.
    assert!(cli::run(&s(&[
        "create",
        dir.to_str().unwrap(),
        "g",
        "WEIRD:9",
        "256",
        "2",
    ]))
    .is_err());
    // PS without size.
    assert!(cli::run(&s(&[
        "create",
        dir.to_str().unwrap(),
        "g",
        "PS:2",
        "256",
        "2",
    ]))
    .is_err());

    cleanup(&dir);
}
