//! Golden-fixture check of the figures path: the stdout of
//! `repro --budget 20000 all` (Figures 3 and 9–15), of
//! `repro --budget 20000 ext` (the extension tables), of
//! `repro inspect health --budget 20000` (every design's run statistics)
//! and of `repro trace workgen --spec workgen:addr=zipf,small=0.6 --budget
//! 20000` (one synthetic workload's mix, profile and functional BC/CPP
//! traffic) is pinned byte for byte in `tests/expected_repro/`. Any
//! change to a sweep, a cell runner, a figure's arithmetic or its
//! rendering shows up here as a diff — regenerate with
//! `cargo run --release -p ccp-sim --bin repro -- all --budget 20000 > crates/sim/tests/expected_repro/all.txt`
//! (and likewise `ext` > `ext.txt`, `inspect health` > `inspect.txt`,
//! `trace workgen --spec workgen:addr=zipf,small=0.6` > `workgen.txt`)
//! after auditing that the drift is intended.

use std::path::Path;
use std::process::Command;

fn check(args: &[&str], fixture: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--budget", "20000"])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {args:?} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path =
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/expected_repro")).join(fixture);
    let pinned = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing repro fixture {}: {e}", path.display()));
    assert!(
        out.stdout == pinned,
        "repro {args:?} --budget 20000 drifted from {}:\n{}",
        path.display(),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn all_figures_match_pinned_stdout() {
    check(&["all"], "all.txt");
}

#[test]
fn extension_tables_match_pinned_stdout() {
    check(&["ext"], "ext.txt");
}

#[test]
fn inspect_matches_pinned_stdout() {
    check(&["inspect", "health"], "inspect.txt");
}

#[test]
fn trace_workgen_matches_pinned_stdout() {
    check(
        &["trace", "workgen", "--spec", "workgen:addr=zipf,small=0.6"],
        "workgen.txt",
    );
}
