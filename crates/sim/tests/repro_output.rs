//! Golden-fixture check of the figures path: the stdout of
//! `repro --budget 20000 all` (Figures 3 and 9–15) and of
//! `repro --budget 20000 ext` (the extension tables) is pinned byte for
//! byte in `tests/expected_repro/`. Any change to a sweep, a cell runner,
//! a figure's arithmetic or its rendering shows up here as a diff —
//! regenerate with
//! `cargo run --release -p ccp-sim --bin repro -- --budget 20000 all > crates/sim/tests/expected_repro/all.txt`
//! (and likewise `ext > ext.txt`) after auditing that the drift is
//! intended.

use std::path::Path;
use std::process::Command;

fn check(figures: &str, fixture: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--budget", "20000", figures])
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "repro {figures} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let path =
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/expected_repro")).join(fixture);
    let pinned = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing repro fixture {}: {e}", path.display()));
    assert!(
        out.stdout == pinned,
        "repro --budget 20000 {figures} drifted from {}:\n{}",
        path.display(),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn all_figures_match_pinned_stdout() {
    check("all", "all.txt");
}

#[test]
fn extension_tables_match_pinned_stdout() {
    check("ext", "ext.txt");
}
