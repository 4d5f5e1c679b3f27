//! The `repro` command line end to end: every subcommand rejects bad
//! usage with exit code 2 (never a panic's 101), and a trace written by
//! `repro trace gen` reads back through `info`, `profile` and `run`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn usage_errors_exit_2_on_every_subcommand() {
    let cases: &[&[&str]] = &[
        // Figure mode.
        &["--budget"],
        &["--bogus", "fig3"],
        &["--dispatch", "scalar", "perf"],
        &["fig99"],
        &["fig3", "extz"],
        &["--benchmarks", "nosuch", "fig3"],
        &["--assert-min-speedup", "fast", "perf"],
        &["compare-schemes", "--schemes", "ZZZ"],
        // sweep
        &["sweep", "--budget"],
        &["sweep", "--budget", "lots"],
        &["sweep", "--bogus"],
        &["sweep", "health"],
        &["sweep", "--scheme", "XYZ"],
        // inspect
        &["inspect"],
        &["inspect", "health", "--budget"],
        &["inspect", "health", "--bogus", "1"],
        &["inspect", "nosuch"],
        &["inspect", "health", "mst"],
        // chaos
        &["chaos", "--workload"],
        &["chaos", "--bogus"],
        &["chaos", "--workload", "nosuch"],
        // trace
        &["trace"],
        &["trace", "bogus"],
        &["trace", "gen", "health", "h.ccpt", "--budget"],
        &["trace", "gen", "health", "h.ccpt", "--seed"],
        &["trace", "gen", "health", "h.ccpt", "--bogus", "1"],
        &["trace", "gen", "nosuch", "h.ccpt"],
        &["trace", "gen", "health"],
        &["trace", "info"],
        &["trace", "profile", "a.ccpt", "b.ccpt"],
        &["trace", "run", "f.ccpt", "--design"],
        &["trace", "run", "f.ccpt", "--desing", "BC"],
        &["trace", "run", "f.ccpt", "--design", "XYZ"],
        &["trace", "workgen", "--addr"],
        &["trace", "workgen", "--bogus", "1"],
        &["trace", "workgen", "--addr", "bogus"],
    ];
    for args in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro {args:?} should be a usage error; stderr: {stderr}"
        );
        assert!(
            stderr.starts_with("error [") && !stderr.contains("panicked"),
            "repro {args:?} should report a typed error; stderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
    }
}

#[test]
fn help_exits_0() {
    for args in [
        &["--help"][..],
        &["sweep", "-h"],
        &["trace", "run", "--help"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(0), "repro {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("exit codes:"));
    }
}

#[test]
fn trace_gen_reads_back_through_info_profile_and_run() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file: PathBuf = dir.join("h.ccpt");
    let file = file.to_str().expect("utf-8 temp path");
    let stdout = |args: &[&str]| {
        let out = repro(args);
        assert!(
            out.status.success(),
            "repro {args:?} exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };

    let gen = stdout(&["trace", "gen", "health", file, "--budget", "20000"]);
    assert!(gen.starts_with(&format!("wrote {file} (")), "{gen}");
    let info = stdout(&["trace", "info", file]);
    assert!(info.starts_with("name:         olden.health\n"), "{info}");
    assert!(info.contains("validation:   ok\n"), "{info}");
    let profile = stdout(&["trace", "profile", file]);
    assert!(profile.starts_with("olden.health: "), "{profile}");
    assert!(profile.contains("% compressible"), "{profile}");
    let run = stdout(&["trace", "run", file, "--design", "BC"]);
    assert!(run.starts_with("olden.health on BC: "), "{run}");
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
