//! The `repro` command line end to end: every subcommand rejects bad
//! usage with exit code 2 (never a panic's 101), a closed stdout ends it
//! by SIGPIPE, and every `repro` command README.md documents still parses.

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
        &["trace", "workgen", "--help"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(0), "repro {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("exit codes:"));
    }
}

#[cfg(unix)]
#[test]
fn closed_stdout_ends_repro_by_sigpipe() {
    use std::io::{BufRead, BufReader, Read};
    use std::os::unix::process::ExitStatusExt;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["inspect", "health", "--budget", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro starts");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader, and with it the pipe's read end, is gone: the next
    // print hits a closed pipe.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("repro exits");
    assert!(!first.is_empty(), "repro printed nothing");
    assert_eq!(
        status.signal(),
        Some(13),
        "a closed stdout must end repro by SIGPIPE, not {status:?}; stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Splits a shell command line into words, honouring double quotes, and
/// stops at an unquoted `#` comment.
fn shell_words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word: Option<String> = None;
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => {
                quoted = !quoted;
                word.get_or_insert_with(String::new);
            }
            '#' if !quoted && word.is_none() => break,
            c if c.is_whitespace() && !quoted => words.extend(word.take()),
            c => word.get_or_insert_with(String::new).push(c),
        }
    }
    words.extend(word);
    words
}

#[test]
fn readme_repro_commands_parse() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md reads");
    let mut checked = 0;
    for line in readme.replace("\\\n", " ").lines() {
        let Some((_, rest)) = line.split_once("--bin repro --") else {
            continue;
        };
        // `Args::parse` resolves the subcommand and checks every flag
        // before it reaches `--help`, so a documented subcommand or flag
        // that no longer exists fails here.
        let mut args = shell_words(rest);
        args.push("--help".to_string());
        let out = repro(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(
            out.status.code(),
            Some(0),
            "README's `repro{rest}` no longer parses: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "found no `--bin repro --` command in README.md"
    );
}
