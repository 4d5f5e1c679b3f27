//! Crash-isolation and resume properties of the resilient sweep runner.
//!
//! The central guarantee: a sweep that is interrupted after an arbitrary
//! number of cells (kill emulation via `--max-cells` + checkpoint) and
//! then resumed produces a report and JSON grid **byte-identical** to an
//! uninterrupted run — regardless of where the cut fell or how many
//! worker threads either run used.

use ccp_cache::DesignKind;
use ccp_sim::sweep::{run_sweep, run_sweep_resilient, CellStatus, ResilienceConfig};
use ccp_sim::SweepConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// A collision-free scratch path (parallel tests, repeated proptest cases).
fn temp_path(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "ccp-resilience-{tag}-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// A small grid that still exercises both workload kinds: 2 workloads ×
/// 2 designs = 4 cells, a couple of seconds of simulation.
fn small_config() -> SweepConfig {
    let mut c = SweepConfig::new(2_000, 7);
    c.workloads = vec![
        "health".into(),
        "workgen:addr=uniform,small=0.5,footprint=4096".into(),
    ];
    c.designs = vec!["BC".into(), "CPP".into()];
    c.threads = 2;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interrupt after `cut` cells, resume, and compare byte-for-byte
    /// against an uninterrupted run (which also varies thread count, to
    /// prove parallelism never leaks into the results).
    #[test]
    fn interrupted_then_resumed_run_is_byte_identical(cut in 1usize..4, threads in 1usize..4) {
        let config = small_config();
        let baseline = run_sweep_resilient(&config, &ResilienceConfig::default())
            .expect("uninterrupted sweep");
        prop_assert!(baseline.is_complete());

        let path = temp_path("resume");
        // Phase 1: the "crash" — only `cut` of the 4 cells complete.
        let interrupted = run_sweep_resilient(&config, &ResilienceConfig {
            max_cells: Some(cut),
            checkpoint: Some(path.clone()),
            ..Default::default()
        }).expect("interrupted sweep");
        prop_assert_eq!(interrupted.ok_count(), cut);
        prop_assert_eq!(interrupted.skipped_count(), 4 - cut);

        // Phase 2: resume from the checkpoint with a different thread count.
        let mut config2 = config.clone();
        config2.threads = threads;
        let resumed = run_sweep_resilient(&config2, &ResilienceConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Default::default()
        }).expect("resumed sweep");
        let _ = std::fs::remove_file(&path);

        prop_assert!(resumed.is_complete());
        prop_assert_eq!(resumed.render_report(), baseline.render_report());
        prop_assert_eq!(resumed.to_json().to_string(), baseline.to_json().to_string());
    }
}

/// Resuming with an empty cut (max_cells = 0) records nothing and the
/// follow-up run computes everything itself — still byte-identical.
#[test]
fn resume_from_empty_checkpoint_matches_fresh_run() {
    let config = small_config();
    let baseline =
        run_sweep_resilient(&config, &ResilienceConfig::default()).expect("uninterrupted sweep");

    let path = temp_path("empty");
    let interrupted = run_sweep_resilient(
        &config,
        &ResilienceConfig {
            max_cells: Some(0),
            checkpoint: Some(path.clone()),
            ..Default::default()
        },
    )
    .expect("interrupted sweep");
    assert_eq!(interrupted.ok_count(), 0);
    assert_eq!(interrupted.skipped_count(), 4);

    let resumed = run_sweep_resilient(
        &config,
        &ResilienceConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Default::default()
        },
    )
    .expect("resumed sweep");
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.render_report(), baseline.render_report());
}

/// A checkpoint written against one grid refuses to resume a different one.
#[test]
fn checkpoint_header_mismatch_is_rejected() {
    let config = small_config();
    let path = temp_path("mismatch");
    run_sweep_resilient(
        &config,
        &ResilienceConfig {
            max_cells: Some(1),
            checkpoint: Some(path.clone()),
            ..Default::default()
        },
    )
    .expect("interrupted sweep");

    let mut other = config.clone();
    other.budget = 3_000;
    let err = run_sweep_resilient(
        &other,
        &ResilienceConfig {
            checkpoint: Some(path.clone()),
            resume: true,
            ..Default::default()
        },
    )
    .expect_err("resume against a different grid must fail");
    let _ = std::fs::remove_file(&path);
    assert_eq!(err.class(), "corrupt");
}

/// An unresolved workload name yields skipped cells while the rest of the
/// grid completes — through the public entry point, not the test shim.
#[test]
fn unknown_workload_skips_only_its_cells() {
    let mut config = small_config();
    config.workloads = vec!["health".into(), "no-such-benchmark".into()];
    let sweep =
        run_sweep_resilient(&config, &ResilienceConfig::default()).expect("resilient sweep");
    assert_eq!(sweep.ok_count(), 2);
    assert_eq!(sweep.skipped_count(), 2);
    for o in sweep.outcomes() {
        match (&o.status, o.workload.as_str()) {
            (CellStatus::Ok(_), w) => assert_eq!(w, "olden.health"),
            (CellStatus::Skipped(r), "no-such-benchmark") => {
                assert!(r.contains("unresolved"), "{r}")
            }
            (s, w) => panic!("unexpected outcome {s:?} for {w}"),
        }
    }
}

/// The per-cell watchdog turns a runaway source into a `failed` cell
/// (class `watchdog`) instead of a hung sweep.
#[test]
fn watchdog_flags_runaway_cells_as_failed() {
    let mut config = small_config();
    config.workloads = vec!["health".into()];
    let sweep = run_sweep_resilient(
        &config,
        &ResilienceConfig {
            watchdog_limit: 10, // far below the 2000-instruction budget
            ..Default::default()
        },
    )
    .expect("resilient sweep");
    assert_eq!(sweep.ok_count(), 0);
    assert_eq!(sweep.failed_count(), 2);
    for o in sweep.outcomes() {
        match &o.status {
            CellStatus::Failed(e) => assert_eq!(e.class(), "watchdog"),
            s => panic!("expected watchdog failure, got {s:?}"),
        }
    }
}

/// The two public sweep entry points share one scheduler and differ only
/// in the per-cell guard rails, which must never change a result: on a
/// mixed grid every cell's `RunStats` agrees field for field.
#[test]
fn plain_and_resilient_sweeps_agree_on_every_cell() {
    let mut config = SweepConfig::new(2_000, 7);
    config.workloads = vec![
        "health".into(),
        "130.li".into(),
        "workgen:addr=zipf,small=0.6".into(),
    ];
    config.threads = 2;
    let plain = run_sweep(&config).expect("plain sweep");
    let resilient =
        run_sweep_resilient(&config, &ResilienceConfig::default()).expect("resilient sweep");
    assert_eq!(plain.benchmarks, resilient.workloads);
    assert_eq!(plain.designs, DesignKind::ALL.to_vec());
    for w in &plain.benchmarks {
        for d in DesignKind::ALL {
            let outcome = resilient.outcome(w, d).expect("cell scheduled");
            match &outcome.status {
                CellStatus::Ok(s) => assert_eq!(
                    format!("{:?}", plain.cell(w, d)),
                    format!("{s:?}"),
                    "{w}/{}",
                    d.name()
                ),
                s => panic!("{w}/{}: expected ok, got {s:?}", d.name()),
            }
        }
    }
}
