//! Crash-isolation and resume properties of the resilient sweep runner.
//!
//! The central guarantee: a sweep that is interrupted after an arbitrary
//! number of cells (kill emulation via `--max-cells` over a `--store`
//! directory) and then resumed on the same store produces a report and
//! JSON grid **byte-identical** to an uninterrupted run — regardless of
//! where the cut fell or how many worker threads either run used. The
//! store is the `.ccpz` tier `ccp-served` uses, keyed by each cell's
//! [`JobSpec`], so a stored cell is exactly the served job's result.

use ccp_cache::DesignKind;
use ccp_sim::checkpoint::DiskTier;
use ccp_sim::json::write_atomic_bytes;
use ccp_sim::sweep::{run_sweep, run_sweep_resilient, CellStatus, ResilienceConfig};
use ccp_sim::{run_job, JobSpec, SweepConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

static COUNTER: AtomicU32 = AtomicU32::new(0);

/// A collision-free scratch store directory (parallel tests, repeated
/// proptest cases).
fn temp_store(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("ccp-resilience-{tag}-{}-{n}", std::process::id()))
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

fn with_store(store: &Path, max_cells: Option<usize>) -> ResilienceConfig {
    ResilienceConfig {
        store: Some(store.to_path_buf()),
        max_cells,
        ..Default::default()
    }
}

/// The job a cell of `config` computes (the `ccp-served` submit of the
/// same workload, design, scheme, budget, seed and latency variant).
fn cell_job(config: &SweepConfig, workload: &str, design: &str) -> JobSpec {
    JobSpec {
        scheme: config.scheme.clone(),
        budget: config.budget,
        seed: config.seed,
        halved: config.halved_miss_penalty,
        ..JobSpec::new(workload, design)
    }
}

/// The `(workload, design)` cells a sweep over `store` restores without
/// running any: with a cell cap of 0, only a verified entry completes.
fn restorable(config: &SweepConfig, store: &Path) -> Vec<(String, &'static str)> {
    let probe = run_sweep_resilient(config, &with_store(store, Some(0))).expect("probe sweep");
    probe
        .outcomes()
        .into_iter()
        .filter(|o| matches!(o.status, CellStatus::Ok(_)))
        .map(|o| (o.workload.clone(), o.design))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Interrupt after `cut` cells, resume on the same store, and compare
    /// byte-for-byte against an uninterrupted run (which also varies
    /// thread count, to prove parallelism never leaks into the results).
    #[test]
    fn interrupted_then_resumed_run_is_byte_identical(cut in 1usize..4, threads in 1usize..4) {
        let config = small_config();
        let baseline = run_sweep_resilient(&config, &ResilienceConfig::default())
            .expect("uninterrupted sweep");
        prop_assert!(baseline.is_complete());

        let store = temp_store("resume");
        // Phase 1: the "crash" — only `cut` of the 4 cells complete.
        let interrupted = run_sweep_resilient(&config, &with_store(&store, Some(cut)))
            .expect("interrupted sweep");
        prop_assert_eq!(interrupted.ok_count(), cut);
        prop_assert_eq!(interrupted.skipped_count(), 4 - cut);

        // Phase 2: resume from the store with a different thread count.
        let mut config2 = config.clone();
        config2.threads = threads;
        let resumed = run_sweep_resilient(&config2, &with_store(&store, None))
            .expect("resumed sweep");
        let _ = std::fs::remove_dir_all(&store);

        prop_assert!(resumed.is_complete());
        prop_assert_eq!(resumed.render_report(), baseline.render_report());
        prop_assert_eq!(resumed.to_json().to_string(), baseline.to_json().to_string());
    }
}

/// Resuming with an empty cut (max_cells = 0) stores nothing and the
/// follow-up run computes everything itself — still byte-identical.
#[test]
fn resume_from_empty_store_matches_fresh_run() {
    let config = small_config();
    let baseline =
        run_sweep_resilient(&config, &ResilienceConfig::default()).expect("uninterrupted sweep");

    let store = temp_store("empty");
    let interrupted =
        run_sweep_resilient(&config, &with_store(&store, Some(0))).expect("interrupted sweep");
    assert_eq!(interrupted.ok_count(), 0);
    assert_eq!(interrupted.skipped_count(), 4);

    let resumed = run_sweep_resilient(&config, &with_store(&store, None)).expect("resumed sweep");
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(resumed.render_report(), baseline.render_report());
}

/// A cell a sweep stores is the served job's entry: the disk tier returns
/// it under the job's own key and canonical text, equal to `run_job`.
#[test]
fn stored_cell_is_the_served_jobs_entry() {
    let config = small_config();
    let store = temp_store("shared");
    let sweep = run_sweep_resilient(&config, &with_store(&store, None)).expect("sweep");
    assert!(sweep.is_complete());
    let tier = DiskTier::open(&store).expect("open store");
    assert_eq!(tier.entry_count(), 4);
    for o in sweep.outcomes() {
        let CellStatus::Ok(cell) = &o.status else {
            panic!("{}/{}: {:?}", o.workload, o.design, o.status)
        };
        let spec = cell_job(&config, &o.workload, o.design);
        let stored = tier
            .get_stats(spec.cache_key(), &spec.canonical())
            .unwrap_or_else(|| panic!("no entry for {}", spec.canonical()));
        let job = run_job(&spec).expect("job");
        assert_eq!(
            format!("{stored:?}"),
            format!("{job:?}"),
            "{}",
            spec.canonical()
        );
        assert_eq!(
            format!("{cell:?}"),
            format!("{job:?}"),
            "{}",
            spec.canonical()
        );
    }
    // The served spelling of a benchmark (`health`, not `olden.health`)
    // reaches the same entry.
    let served = cell_job(&config, "health", "CPP");
    assert!(tier
        .get_stats(served.cache_key(), &served.canonical())
        .is_some());
    let _ = std::fs::remove_dir_all(&store);
}

/// A store answers only the cells whose spec it holds: another budget
/// restores nothing, and a superset grid restores exactly the overlap.
#[test]
fn store_restores_exactly_the_matching_cells() {
    let config = small_config();
    let store = temp_store("grids");
    run_sweep_resilient(&config, &with_store(&store, None)).expect("fill");
    let all = restorable(&config, &store);
    assert_eq!(all.len(), 4, "{all:?}");

    let mut other_budget = config.clone();
    other_budget.budget = 3_000;
    assert!(restorable(&other_budget, &store).is_empty());

    let mut superset = config.clone();
    superset.workloads.push("mst".into());
    superset.designs.push("BCP".into());
    let mut overlap = restorable(&superset, &store);
    overlap.sort();
    let mut expected = all.clone();
    expected.sort();
    assert_eq!(overlap, expected);
    let _ = std::fs::remove_dir_all(&store);
}

/// A corrupt entry is quarantined and only its cell runs again; the
/// resumed grid still equals a fresh run.
#[test]
fn corrupt_entry_is_quarantined_and_only_its_cell_recomputed() {
    let config = small_config();
    let store = temp_store("corrupt");
    let fresh = run_sweep_resilient(&config, &with_store(&store, None)).expect("fill");
    let tier = DiskTier::open(&store).expect("open store");
    let spec = cell_job(&config, "olden.health", "CPP");
    let path = tier.path_for(spec.cache_key());
    let mut bytes = std::fs::read(&path).expect("stored cell");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    write_atomic_bytes(&path, &bytes).expect("corrupt entry");

    let mut left = restorable(&config, &store);
    left.sort();
    let mut expected = vec![
        ("olden.health".to_string(), "BC"),
        (fresh.workloads[1].clone(), "BC"),
        (fresh.workloads[1].clone(), "CPP"),
    ];
    expected.sort();
    assert_eq!(left, expected);
    assert_eq!(
        std::fs::read(tier.quarantine_path_for(spec.cache_key())).expect("quarantined"),
        bytes
    );

    let resumed = run_sweep_resilient(&config, &with_store(&store, None)).expect("resume");
    assert_eq!(resumed.render_report(), fresh.render_report());
    assert_eq!(resumed.to_json().to_string(), fresh.to_json().to_string());
    assert!(
        tier.get_stats(spec.cache_key(), &spec.canonical())
            .is_some(),
        "healed"
    );
    let _ = std::fs::remove_dir_all(&store);
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
